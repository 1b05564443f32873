"""Divisor-side rewriting: blowups, minimalization, flows, standard forms,
barks."""

import ast
import json
import random
import string
from collections import Counter, deque
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import plumbcalc.divisor as divisor
import plumbcalc.plumbing as plumbing
from plumbcalc.cli import main
from plumbcalc.divisor import (
    MOVES,
    _STRATEGY,
    _SearchCaps,
    _blowups,
    _build,
    _circular_standard,
    _is_revisit,
    _linear_standard,
    _require_divisor,
    _site_moves,
    apply_move,
    bark,
    blow_down,
    blow_up,
    elementary_flow,
    is_standard,
    is_superfluous,
    replay,
    snc_minimalize,
    standardize,
)
from plumbcalc.family import (
    FamilyParams,
    build_boundary_graph,
    build_by_blowups,
)
from plumbcalc.graphs import (
    DomainError,
    Edge,
    Vertex,
    WeightedGraph,
    _chains_through,
    _entries,
    branching_set,
    canonical_encoding,
    canonical_json,
    graphs_isomorphic,
    isomorphism_key,
)
from plumbcalc.plumbing import (
    _insert,
    from_divisor_graph,
    gauge_canonicalize,
    move_R1,
    normalize,
    reverse_orientation,
)

RNG = random.Random(77003)
ROUND_TRIPS = 200


def chain(*weights):
    vs = [Vertex(f"v{i}", w) for i, w in enumerate(weights)]
    es = [Edge(f"v{i}", f"v{i+1}") for i in range(len(weights) - 1)]
    return WeightedGraph("divisor", vs, es)


def cycle(*weights):
    vs = [Vertex(f"v{i}", w) for i, w in enumerate(weights)]
    n = len(weights)
    es = [Edge(f"v{i}", f"v{(i+1) % n}") for i in range(n)]
    return WeightedGraph("divisor", vs, es)


def tree(weights, edges):
    """Vertices v0, v1, ... with these weights, joined by the index pairs."""
    return WeightedGraph("divisor", [Vertex(f"v{i}", w) for i, w in enumerate(weights)],
                         [Edge(f"v{a}", f"v{b}") for a, b in edges])


def search_moves(g: WeightedGraph) -> list:
    """Every move the standardization search tries on g, in its order: the
    `_site_moves` list followed by the `_blowups`."""
    return [*_site_moves(g), *_blowups(g)]


# -- blowups -------------------------------------------------------------------


def test_blow_up_on_vertex():
    g = chain(-2, -3)
    out = blow_up(g, "v0", new_id="E")
    assert out.vertices["E"].weight == -1
    assert out.vertices["v0"].weight == -3
    assert Edge("E", "v0") in out.edges


def test_blow_up_on_edge():
    g = chain(-2, -3)
    out = blow_up(g, Edge("v0", "v1"), new_id="E")
    assert out.vertices["E"].weight == -1
    assert out.vertices["v0"].weight == -3
    assert out.vertices["v1"].weight == -4
    assert Edge("v0", "v1") not in out.edges
    assert Edge("E", "v0") in out.edges and Edge("E", "v1") in out.edges


@pytest.mark.parametrize("at, message", [
    ("v9", "blow_up center vertex 'v9' not found"),
    (Edge("v2", "v0"), "blow_up center edge ('v0','v2') not found"),
    (Edge("v0", "v1", -1), "blow_up center edge ('v0','v1') not found"),
    (("v0", "v1"), "unknown blowup center ('v0', 'v1')"),
])
def test_blow_up_checks_its_site(at, message):
    """A site is a vertex id of the graph or one of its edges; the edge's
    ends are named in id order, as `Edge` stores them."""
    with pytest.raises(DomainError) as err:
        blow_up(chain(-2, -3, -1), at)
    assert str(err.value) == message


def test_blow_down_requires_contractible_vertex():
    g = chain(-2, -1, -3)
    out = blow_down(g, "v1")
    assert out.vertices["v0"].weight == -1
    assert out.vertices["v2"].weight == -2
    assert Edge("v0", "v2") in out.edges
    with pytest.raises(DomainError):
        blow_down(chain(-2, -3), "v0")


def test_blow_down_refuses_a_vertex_with_boundary():
    """A (-1)-vertex with boundary circles is not superfluous, and neither
    blow_down nor replay contracts it: that would drop its boundary
    count."""
    g = WeightedGraph("divisor", [Vertex("a", -1, boundary=2), Vertex("b", -2),
                                  Vertex("c", -3)], [Edge("a", "b"), Edge("a", "c")])
    assert not is_superfluous(g, "a")
    with pytest.raises(DomainError, match="boundary 2"):
        blow_down(g, "a")
    with pytest.raises(DomainError, match="boundary 2"):
        replay(g, [{"move": "blowdown", "vertex": "a"}])


def test_blow_down_refuses_to_break_snc():
    # contracting the -1 vertex of a triangle would create a double edge
    g = cycle(-1, -2, -3)
    with pytest.raises(DomainError):
        blow_down(g, "v0")


@pytest.mark.parametrize("g, vid, message", [
    (WeightedGraph("plumbing", [Vertex("v0", -1)], []), "v0",
     "blow_down requires a divisor graph, got kind='plumbing'"),
    (chain(-1, -2), "x", "blow_down: vertex 'x' not found"),
    (chain(-2, -3), "v0", "blow_down: weight of 'v0' is -2, not -1"),
    (WeightedGraph("divisor", [Vertex("a", -2, genus=1, boundary=1), Vertex("b", -2)],
                   [Edge("a", "b")]), "a", "blow_down: weight of 'a' is -2, not -1"),
    (WeightedGraph("divisor", [Vertex("a", -1, genus=1, boundary=1), Vertex("b", -2)],
                   [Edge("a", "b")]), "a", "blow_down: 'a' has genus 1, not 0"),
    (WeightedGraph("divisor", [Vertex("a", -1, boundary=2), Vertex("b", -2)],
                   [Edge("a", "b")]), "a", "blow_down: 'a' has boundary 2, not 0"),
    (WeightedGraph("divisor", [Vertex("c", -1)] + [Vertex(f"a{i}", -2) for i in range(3)],
                   [Edge("c", f"a{i}") for i in range(3)]), "c",
     "blow_down: branching number of 'c' is 3 > 2"),
    (cycle(-1, -2, -3), "v0", "blow_down: neighbors of 'v0' are already adjacent; "
     "the image would not be snc"),
])
def test_blow_down_precondition_messages(g, vid, message):
    """Each precondition of a blowdown, in the order they are checked."""
    with pytest.raises(DomainError) as err:
        blow_down(g, vid)
    assert str(err.value) == message


def test_blow_up_down_round_trips_randomized():
    for _ in range(ROUND_TRIPS):
        n = RNG.randint(1, 6)
        g = chain(*[RNG.randint(-4, 0) for _ in range(n)])
        if RNG.random() < 0.5 or n == 1:
            center = f"v{RNG.randrange(n)}"
        else:
            i = RNG.randrange(n - 1)
            center = Edge(f"v{i}", f"v{i+1}")
        log = []
        up = blow_up(g, center, log, new_id="FRESH")
        down = blow_down(up, "FRESH")
        assert down == g
        assert log[0]["move"] == "blowup"


def test_replay_reproduces_recorded_sequence():
    g = chain(-2, -2, -3)
    log = []
    h = blow_up(g, Edge("v1", "v2"), log)
    h = blow_up(h, "v0", log)
    h = blow_down(h, log[1]["new_id"], log)
    assert replay(g, log) == h


# -- minimalization --------------------------------------------------------------


def test_superfluous_detection():
    g = chain(-2, -1, -3)
    assert is_superfluous(g, "v1")
    assert not is_superfluous(g, "v0")
    # a -1 vertex with three neighbors is kept
    vs = [Vertex("c", -1)] + [Vertex(f"a{i}", -2) for i in range(3)]
    star = WeightedGraph("divisor", vs, [Edge("c", f"a{i}") for i in range(3)])
    assert not is_superfluous(star, "c")


def test_snc_minimalize_contracts_tip():
    g = chain(-1, -1, -3)
    out, log = snc_minimalize(g)
    # v0 contracts, raising v1 to 0; nothing else is superfluous
    assert {vid: v.weight for vid, v in out.vertices.items()} == {"v1": 0, "v2": -3}
    assert [e["move"] for e in log] == ["blowdown"]
    assert snc_minimalize(out) == (out, [])


def test_snc_minimalize_cascades():
    # contracting the middle -1 turns v0 into a -1 tip, which contracts too
    g = chain(-2, -1, -3)
    out, log = snc_minimalize(g)
    assert {vid: v.weight for vid, v in out.vertices.items()} == {"v2": -1}
    assert [e["move"] for e in log] == ["blowdown", "blowdown"]
    assert snc_minimalize(out) == (out, [])


def test_snc_minimalize_idempotent():
    g = chain(-1, -2, -3)
    once, _ = snc_minimalize(g)
    twice, log = snc_minimalize(once)
    assert twice == once and log == []


# -- flows ----------------------------------------------------------------------


def test_flow_interior_matches_type_arithmetic():
    # [3,0,5] toward the 5-entry becomes [4,0,4]
    g = chain(-3, 0, -5)
    out = elementary_flow(g, "v1", toward="v2")
    assert [out.vertices[f"v{i}"].weight for i in range(3)] == [-4, 0, -4]


def test_flow_tip_is_weight_noop():
    g = chain(0, -3)
    log = []
    out = elementary_flow(g, "v0", toward="v1", log=log)
    assert out == g
    assert [e["move"] for e in log] == ["blowup", "blowdown"]


def test_flow_preserves_count_and_weight_sum_randomized():
    for _ in range(ROUND_TRIPS):
        n = RNG.randint(2, 7)
        weights = [RNG.randint(-5, 0) for _ in range(n)]
        i = RNG.randrange(n)
        weights[i] = 0
        g = chain(*weights)
        nbrs = g.neighbors(f"v{i}")
        toward = RNG.choice(nbrs)
        out = elementary_flow(g, f"v{i}", toward=toward)
        assert len(out.vertices) == len(g.vertices)
        assert sum(v.weight for v in out.vertices.values()) == sum(weights)


def test_flow_rejects_nonzero_or_branching_vertex():
    with pytest.raises(DomainError):
        elementary_flow(chain(-3, -1, -5), "v1", toward="v0")
    vs = [Vertex("c", 0)] + [Vertex(f"a{i}", -2) for i in range(3)]
    star = WeightedGraph("divisor", vs, [Edge("c", f"a{i}") for i in range(3)])
    with pytest.raises(DomainError):
        elementary_flow(star, "c", toward="a0")


# -- standard forms ---------------------------------------------------------------


def test_standard_linear_shapes():
    assert is_standard(chain(0, 0, 0)).standard          # [(0)_3]
    assert is_standard(chain(0, 0, -2, -5)).standard     # [(0)_2, 2, 5]
    assert is_standard(chain(-2, -2)).standard           # [2, 2]
    assert not is_standard(chain(0, -2)).standard        # odd zero block prefix
    assert not is_standard(chain(-1, -2)).standard       # entry 1 not allowed


def test_standard_circular_shapes():
    assert is_standard(cycle(0, 0, -2, -3)).standard     # ((0)_2, 2, 3)
    assert is_standard(cycle(0, 0, -1, -1)).standard     # ((0)_2, 1, 1)
    assert is_standard(cycle(0, 0, 0)).standard          # all-zero cycle
    assert is_standard(cycle(-2, -2, -2)).standard       # ((2)_3): zero 0-block
    assert not is_standard(cycle(0, -2, -3)).standard    # odd 0-block
    assert not is_standard(cycle(0, -1, -1)).standard    # 1-entries need (0)_2k


def segment(vertices, chain_type, circular=False):
    return {"vertices": vertices, "type": chain_type, "circular": circular,
            "standard": True}


@pytest.mark.parametrize("d1, d2, want", [
    # one cycle, from its least vertex toward that vertex's least neighbour
    (1, 1, {"standard": True, "branching": [], "segments": [
        segment(["L1_0", "L2_0", "L1_inf", "L2_inf"], "(0,0,1,1)", True)]}),
    # a bridge, and two twigs run tip first, in the order of their vertices
    (2, 3, {"standard": True, "branching": ["L1_0", "L2_0"], "segments": [
        segment(["L1_inf", "L2_inf"], "[0,0]"), segment(["T1_01"], "[2]"),
        segment(["T2_02", "T2_01"], "[2,2]")]}),
])
def test_standard_report_json_of_the_boundary_d_parts(d1, d2, want):
    report = is_standard(build_boundary_graph(d1, d2).d_part())
    assert report.to_json_dict() == want
    assert json.dumps(report.to_json_dict()) == json.dumps(want)


def test_search_caps_admit_up_to_their_bounds():
    """The real caps, for the (2,3) D-part's 7 vertices and largest |weight|
    2: at most 11 vertices and |weight| at most 8."""
    caps = _SearchCaps(build_boundary_graph(2, 3).d_part())
    assert (caps.max_vertices, caps.max_abs_weight) == (11, 8)
    assert caps.admits(11, [-8, 8, 0])
    assert not caps.admits(12, [0])
    assert not caps.admits(11, [-9])
    assert not caps.admits(1, [9])


def test_standardize_zero_chain():
    g = chain(-3, 0, -5)
    out, log = standardize(g)
    rep = is_standard(out)
    assert rep.standard
    assert len(out.vertices) == 3
    assert sum(1 for e in log if e["move"] == "flow") >= 1


def test_standardize_idempotent_up_to_iso():
    g = chain(-3, 0, -5)
    once, _ = standardize(g)
    twice, _ = standardize(once)
    assert graphs_isomorphic(once, twice)[0]


PINS = Path(__file__).parent / "data" / "standardize_pins.json"
PIN_FLOWS = (("L1_inf", "L2_inf"), ("L1_inf", "L2_0"),
             ("L2_inf", "L1_inf"), ("L2_inf", "L1_0"))


def standardize_pins() -> dict:
    """`standardize` on the (1,1), (2,3), (3,4) and (4,5) D-parts moved
    1-3 elementary flows along each flow, ids as built: name -> output
    graph and log.  The (1,1) D-part is a 4-cycle with no branching vertex, and
    each of its runs ends in an inner blowup on that cycle.

    Regenerate the frozen file only on purpose:
    ``PYTHONPATH=src:tests python -c "import test_divisor as t;
    t.PINS.write_text(canonical_json(t.standardize_pins()))"``
    """
    out = {}
    for d1, d2 in ((1, 1), (2, 3), (3, 4), (4, 5)):
        for zero, toward in PIN_FLOWS:
            g = build_boundary_graph(d1, d2).d_part()
            for steps in (1, 2, 3):
                g = elementary_flow(g, zero, toward)
                std, log = standardize(g)
                out[f"({d1},{d2}) {zero}->{toward} x{steps}"] = {
                    "graph": std.to_json_dict(), "log": log}
    return out


def test_standardize_matches_frozen_pins():
    """Byte for byte: any change in the search's visit order, the
    canonical encoding it prunes with or the moves it logs shows here."""
    frozen = json.loads(PINS.read_text())
    now = standardize_pins()
    assert sorted(now) == sorted(frozen)
    for name, pin in frozen.items():
        assert canonical_json(now[name]["graph"]) == canonical_json(pin["graph"]), name
        assert canonical_json(now[name]["log"]) == canonical_json(pin["log"]), name


# The search as it was when it pruned every child as the child was made,
# kept verbatim as the reference the expansion-time search must match.
def oracle_standardize(g: WeightedGraph) -> tuple[WeightedGraph, list]:
    """snc-minimalize, then search for a standard form by breadth-first
    exploration of contractions, flows and bounded blowups.

    The search caps vertex count and weights near the input's own size,
    uses canonical encodings to prune revisits, and gives up loudly
    after a fixed move budget (a strategy failure, never a proof that no
    standard form exists).
    """
    _require_divisor(g, "standardize")
    cur, log = snc_minimalize(g)
    if is_standard(cur).standard:
        return cur, log

    caps = _SearchCaps(cur)
    seen = {canonical_encoding(cur)}
    queue = deque([(cur, tuple(log))])
    expansions = 0
    while queue:
        state, state_log = queue.popleft()
        for move in search_moves(state):
            expansions += 1
            if expansions > caps.budget:
                raise DomainError(
                    "standardize: move budget exhausted "
                    "(strategy: minimalize, then BFS over blowdowns, flows "
                    "and bounded blowups); this indicates a strategy gap, "
                    "not a certified negative"
                )
            sub: list = []
            try:
                nxt = apply_move(state, move, sub)
            except DomainError:
                continue
            if not caps.admits(len(nxt.vertices),
                               [v.weight for v in nxt.vertices.values()]):
                continue
            enc = canonical_encoding(nxt)
            if enc in seen:
                continue
            seen.add(enc)
            nxt_log = state_log + tuple(sub)
            if is_standard(nxt).standard:
                return nxt, list(nxt_log)
            queue.append((nxt, nxt_log))
    raise DomainError(
        "standardize: search space exhausted under caps "
        "(strategy: minimalize, then BFS over blowdowns, flows and bounded "
        "blowups); this indicates a strategy gap, not a certified negative"
    )


def assert_matches_oracle(g):
    """Same graph bytes and log, or the same DomainError with the search's
    progress put in after its prefix."""
    try:
        want = oracle_standardize(g)
    except DomainError as e:
        with pytest.raises(DomainError) as got:
            standardize(g)
        prefix, _, rest = str(e).partition(" (strategy")
        assert str(got.value).startswith(prefix + " after ")
        assert str(got.value).endswith(" (strategy" + rest)
        return
    out, log = standardize(g)
    assert canonical_json(out.to_json_dict()) == canonical_json(want[0].to_json_dict())
    assert canonical_json(log) == canonical_json(want[1])


def flowed_dpart(d1, d2, zero, toward, steps):
    g = build_boundary_graph(d1, d2).d_part()
    for _ in range(steps):
        g = elementary_flow(g, zero, toward)
    return g


@pytest.mark.parametrize("d1, d2", [(1, 2), (2, 3), (3, 4), (4, 5)])
@pytest.mark.parametrize("zero, toward", PIN_FLOWS)
def test_standardize_matches_the_generation_time_oracle(d1, d2, zero, toward):
    """Pruning revisits when a state is expanded, not when it is made,
    returns what pruning each child as it was made returned."""
    for steps in (1, 2, 3):
        assert_matches_oracle(flowed_dpart(d1, d2, zero, toward, steps))


@st.composite
def divisor_trees(draw, min_vertices=2):
    n = draw(st.integers(min_vertices, 7))
    vs = [Vertex(f"v{i}", draw(st.integers(-4, 2))) for i in range(n)]
    es = [Edge(f"v{i}", f"v{draw(st.integers(0, i - 1))}") for i in range(1, n)]
    return WeightedGraph("divisor", vs, es)


@st.composite
def divisor_graphs_with_cycles(draw):
    """Connected divisor graphs on 3-7 vertices with at least one cycle: a
    tree plus one to three more edges."""
    tree = draw(divisor_trees(min_vertices=3))
    ids = tree.sorted_ids()
    rest = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]
            if Edge(a, b) not in tree.edges]
    extra = draw(st.sets(st.sampled_from(rest), min_size=1, max_size=3))
    return WeightedGraph("divisor", tree.vertices.values(),
                         [*tree.edges, *(Edge(a, b) for a, b in extra)])


def scan_snc_minimalize(g):
    """snc_minimalize as it was before its heap: every id is tested again
    after each blowdown.  The reference the heap version must match."""
    log = []
    cur = g
    while True:
        vid = next((v for v in cur.sorted_ids() if is_superfluous(cur, v)), None)
        if vid is None:
            return cur, log
        cur = blow_down(cur, vid, log)


@st.composite
def minus_one_graphs(draw):
    """Divisor graphs on up to 9 vertices, most weights -1 or -2, a few
    vertices with boundary."""
    ids = [f"n{i}" for i in range(draw(st.integers(1, 9)))]
    vs = [Vertex(x, draw(st.sampled_from([-1, -1, -1, -2, -2, 0])), 0,
                 draw(st.sampled_from([0, 0, 0, 0, 1]))) for x in ids]
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    chosen = draw(st.sets(st.sampled_from(pairs), max_size=12)) if pairs else ()
    return WeightedGraph("divisor", vs, [Edge(a, b) for a, b in chosen])


def assert_same_minimalization(g):
    out, log = snc_minimalize(g)
    ref_out, ref_log = scan_snc_minimalize(g)
    assert log == ref_log
    assert list(out.vertices.items()) == list(ref_out.vertices.items())
    assert out.edges == ref_out.edges


@settings(max_examples=300, deadline=None)
@given(st.one_of(minus_one_graphs(), divisor_graphs_with_cycles(), divisor_trees()))
# the full boundary graphs standardize minimalizes first: 2, 5, 17 and 97
# blowdowns; the (1,1) D-part: 1
@example(build_boundary_graph(1, 1).graph)
@example(build_boundary_graph(2, 3).graph)
@example(build_boundary_graph(8, 9).graph)
@example(build_boundary_graph(48, 49).graph)
@example(build_boundary_graph(1, 1).d_part())
def test_snc_minimalize_matches_the_rescan(g):
    assert_same_minimalization(g)


@pytest.mark.parametrize("minus_one_first", [True, False])
def test_snc_minimalize_matches_the_rescan_on_a_long_chain(minus_one_first):
    """The 1 000-vertex chain (-1, -2, ..., -2) blows down to one vertex,
    from either end of the id order."""
    weights = [-1] + [-2] * 999
    g = chain(*(weights if minus_one_first else reversed(weights)))
    assert_same_minimalization(g)
    assert len(snc_minimalize(g)[1]) == 999


def test_only_reduce_runs_a_heap():
    """`plumbing._reduce` is the one reduction loop of `divisor` and
    `plumbing`: no other code there pushes or pops a heap."""
    callers = set()
    for mod in divisor, plumbing:
        for top in ast.parse(Path(mod.__file__).read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                func = node.func if isinstance(node, ast.Call) else None
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in ("heappop", "heappush"):
                    where = getattr(top, "name", "<module>")
                    callers.add(f"{mod.__name__.split('.')[-1]}.{where}")
    assert callers == {"plumbing._reduce"}


def test_only_site_moves_makes_blowdown_and_flow_entries():
    """`_site_moves` is the one place in `divisor` that makes the search's
    blowdown and flow entries: no other code there builds such a dict,
    apart from the moves' own `log.append` calls."""
    module = ast.parse(Path(divisor.__file__).read_text(encoding="utf-8"))
    logged = {id(arg) for node in ast.walk(module) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute) and node.func.attr == "append"
              and getattr(node.func.value, "id", None) == "log" for arg in node.args}
    builders = set()
    for top in module.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Dict) and id(node) not in logged and any(
                    getattr(k, "value", None) == "move"
                    and getattr(v, "value", None) in ("blowdown", "flow")
                    for k, v in zip(node.keys, node.values)):
                builders.add(getattr(top, "name", "<module>"))
    assert builders == {"_site_moves"}


def test_the_reductions_apply_the_moves_rebound_on_their_modules(monkeypatch):
    """snc_minimalize and normalize look their moves up on their modules
    when called, so a wrapper rebound there, as `perfbench/tracing.py`
    rebinds them, sees each move once per log entry it makes."""
    calls = Counter()
    for mod, name, move in ((divisor, "blow_down", "blowdown"),
                            (plumbing, "move_R1", "R1"), (plumbing, "move_R3", "R3")):
        def counted(*args, _move=getattr(mod, name), _name=move, **kwargs):
            calls[_name] += 1
            return _move(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    r1_then_r3 = WeightedGraph(
        "plumbing", [Vertex("u", -2), Vertex("z", 0), Vertex("w", -3), Vertex("a", -1)],
        [Edge("u", "z"), Edge("z", "w"), Edge("w", "a")])
    runs = [lambda g=build_boundary_graph(*pair).graph: snc_minimalize(g)[1]
            for pair in ((1, 1), (2, 3), (8, 9))]
    runs += [lambda: normalize(build_boundary_graph(2, 3).d_part()).log,
             lambda: normalize(r1_then_r3).log]
    for run in runs:
        calls.clear()
        log = run()
        assert log and calls == Counter(entry["move"] for entry in log)


def assert_matches_oracle_under_tight_caps(g, slack):
    """With a lowered budget, and caps tightened by `slack` vertices so
    that some searches run out of states before they run out of moves."""
    admits = _SearchCaps.admits
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_SearchCaps, "budget", 1000)
        mp.setattr(_SearchCaps, "admits", lambda caps, n, weights: (
            n <= caps.max_vertices - slack and admits(caps, n, weights)))
        assert_matches_oracle(g)


@settings(max_examples=60, deadline=None)
@given(divisor_trees(), st.integers(0, 4))
@example(chain(1, -1, 2), 0)
@example(chain(-3, 0, -5), 0)
@example(chain(0, 0, 2), 0)   # exhausts the budget
@example(chain(1, 1), 4)      # exhausts the search space
def test_standardize_matches_the_oracle_on_trees(g, slack):
    assert_matches_oracle_under_tight_caps(g, slack)


@settings(max_examples=40, deadline=None)
@given(divisor_graphs_with_cycles(), st.integers(0, 4))
@example(cycle(0, 0, -1, -1), 0)
@example(cycle(0, -2, -3), 0)
@example(flowed_dpart(1, 1, "L1_inf", "L2_0", 2), 0)
def test_standardize_matches_the_oracle_on_graphs_with_cycles(g, slack):
    """Circular chains, where a blowup child can be standard."""
    assert_matches_oracle_under_tight_caps(g, slack)


def relabeled(g, rng):
    ids = list(g.vertices)
    rng.shuffle(ids)
    relabel = {old: f"m{k}" for k, old in enumerate(ids)}
    return WeightedGraph(
        g.kind,
        [Vertex(relabel[v.id], v.weight, v.genus, v.boundary) for v in g.vertices.values()],
        [Edge(relabel[e.u], relabel[e.v], e.sign) for e in g.edges],
    )


@st.composite
def decorated_graphs(draw):
    """Divisor graphs with cycles, and plumbing multigraphs with loops and
    signed parallel edges; some vertices carry genus or boundary."""
    ids = [f"n{i}" for i in range(draw(st.integers(1, 7)))]
    deco = st.sampled_from([0, 0, 0, 1])
    vs = [Vertex(x, draw(st.integers(-4, 2)), draw(deco), draw(deco)) for x in ids]
    if draw(st.booleans()):
        pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
        chosen = draw(st.sets(st.sampled_from(pairs), max_size=9)) if pairs else ()
        return WeightedGraph("divisor", vs, [Edge(a, b) for a, b in chosen])
    edge = st.builds(Edge, st.sampled_from(ids), st.sampled_from(ids),
                     st.sampled_from([1, -1]))
    return WeightedGraph("plumbing", vs, draw(st.lists(edge, max_size=10)))


@settings(max_examples=300, deadline=None)
@given(decorated_graphs(), st.randoms(use_true_random=False))
@example(cycle(0, 0, -1, -1), random.Random(1))
@example(cycle(0, -2, -3), random.Random(1))
@example(build_boundary_graph(3, 4).d_part(), random.Random(1))
def test_goal_test_is_is_standard_and_invariant_under_relabeling(g, rng):
    """The search's goal test is `is_standard`, and standardness does not
    depend on vertex names: the argument that pruning on expansion keeps
    the result rests on this."""
    verdict = is_standard(g).standard
    assert (not divisor._survey(g)[1]) == verdict
    for _ in range(5):
        assert is_standard(relabeled(g, rng)).standard == verdict


def assert_unbuilt_children_are_not_standard(g, kinds):
    """The search queues a child of g made by one of these kinds of move
    without building it only when the child is not standard, and its goal
    test on a child it builds is `is_standard`."""
    survey = divisor._survey(g)
    assert (not survey[1]) == is_standard(g).standard
    for entry in search_moves(g):
        if entry["move"] not in kinds:
            continue
        touched = divisor._could_be_standard(g, entry, survey)
        child = apply_move(g, entry)
        if touched is None:
            assert is_standard(child).standard is False, entry
        else:
            assert (not divisor._survey(child, touched)[1]) == is_standard(
                child).standard


ANY_DIVISOR_GRAPH = (divisor_trees() | divisor_graphs_with_cycles()
                     | decorated_graphs().filter(lambda g: g.kind == "divisor"))


@settings(max_examples=200, deadline=None)
@given(ANY_DIVISOR_GRAPH)
@example(cycle(0, -1, -2))
@example(flowed_dpart(2, 3, "L1_inf", "L2_0", 2))
def test_apply_move_accepts_every_search_move(g):
    """`standardize` builds children with no DomainError handler: every
    move the search tries on a divisor graph is one `apply_move` accepts."""
    for entry in search_moves(g):
        log = []
        child = apply_move(g, entry, log)
        assert child.kind == "divisor" and replay(g, log) == child


@settings(max_examples=200, deadline=None)
@given(ANY_DIVISOR_GRAPH)
@example(cycle(-1, -2, -3))
@example(tree([-1, -1, 0, -2, -1], [(0, 1), (0, 2), (2, 3), (3, 4)]))
@example(WeightedGraph("divisor", [Vertex("a", -1), Vertex("b", -1, boundary=1)], []))
def test_divisor_moves_are_plumbing_moves_on_the_plumbing_reading(g):
    """A divisor blowdown is R1 with eps = -1 on the graph read as a
    plumbing graph, a blowup is the eps = -1 insertion that R1 undoes,
    and a vertex is superfluous exactly when it has a neighbour and
    blows down."""
    pg = from_divisor_graph(g)
    for vid in g.sorted_ids():
        try:
            down = from_divisor_graph(blow_down(g, vid))
        except DomainError:
            down = None
        else:
            assert down == move_R1(pg, vid)
        assert is_superfluous(g, vid) == (down is not None and bool(g.neighbors(vid)))
    for at in [*g.sorted_ids(), *g.edges]:
        assert from_divisor_graph(blow_up(g, at, new_id="E")) == _insert(pg, at, -1, "E")


@settings(max_examples=200, deadline=None)
@given(ANY_DIVISOR_GRAPH)
@example(flowed_dpart(1, 1, "L1_inf", "L2_0", 2))
@example(cycle(0, -2, -3))
def test_blowups_the_search_leaves_unbuilt_cannot_be_standard(g):
    assert_unbuilt_children_are_not_standard(g, {"blowup"})


@settings(max_examples=200, deadline=None)
@given(ANY_DIVISOR_GRAPH)
# blowing down the (-1)-tip v1 unbranches v0 and joins the non-standard
# chain [0, 2] of v2, v3 to the zeros of v4, v5: [0, 0, 0, 0, 2] is standard
@example(tree([-1, -1, 0, -2, 0, 0], [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5)]))
# the flow on v0 reweights only the branching vertices v1 and v2
@example(tree([0, -1, -2, -1, -3, -2, 0], [(0, 1), (0, 2), (1, 3), (1, 4),
                                            (2, 5), (2, 6)]))
@example(flowed_dpart(2, 3, "L1_inf", "L2_0", 2))
def test_flows_and_blowdowns_the_search_leaves_unbuilt_cannot_be_standard(g):
    """A parent chain that misses the move's touched set is a chain of the
    child with the same entries, so a non-standard one there makes the
    child non-standard."""
    assert_unbuilt_children_are_not_standard(g, {"flow", "blowdown"})


def same_survey(got, want):
    """Surveys compared as sets of chains: the circular union, the
    non-standard chains and the cycles."""
    assert got[0] == want[0]
    assert set(got[1]) == set(want[1]) and len(got[1]) == len(want[1])
    assert set(got[2]) == set(want[2]) and len(got[2]) == len(want[2])


@settings(max_examples=300, deadline=None)
@given(ANY_DIVISOR_GRAPH)
@example(build_boundary_graph(1, 1).d_part())  # a 4-cycle
@example(cycle(0, -2, -3))
@example(flowed_dpart(2, 3, "L1_inf", "L2_0", 2))
def test_child_survey_inherited_from_the_parent_is_the_whole_survey(g):
    """For every search move, the parent's chains that miss the touched
    set plus the child's chains through it are the child's chains: only
    the input of a search is surveyed whole."""
    survey = divisor._survey(g)
    for entry in search_moves(g):
        child = apply_move(g, entry)
        touched = divisor._touched(g, entry)
        same_survey(divisor._child_survey(survey, touched, child),
                    divisor._survey(child))


@settings(max_examples=300, deadline=None)
@given(ANY_DIVISOR_GRAPH)
@example(build_boundary_graph(1, 1).d_part())  # a 4-cycle
@example(cycle(0, -2, -3))
@example(flowed_dpart(2, 3, "L1_inf", "L2_0", 2))
def test_candidates_are_the_moves_that_could_be_standard(g):
    """The candidate scan makes exactly the search moves, the
    `_site_moves` list followed by the `_blowups`, that
    `_could_be_standard` admits, at their indices, with their touched
    sets, and the move count len(list) + |E| + |V| counts every move."""
    survey, moves = divisor._survey(g), _site_moves(g)
    order = search_moves(g)
    assert len(moves) + len(g.edges) + len(g.vertices) == len(order)
    want = [(i, entry, touched) for i, entry in enumerate(order)
            if (touched := divisor._could_be_standard(g, entry, survey)) is not None]
    assert list(divisor._candidates(g, moves, survey)) == want


def test_search_moves_come_in_a_fixed_order():
    """The blowdowns come before the flows, whatever the ids, and the flow
    on a 0-vertex runs toward each neighbour in order; a 0-vertex at a tip
    has none.  Then the inner blowups in edge order, the outer ones in id
    order."""
    g = chain(-2, 0, -3, -1, -2, 0)
    assert _site_moves(g) == [{"move": "blowdown", "vertex": "v3"},
                              {"move": "flow", "vertex": "v1", "toward": "v0"},
                              {"move": "flow", "vertex": "v1", "toward": "v2"}]
    assert list(_blowups(g)) == [
        *({"move": "blowup", "center": {"edge": [f"v{i}", f"v{i + 1}"]}} for i in range(5)),
        *({"move": "blowup", "center": {"vertex": f"v{i}"}} for i in range(6))]


def test_standardize_encodes_only_states_whose_key_was_expanded(monkeypatch):
    """A state is canonically encoded only when a state expanded before it
    has the same `isomorphism_key`: either the state taken from the queue,
    whose key was already seen, or that earlier state, encoded lazily."""
    expanded_keys, encoded_keys, expanded = set(), [], []

    def expanding(h):
        expanded.append(h)
        expanded_keys.add(isomorphism_key(h))
        return _site_moves(h)

    def encoding(h):
        encoded_keys.append(isomorphism_key(h))
        assert encoded_keys[-1] in expanded_keys
        return canonical_encoding(h)

    monkeypatch.setattr(divisor, "_site_moves", expanding)
    monkeypatch.setattr(divisor, "canonical_encoding", encoding)
    standardize(flowed_dpart(3, 4, "L1_inf", "L2_0", 3))
    # 43 encodings, one per state taken from the queue, when every state
    # was encoded; 882 when every child was
    assert 0 < len(encoded_keys) < len(expanded)  # 21 against 40 now


@settings(max_examples=200, deadline=None)
@given(ANY_DIVISOR_GRAPH, st.randoms(use_true_random=False))
def test_isomorphism_key_is_unchanged_by_relabelling(g, rnd):
    ids = g.sorted_ids()
    names = dict(zip(ids, rnd.sample([f"r{i}" for i in range(len(ids))], len(ids))))
    h = WeightedGraph(
        g.kind,
        [Vertex(names[v.id], v.weight, v.genus, v.boundary) for v in g.vertices.values()],
        [Edge(names[e.u], names[e.v], e.sign) for e in g.edges],
    )
    assert isomorphism_key(h) == isomorphism_key(g)


def test_standardize_expands_non_isomorphic_states_that_share_a_key(monkeypatch):
    """The chains (-1, -4, -1, 0, -3) and (-1, -4, 0, -1, -3) have the same
    isomorphism key and are not isomorphic, and the search from
    (-2, 1, -3) meets both: neither may be pruned as a revisit of the
    other."""
    a, b = chain(-1, -4, -1, 0, -3), chain(-1, -4, 0, -1, -3)
    assert isomorphism_key(a) == isomorphism_key(b)
    assert graphs_isomorphic(a, b) == (False, None)
    expanded = []
    monkeypatch.setattr(divisor, "_site_moves",
                        lambda h: expanded.append(h) or _site_moves(h))
    standardize(chain(-2, 1, -3))
    encodings = [canonical_encoding(h) for h in expanded]
    assert canonical_encoding(a) in encodings
    assert canonical_encoding(b) in encodings


def renamed(g: WeightedGraph, rng: random.Random) -> WeightedGraph:
    """g with seeded four-letter ids that sort as its own ids do, the way
    the benchmark's `search` workload names its inputs."""
    names: set = set()
    while len(names) < len(g.vertices):
        names.add("".join(rng.choice(string.ascii_lowercase) for _ in range(4)))
    new = dict(zip(g.sorted_ids(), sorted(names)))
    return WeightedGraph(
        "divisor",
        [Vertex(new[v.id], v.weight, v.genus, v.boundary) for v in g.vertices.values()],
        [Edge(new[e.u], new[e.v], e.sign) for e in g.edges],
    )


def test_standardize_with_a_constant_key_matches_the_real_key(monkeypatch):
    """With a constant isomorphism key every state taken from the queue
    after the first collides, so every one is canonically encoded, as
    when revisits were pruned by their encodings alone.  The real key
    gives the same graph, log and number of expanded states on every
    pinned input and on the `search` workload's 36 renamed inputs."""
    pinned = [flowed_dpart(d1, d2, zero, toward, steps)
              for d1, d2 in ((1, 1), (2, 3), (3, 4), (4, 5))
              for zero, toward in PIN_FLOWS for steps in (1, 2, 3)]
    rng = random.Random(401)
    inputs = pinned + [renamed(g, rng) for g in pinned[12:]]

    def outcomes():
        out = []
        for g in inputs:
            expanded = []
            monkeypatch.setattr(divisor, "_site_moves",
                                lambda h: expanded.append(h) or _site_moves(h))
            std, log = standardize(g)
            out.append((canonical_json(std.to_json_dict()), canonical_json(log),
                        len(expanded)))
        return out

    real = outcomes()
    monkeypatch.setattr(divisor, "isomorphism_key", lambda h: ())
    assert outcomes() == real


def test_standardize_pays_only_for_the_children_it_pops(monkeypatch):
    """A child that cannot be standard is built and checked against the
    caps only when it is taken from its parent's queue entry, and a child
    that could be standard is built once, when its parent is expanded,
    not again when it is taken."""
    taken, checks, candidates, builds = [], [], [], []

    def walking(h):
        for entry in _blowups(h):
            taken.append(entry)
            yield entry

    def taking(h):  # called as an entry is taken, before its list is walked
        taken.extend(_site_moves(h))
        return walking(h)

    admits, could_be_standard = _SearchCaps.admits, divisor._could_be_standard

    def noting_candidates(*a):
        touched = could_be_standard(*a)
        if touched is not None:
            candidates.append(touched)
        return touched

    monkeypatch.setattr(divisor, "_blowups", taking)
    monkeypatch.setattr(_SearchCaps, "admits",
                        lambda caps, *a: checks.append(a) or admits(caps, *a))
    monkeypatch.setattr(divisor, "_could_be_standard", noting_candidates)
    monkeypatch.setattr(divisor, "apply_move",
                        lambda *a: builds.append(a) or apply_move(*a))
    standardize(flowed_dpart(4, 5, "L1_inf", "L2_0", 3))
    # 1 253 caps checks, one per move tried, and 81 builds when every
    # child was checked as it was made and rebuilt when taken; 75 checks
    # against 50 children taken and 31 candidates now
    assert 0 < len(checks) <= len(taken) + len(candidates)
    assert 0 < len(builds) < 81


def test_standardize_builds_few_blowup_children(monkeypatch):
    """Blowup children that cannot be standard are queued unbuilt, so the
    search builds fewer blowups than it expands states, not one per
    blowup move tried."""
    blowups, expanded = [], []
    real = divisor.blow_up
    monkeypatch.setattr(divisor, "blow_up", lambda *a: blowups.append(a) or real(*a))
    monkeypatch.setattr(divisor, "_site_moves",
                        lambda h: expanded.append(h) or _site_moves(h))
    standardize(flowed_dpart(4, 5, "L1_inf", "L2_0", 3))
    # 1 164 blowups against 48 expanded states when all were built; 44 now
    assert 0 < len(blowups) <= len(expanded)


def test_standardize_builds_few_flow_and_blowdown_children(monkeypatch):
    """A flow or blowdown child that keeps a non-standard chain of its
    parent is queued unbuilt, so the search builds about one flow or
    blowdown per expanded state (the build of a state queued unbuilt
    included)."""
    built, expanded = [], []
    for name in ("elementary_flow", "blow_down"):
        real = getattr(divisor, name)
        monkeypatch.setattr(divisor, name,
                            lambda *a, real=real: built.append(a) or real(*a))
    monkeypatch.setattr(divisor, "_site_moves",
                        lambda h: expanded.append(h) or _site_moves(h))
    standardize(flowed_dpart(4, 5, "L1_inf", "L2_0", 3))
    # 92 flows + 47 blowdowns against 48 expanded states when all were
    # built; 14 + 17 now
    assert 0 < len(built) <= len(expanded) + 1


def test_standardize_errors_say_how_far_the_search_got(monkeypatch):
    expanded = []

    monkeypatch.setattr(divisor, "_site_moves",
                        lambda h: expanded.append(h) or _site_moves(h))
    monkeypatch.setattr(_SearchCaps, "budget", 50)
    with pytest.raises(DomainError) as e:
        standardize(chain(0, 0, 2))
    assert str(e.value).startswith(
        f"standardize: move budget exhausted after 50 of 50 moves tried, "
        f"{len(expanded)} states expanded (strategy: ")

    expanded.clear()
    monkeypatch.setattr(_SearchCaps, "admits", lambda caps, n, weights: n <= 2)
    with pytest.raises(DomainError) as e:
        standardize(chain(1, 1))
    assert str(e.value).startswith(
        f"standardize: search space exhausted under caps after "
        f"{sum(len(search_moves(h)) for h in expanded)} of 50 moves "
        f"tried, {len(expanded)} states expanded (strategy: ")


# flowed_dpart arguments -> {lowered budget: states expanded when it ran out}
SEARCH_PATH_PINS = {
    (2, 3, "L1_inf", "L2_0", 6): {200: 12, 2_000: 100, 20_000: 892},
    (4, 5, "L1_inf", "L2_0", 5): {200: 8, 2_000: 75, 20_000: 689},
    (3, 4, "L2_inf", "L1_0", 6): {200: 10, 2_000: 86, 20_000: 786},
    (1, 2, "L1_inf", "L2_inf", 6): {200: 17, 2_000: 143, 20_000: 1198},
}


@pytest.mark.parametrize("flowed, budget, expanded", [
    (flowed, budget, expanded)
    for flowed, table in SEARCH_PATH_PINS.items()
    for budget, expanded in table.items()
], ids=lambda x: "-".join(map(str, x)) if isinstance(x, tuple) else str(x))
def test_standardize_search_path_pins(monkeypatch, flowed, budget, expanded):
    """How far the search gets on D-parts it cannot standardize within a
    lowered budget: the moves tried and the states expanded, pinned from
    the search that canonically encoded every state it took from the
    queue.  A change to the revisit test that expands other states, or
    the same states in another order, moves a count here."""
    monkeypatch.setattr(_SearchCaps, "budget", budget)
    with pytest.raises(DomainError) as err:
        standardize(flowed_dpart(*flowed))
    assert str(err.value) == (
        f"standardize: move budget exhausted after {budget} of {budget} moves "
        f"tried, {expanded} states expanded (strategy: minimalize, then BFS "
        "over blowdowns, flows and bounded blowups); this indicates a "
        "strategy gap, not a certified negative"
    )


# The search before its child lists were lazy, kept verbatim with the survey
# and candidate test it used: every child is made when its parent is
# expanded, and the ones that cannot be standard are queued unbuilt.
def parent_survey(g: WeightedGraph, starts=None) -> tuple:
    starts = g.vertices if starts is None else [x for x in starts if x in g.vertices]
    circular: set = set()
    nonstandard = []
    for order, is_circular in _chains_through(g, branching_set(g), starts):
        if is_circular:
            circular.update(order)
        entries = _entries(g, order)
        if not (_circular_standard if is_circular else _linear_standard)(entries):
            nonstandard.append(frozenset(order))
    return circular, nonstandard


def parent_could_be_standard(g: WeightedGraph, entry: dict, survey: tuple):
    around = g.around
    circular, nonstandard = survey
    kind = entry["move"]
    if kind == "blowup":
        touched = entry["center"].get("edge")
        if touched is None or not circular.issuperset(touched):
            return None
    elif kind == "flow":
        t = entry["toward"]
        (a, _), (b, _) = around[entry["vertex"]]
        touched = (t, b if a == t else a)
    else:
        v = entry["vertex"]
        nbrs = [x for x, _ in around[v]]
        touched = {v, *nbrs}
        if len(nbrs) == 1:
            touched.update(x for x, _ in around[nbrs[0]])
    if any(chain.isdisjoint(touched) for chain in nonstandard):
        return None
    return touched


def parent_standardize(g: WeightedGraph) -> tuple[WeightedGraph, list]:
    _require_divisor(g, "standardize")
    cur, log = snc_minimalize(g)
    if not parent_survey(cur)[1]:
        return cur, log

    caps = _SearchCaps(cur)
    seen: dict = {}
    # (graph, log, None) for a built state; (parent, parent's log, move)
    # for a child queued unbuilt
    queue = deque([(cur, tuple(log), None)])
    tried = expanded = 0
    while queue:
        state, state_log, move = queue.popleft()
        if move is not None:
            built = _build(state, state_log, move, caps)
            if built is None:
                continue
            state, state_log = built
        if _is_revisit(seen, state):
            continue
        expanded += 1
        survey = parent_survey(state)
        for move in search_moves(state):
            tried += 1
            if tried > caps.budget:
                raise DomainError(
                    "standardize: move budget exhausted after "
                    f"{caps.budget} of {caps.budget} moves tried, "
                    f"{expanded} states expanded {_STRATEGY}"
                )
            touched = parent_could_be_standard(state, move, survey)
            if touched is None:
                queue.append((state, state_log, move))
                continue
            built = _build(state, state_log, move, caps)
            if built is None:
                continue
            nxt, nxt_log = built
            if not parent_survey(nxt, touched)[1]:
                return nxt, list(nxt_log)
            queue.append((nxt, nxt_log, None))
    raise DomainError(
        "standardize: search space exhausted under caps after "
        f"{tried} of {caps.budget} moves tried, {expanded} states expanded "
        f"{_STRATEGY}"
    )


def outcome(search, g):
    """(graph bytes, log bytes), or the error string."""
    try:
        out, log = search(g)
    except DomainError as e:
        return str(e)
    return canonical_json(out.to_json_dict()), canonical_json(log)


def least_budget(g: WeightedGraph) -> int:
    """The least budget with which the eager search finds a standard form
    of g: one less, and it runs out at the move that finds it."""
    lo, hi = 1, _SearchCaps.budget
    with pytest.MonkeyPatch.context() as mp:
        while lo < hi:
            mid = (lo + hi) // 2
            mp.setattr(_SearchCaps, "budget", mid)
            if isinstance(outcome(parent_standardize, g), str):
                lo = mid + 1
            else:
                hi = mid
    return lo


@pytest.mark.parametrize("d1, d2", [(2, 3), (3, 4), (4, 5)])
@pytest.mark.parametrize("zero, toward", PIN_FLOWS)
def test_standardize_matches_the_eager_search_at_every_budget(monkeypatch, d1, d2,
                                                              zero, toward):
    """With the budget anywhere from 1 to 400 moves, and at the least
    budget that finds a standard form and one less, the lazy child lists
    give the graph, log or error string of the search that made every
    child when it expanded the parent: the budget is counted per expanded
    state, and only candidates below the remaining room are built."""
    g = flowed_dpart(d1, d2, zero, toward, 3)
    least = least_budget(g)
    for budget in [*range(1, 401, 7), least - 1, least]:
        monkeypatch.setattr(_SearchCaps, "budget", budget)
        assert outcome(standardize, g) == outcome(parent_standardize, g), budget


SEARCH_GUARD_INPUTS = [flowed_dpart(d1, d2, zero, toward, 3)
                       for d1, d2 in ((1, 1), (2, 3), (3, 4), (4, 5))
                       for zero, toward in PIN_FLOWS] + [chain(-3, 0, -5), chain(0, 0, 2)]


def test_standardize_surveys_only_its_input_whole(monkeypatch):
    """Each call walks the whole graph once, on its snc-minimalized input;
    every other survey is of the chains through a move's touched set."""
    whole = []
    survey = divisor._survey
    monkeypatch.setattr(divisor, "_survey", lambda h, starts=None: (
        starts is None and whole.append(h)) or survey(h, starts))
    monkeypatch.setattr(_SearchCaps, "budget", 2_000)
    for g in SEARCH_GUARD_INPUTS:
        whole.clear()
        try:
            standardize(g)
        except DomainError:
            pass
        assert whole == [snc_minimalize(g)[0]]


def test_standardize_enumerates_the_moves_once_per_entry_taken(monkeypatch):
    """The move order is finished, by `_blowups` after the entry's list,
    once for each queue entry taken, to make its children, and never when
    a state is expanded: expanding a state makes only its `_site_moves`
    list and its candidates."""
    pops, enumerations = [], []

    class CountingDeque(deque):
        def popleft(self):
            entry = super().popleft()
            pops.append(entry[0])
            return entry

    monkeypatch.setattr(divisor, "deque", CountingDeque)
    monkeypatch.setattr(divisor, "_blowups",
                        lambda h: enumerations.append(h) or _blowups(h))
    monkeypatch.setattr(_SearchCaps, "budget", 2_000)
    taken = 0
    for g in SEARCH_GUARD_INPUTS:
        pops.clear()
        enumerations.clear()
        try:
            standardize(g)
        except DomainError:
            pass
        assert list(map(id, enumerations)) == list(map(id, pops))
        taken += len(pops)
    assert taken > 0


def test_cli_standardize_budget_exhausted_exits_1(monkeypatch, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(canonical_json(chain(0, 0, 2).to_json_dict()))
    monkeypatch.setattr(_SearchCaps, "budget", 50)
    assert main(["standardize", str(path), "--json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: standardize: move budget exhausted after 50 of 50")
    assert "Traceback" not in err


# -- barks -----------------------------------------------------------------------


def test_bark_two_vertex_twig():
    g = chain(-3, -2)
    coeffs = bark(g, ["v0", "v1"])
    assert coeffs == {"v0": Fraction(2, 5), "v1": Fraction(1, 5)}


def test_bark_all_two_chain_formula():
    for k in range(1, 8):
        g = chain(*([-2] * k))
        coeffs = bark(g, [f"v{i}" for i in range(k)])
        for i in range(k):
            expect = Fraction(k - i, k + 1)
            assert coeffs[f"v{i}"] == expect
            assert 0 < expect < 1


def fraction_solve(m, rhs):
    """Gauss-Jordan over Fraction: the reference for the integer solver."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(m, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n] for row in a]


def test_bark_matches_fraction_solve_on_random_twigs():
    rng = random.Random(5113)
    for _ in range(200):
        weights = [-rng.randint(2, 7) for _ in range(rng.randint(1, 12))]
        n = len(weights)
        m = [[weights[i] if i == j else int(abs(i - j) == 1) for j in range(n)]
             for i in range(n)]
        expect = fraction_solve(m, [-1] + [0] * (n - 1))
        twig = [f"v{i}" for i in range(n)]
        assert bark(chain(*weights), twig) == dict(zip(twig, expect))


def test_bark_rejects_inadmissible_twig():
    with pytest.raises(DomainError):
        bark(chain(-1, -2), ["v0", "v1"])
    with pytest.raises(DomainError):
        bark(chain(-3, -2), ["v0", "v0"])
    with pytest.raises(DomainError):
        bark(chain(-3, -2, -2), ["v0", "v2"])  # not adjacent


# -- the move registry -------------------------------------------------------------


def test_search_moves_are_log_entries_replay_accepts():
    """Every move the search tries is a well-formed log entry: applying
    it fails, if at all, in the move itself, never in the entry check."""
    for g in (flowed_dpart(3, 4, "L1_inf", "L2_0", 2), cycle(0, -1, -2),
              chain(-1, 0, -3, 2)):
        for entry in search_moves(g):
            assert "new_id" not in entry
            try:
                out = replay(g, [entry])
            except DomainError as e:
                assert not str(e).startswith("replay: "), (entry, e)
                continue
            log = []
            assert apply_move(g, entry, log) == out
            assert replay(g, log) == out


@pytest.mark.parametrize("d1, d2", [(d1, d2) for d2 in range(1, 7)
                                    for d1 in range(1, d2 + 1)])
def test_normalize_log_replays_up_to_gauge(d1, d2):
    """The R1/R3 log of `normalize` replays through the library's
    `replay`; the normal form differs from the replayed graph only by the
    unlogged `gauge_canonicalize`."""
    plumbed = from_divisor_graph(build_boundary_graph(d1, d2).d_part())
    nf = normalize(plumbed)
    assert gauge_canonicalize(replay(plumbed, list(nf.log))) == nf.graph


@pytest.mark.parametrize("name, g, entry", [
    ("blow_up", chain(-2), {"move": "blowup", "center": {"vertex": "v0"}}),
    ("blow_down", chain(-2, -1), {"move": "blowdown", "vertex": "v1"}),
    ("elementary_flow", chain(-2, 0, -3),
     {"move": "flow", "vertex": "v1", "toward": "v2"}),
    ("move_R1", from_divisor_graph(chain(-2, -1)), {"move": "R1", "vertex": "v1"}),
    ("move_R3", from_divisor_graph(chain(-2, 0, -3)), {"move": "R3", "vertex": "v1"}),
])
def test_registry_calls_each_move_through_its_module_global(monkeypatch, name, g,
                                                             entry):
    """A move rebound on `divisor` (as an outside tracer does) is the one
    `replay` and the search apply."""
    real, calls = getattr(divisor, name), []
    monkeypatch.setattr(divisor, name, lambda *a: calls.append(a) or real(*a))
    replay(g, [entry])
    assert len(calls) == 1


# Logged by `reverse_orientation`, not yet replayable.
NOT_REPLAYABLE = {"negate", "chain_dual"}


def test_every_logged_move_name_is_a_registry_key():
    """Drift guard: a move some producer logs under a new name must join
    MOVES (or, knowingly, NOT_REPLAYABLE)."""
    names = set()
    for d1 in range(1, 5):
        for d2 in range(d1, 5):
            fam = build_boundary_graph(d1, d2)
            logs = [build_by_blowups(FamilyParams.default(d1, d2))[1],
                    snc_minimalize(fam.graph)[1],
                    standardize(fam.graph)[1],
                    standardize(fam.d_part())[1]]
            nf = normalize(fam.d_part())
            logs += [nf.log, reverse_orientation(nf).log]
            names.update(entry["move"] for log in logs for entry in log)
    assert names == set(MOVES) | NOT_REPLAYABLE
    assert not NOT_REPLAYABLE & set(MOVES)


def test_plumbing_does_not_import_divisor():
    """`divisor` imports the plumbing moves for its registry, so the
    reverse import would be a cycle."""
    tree = ast.parse(Path(plumbing.__file__).read_text())
    imported = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    imported |= {a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                 for a in n.names}
    assert not any(m and m.split(".")[-1] == "divisor" for m in imported)
