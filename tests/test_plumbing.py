"""Plumbing calculus: moves, normal forms, orientation reversal, Seifert and
lens read-offs, homology of the plumbed manifold."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import plumbcalc.plumbing as plumbing
from plumbcalc.cli import main
from plumbcalc.family import build_boundary_graph
from plumbcalc.graphs import (
    AbelianGroup,
    ChainType,
    DomainError,
    Edge,
    OutOfScopeError,
    Vertex,
    WeightedGraph,
    canonical_json,
    graphs_isomorphic,
)
from plumbcalc.plumbing import (
    SeifertData,
    _insert,
    continued_fraction_eval,
    continued_fraction_expand,
    flip_vertex_signs,
    from_divisor_graph,
    gauge_canonicalize,
    h1_from_graph,
    is_normal,
    jsj_cut,
    move_R1,
    move_R3,
    normalize,
    reverse_orientation,
    seifert_from_star,
)

RNG = random.Random(90125)
PERTURBATIONS = 20


def pchain(*weights, signs=None):
    vs = [Vertex(f"v{i}", w) for i, w in enumerate(weights)]
    es = []
    for i in range(len(weights) - 1):
        s = signs[i] if signs else 1
        es.append(Edge(f"v{i}", f"v{i+1}", s))
    return WeightedGraph("plumbing", vs, es)


def family_plumbing(d1, d2):
    return from_divisor_graph(build_boundary_graph(d1, d2).d_part())


# -- conversion -------------------------------------------------------------------


def test_from_divisor_graph_sets_kind_and_signs():
    g = build_boundary_graph(2, 2).d_part()
    p = from_divisor_graph(g)
    assert p.kind == "plumbing"
    assert all(e.sign == 1 for e in p.edges)
    assert {v.weight for v in p.vertices.values()} == {0, -1, -2}


def test_from_divisor_graph_rejects_plumbing_input():
    with pytest.raises(DomainError):
        from_divisor_graph(family_plumbing(2, 2))


# -- R1 ---------------------------------------------------------------------------


def test_r1_interior_blowdown_joins_neighbors():
    g = pchain(-2, 1, -3)
    out = move_R1(g, "v1")
    assert {vid: v.weight for vid, v in out.vertices.items()} == {"v0": -3, "v2": -4}
    (e,) = out.edges
    assert (e.u, e.v, e.sign) == ("v0", "v2", -1)


def test_r1_minus_one_vertex_flips_the_join_sign():
    g = pchain(-2, -1, -3)
    out = move_R1(g, "v1")
    assert {vid: v.weight for vid, v in out.vertices.items()} == {"v0": -1, "v2": -2}
    (e,) = out.edges
    assert e.sign == 1


def test_r1_pendant_and_isolated():
    g = pchain(-2, 1)
    out = move_R1(g, "v1")
    assert {vid: v.weight for vid, v in out.vertices.items()} == {"v0": -3}
    lone = WeightedGraph("plumbing", [Vertex("x", -1)], [])
    assert len(move_R1(lone, "x").vertices) == 0


def test_r1_double_edge_to_same_neighbor_makes_loop():
    g = WeightedGraph(
        "plumbing",
        [Vertex("u", -2), Vertex("e", 1)],
        [Edge("u", "e", 1), Edge("u", "e", 1)],
    )
    out = move_R1(g, "e")
    assert list(out.vertices) == ["u"]
    # each incidence subtracts epsilon, then the loop joins u to itself
    assert out.vertices["u"].weight == -4
    (loop,) = out.edges
    assert loop.is_loop and loop.sign == -1


def test_r1_preconditions():
    with pytest.raises(DomainError):
        move_R1(pchain(-2, 2, -3), "v1")  # weight not +-1
    star = WeightedGraph(
        "plumbing",
        [Vertex("c", 1)] + [Vertex(f"a{i}", -2) for i in range(3)],
        [Edge("c", f"a{i}") for i in range(3)],
    )
    with pytest.raises(DomainError):
        move_R1(star, "c")  # three incidences
    loopy = WeightedGraph(
        "plumbing", [Vertex("x", 1)], [Edge("x", "x", 1)]
    )
    with pytest.raises(DomainError):
        move_R1(loopy, "x")  # loop endpoint


# -- R3 ---------------------------------------------------------------------------


def r3_probe(s1, s2, tail_sign):
    """0-vertex b between a and c, with a tail edge c--d to watch."""
    return WeightedGraph(
        "plumbing",
        [Vertex("a", -2), Vertex("b", 0), Vertex("c", -3), Vertex("d", -5)],
        [Edge("a", "b", s1), Edge("b", "c", s2), Edge("c", "d", tail_sign)],
    )


def test_r3_merges_into_smaller_id_and_adds_weights():
    out = move_R3(r3_probe(1, 1, 1), "b")
    assert sorted(out.vertices) == ["a", "d"]
    assert out.vertices["a"].weight == -5  # -2 + -3


def test_r3_flips_when_removed_sign_product_positive():
    out = move_R3(r3_probe(1, 1, 1), "b")
    (e,) = out.edges
    assert (e.u, e.v, e.sign) == ("a", "d", -1)
    out = move_R3(r3_probe(-1, -1, 1), "b")
    (e,) = out.edges
    assert e.sign == -1


def test_r3_keeps_signs_when_removed_sign_product_negative():
    out = move_R3(r3_probe(1, -1, 1), "b")
    (e,) = out.edges
    assert e.sign == 1
    out = move_R3(r3_probe(-1, 1, -1), "b")
    (e,) = out.edges
    assert e.sign == -1


def test_r3_rehomes_loops_and_the_joining_edge_in_place():
    """The discarded vertex c's loop keeps its sign, its edge to the kept
    a becomes a loop of flipped sign, a's own loop stays, and the merged
    vertex keeps a's place in vertex order."""
    g = WeightedGraph(
        "plumbing",
        [Vertex("d", -5), Vertex("a", -2), Vertex("b", 0), Vertex("c", -3, boundary=1),
         Vertex("e", -1)],
        [Edge("a", "b"), Edge("b", "c"), Edge("c", "c", -1), Edge("a", "c"),
         Edge("c", "d"), Edge("a", "e"), Edge("a", "a")],
    )
    want = WeightedGraph(
        "plumbing", [Vertex("d", -5), Vertex("a", -5, boundary=1), Vertex("e", -1)],
        [Edge("a", "a", -1), Edge("a", "a", -1), Edge("a", "a"), Edge("a", "d", -1),
         Edge("a", "e")],
    )
    out = move_R3(g, "b")
    assert list(out.vertices.items()) == list(want.vertices.items())
    assert out.edges == want.edges
    assert out.loops == want.loops and out.around == want.around


def test_r3_rejects_self_absorption_and_wrong_shapes():
    loop = WeightedGraph(
        "plumbing", [Vertex("b", 0)], [Edge("b", "b", 1)]
    )
    with pytest.raises(DomainError):
        move_R3(loop, "b")
    both_to_same = WeightedGraph(
        "plumbing",
        [Vertex("a", -2), Vertex("b", 0)],
        [Edge("a", "b", 1), Edge("a", "b", 1)],
    )
    with pytest.raises(DomainError):
        move_R3(both_to_same, "b")
    with pytest.raises(DomainError):
        move_R3(pchain(-2, -1, -3), "v1")  # weight not 0


def test_r3_h1_invariance_on_triangle():
    # triangle u(p)-v(0)-w(q) plus chord u-w: torsion |p+q-2| survives R3
    for p, q in [(-3, -4), (-2, -5)]:
        g = WeightedGraph(
            "plumbing",
            [Vertex("u", p), Vertex("v", 0), Vertex("w", q)],
            [Edge("u", "v"), Edge("v", "w"), Edge("u", "w")],
        )
        before = h1_from_graph(g)
        after = h1_from_graph(move_R3(g, "v"))
        assert before == after
        assert before.torsion == (abs(p + q - 2),) or before.torsion == ()


# -- inverse R1 -------------------------------------------------------------------


def test_inverse_r1_round_trips():
    g = family_plumbing(2, 3)
    for _ in range(PERTURBATIONS):
        vid = RNG.choice(sorted(g.vertices))
        eps = RNG.choice([1, -1])
        up = _insert(g, vid, eps, "P")
        back = move_R1(up, "P")
        assert back == g
    for _ in range(PERTURBATIONS):
        e = RNG.choice(g.edges)
        eps = RNG.choice([1, -1])
        up = _insert(g, e, eps, "P")
        back = move_R1(up, "P")
        assert back == g
    # a subdivided loop is a double edge, which R1 turns back into the loop
    looped = WeightedGraph("plumbing", [Vertex("u", -3), Vertex("w", -2)],
                           [Edge("u", "u", -1), Edge("u", "w")])
    for eps in (1, -1):
        for s1 in (1, -1):
            up = _insert(looped, Edge("u", "u", -1), eps, "P", s1=s1)
            assert move_R1(up, "P") == looped


# -- gauge ------------------------------------------------------------------------


def test_gauge_canonicalize_clears_tree_signs():
    g = pchain(-2, -2, -2, signs=[-1, -1])
    out = gauge_canonicalize(g)
    assert all(e.sign == 1 for e in out.edges)
    assert out.vertices == g.vertices  # weights untouched


def test_gauge_is_idempotent_and_h1_safe():
    g = family_plumbing(1, 3)
    flipped = flip_vertex_signs(g, "T2_01")
    fixed = gauge_canonicalize(flipped)
    assert gauge_canonicalize(fixed) == fixed
    assert h1_from_graph(fixed) == h1_from_graph(g)


def test_minus_two_cycle_displays_two_negative_edges():
    n = 4
    vs = [Vertex(f"v{i}", -2) for i in range(n)]
    es = [Edge(f"v{i}", f"v{(i+1) % n}", 1) for i in range(n - 1)]
    es.append(Edge("v0", f"v{n-1}", -1))
    g = WeightedGraph("plumbing", vs, es)
    # sign product is -1, so the class is the odd one; the display must
    # still show at least two negative labels for normality
    out = gauge_canonicalize(g)
    assert sum(1 for e in out.edges if e.sign < 0) >= 2
    assert is_normal(out).ok


# -- is_normal ----------------------------------------------------------------------


def test_normal_rejects_heavy_nonbranching_vertex():
    rep = is_normal(pchain(-2, -1, -3))
    assert not rep.ok
    assert any("v1" in v for v in rep.violations)


def test_normal_boundary_vertices_are_exempt():
    g = WeightedGraph(
        "plumbing", [Vertex("x", 5, boundary=1)], []
    )
    assert is_normal(g).ok


def test_normal_fork_condition():
    # beta=3 vertex with two [2]-twigs, third arm branching again: the
    # graph is a tree but not a fork, so the shape is not normal
    vs = [
        Vertex("c", -3),
        Vertex("t1", -2),
        Vertex("t2", -2),
        Vertex("m", -3),
        Vertex("n", -3),
        Vertex("o", -3),
        Vertex("q", -3),
    ]
    es = [
        Edge("c", "t1"),
        Edge("c", "t2"),
        Edge("c", "m"),
        Edge("m", "n"),
        Edge("m", "o"),
        Edge("m", "q"),
    ]
    g = WeightedGraph("plumbing", vs, es)
    rep = is_normal(g)
    assert not rep.ok
    assert any("fork" in v for v in rep.violations)
    # the honest 3-pronged star with the same twigs is fine
    fork = WeightedGraph("plumbing", vs[:4], es[:3])
    assert is_normal(fork).ok


def test_normal_family_forms():
    for d1, d2 in [(2, 2), (1, 3), (3, 5)]:
        nf = normalize(family_plumbing(d1, d2))
        if nf.certificate == "generic":
            assert is_normal(nf.graph).ok


# -- normalize ----------------------------------------------------------------------


def test_normalize_square_case_single_absorption():
    nf = normalize(family_plumbing(2, 2))
    assert [m["move"] for m in nf.log] == ["R3"]
    g = nf.graph
    assert {vid: v.weight for vid, v in g.vertices.items()} == {
        "L1_0": -1,
        "L2_0": -1,
        "T1_01": -2,
        "T2_01": -2,
    }
    doubles = [e for e in g.edges if {e.u, e.v} == {"L1_0", "L2_0"}]
    assert sorted(e.sign for e in doubles) == [-1, 1]
    # the arm swap is an automorphism; of the two least orders, the one
    # reached first (ids in sorted order) is kept
    assert nf.ordering == ("T1_01", "T2_01", "L1_0", "L2_0")


def test_normalize_mixed_case_three_blowdowns():
    nf = normalize(family_plumbing(1, 3))
    assert [m["move"] for m in nf.log] == ["R1", "R1", "R1"]
    g = nf.graph
    assert g.vertices["L2_0"].weight == 1
    loops = [e for e in g.edges if e.is_loop]
    assert len(loops) == 1 and loops[0].sign == -1
    twig = sorted(v.weight for vid, v in g.vertices.items() if vid != "L2_0")
    assert twig == [-2, -2]


def test_normalize_one_one_hits_seifert_catalog():
    nf = normalize(family_plumbing(1, 1))
    assert nf.certificate == "seifert_special"
    assert nf.seifert == SeifertData(
        0, 0, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)), 0
    )


def test_normalize_accepts_divisor_kind_directly():
    nf = normalize(build_boundary_graph(2, 2).d_part())
    assert nf.certificate == "generic"


def test_normalize_is_idempotent():
    for d1, d2 in [(2, 2), (1, 4), (4, 4)]:
        nf = normalize(family_plumbing(d1, d2))
        again = normalize(nf.graph)
        assert again.graph == nf.graph
        assert again.log == ()


def test_normalize_invariant_under_inverse_r1_perturbations():
    for d1, d2 in [(2, 3), (1, 2)]:
        base = normalize(family_plumbing(d1, d2))
        g = family_plumbing(d1, d2)
        for k in range(PERTURBATIONS):
            vid = RNG.choice(sorted(g.vertices))
            eps = RNG.choice([1, -1])
            perturbed = _insert(g, vid, eps, f"P{k}")
            nf = normalize(perturbed)
            assert graphs_isomorphic(nf.graph, base.graph)[0]


def test_normalize_whole_chain_of_blowdowns_gives_empty_sphere_form():
    nf = normalize(pchain(1))
    assert nf.certificate == "generic"
    assert len(nf.graph.vertices) == 0


def test_normalize_rejects_disconnected_and_empty():
    two = WeightedGraph(
        "plumbing", [Vertex("a", -2), Vertex("b", -2)], []
    )
    with pytest.raises(DomainError):
        normalize(two)
    with pytest.raises(DomainError):
        normalize(WeightedGraph("plumbing", [], []))


def test_normalize_out_of_scope_positive_loop_vertex():
    g = WeightedGraph("plumbing", [Vertex("x", 1)], [Edge("x", "x", 1)])
    with pytest.raises(OutOfScopeError):
        normalize(g)


def test_normalize_rejects_genus():
    g = WeightedGraph("plumbing", [Vertex("x", -2, genus=1)], [])
    with pytest.raises(OutOfScopeError):
        normalize(g)


def r1_then_r3():
    """u(-2) - z(0) - w(-3) - a(-1): R1 at a makes w a -2, then R3 at z
    merges u and w."""
    vs = [Vertex("u", -2), Vertex("z", 0), Vertex("w", -3), Vertex("a", -1)]
    es = [Edge("u", "z"), Edge("z", "w"), Edge("w", "a")]
    return WeightedGraph("plumbing", vs, es)


def test_normalize_budget_counts_moves_applied(monkeypatch):
    """A reduction of exactly MOVE_BUDGET moves succeeds; one more move
    raises and says how far the run got."""
    monkeypatch.setattr(plumbing, "MOVE_BUDGET", 1)
    assert [e["move"] for e in normalize(pchain(-1, -3)).log] == ["R1"]
    monkeypatch.setattr(plumbing, "MOVE_BUDGET", 2)
    assert [e["move"] for e in normalize(r1_then_r3()).log] == ["R1", "R3"]
    monkeypatch.setattr(plumbing, "MOVE_BUDGET", 1)
    with pytest.raises(DomainError) as e:
        normalize(r1_then_r3())
    assert str(e.value) == (
        "normalize: move budget 1 exceeded after 1 R1 and 0 R3 moves,"
        " 3 vertices left"
    )


def scan_normalize(g):
    """normalize as it was before its heaps: every id is tested for R1,
    then for R3, after each move.  The reference the heap version must
    match."""
    if g.kind == "divisor":
        g = from_divisor_graph(g)
    plumbing._require_plumbing(g, "normalize")
    plumbing._require_rational(g, "normalize")
    if not g.vertices:
        raise DomainError("normalize: empty graph (S^3 has no plumbing vertex)")
    if len(plumbing.connected_components(g)) != 1:
        raise DomainError("normalize: graph must be connected")

    log: list = []
    cur = g
    while True:
        ids = cur.sorted_ids()
        rules = ((move_R1, plumbing._r1_obstruction), (move_R3, plumbing._r3_obstruction))
        step = next(((move, x) for move, blocked in rules for x in ids
                     if blocked(cur, x) is None), None)
        if step is None:
            break
        if len(log) == plumbing.MOVE_BUDGET:
            r1 = sum(e["move"] == "R1" for e in log)
            raise DomainError(
                f"normalize: move budget {plumbing.MOVE_BUDGET} exceeded after {r1} R1"
                f" and {len(log) - r1} R3 moves, {len(cur.vertices)} vertices"
                " left"
            )
        move, vid = step
        cur = move(cur, vid, log)
        if not cur.vertices:
            return plumbing.NormalForm(cur, (), "generic", None, tuple(log))

    cur = gauge_canonicalize(cur)
    report = is_normal(cur)
    if report.ok:
        order = plumbing.canonical_ordering(cur)
        return plumbing.NormalForm(cur, order, "generic", None, tuple(log))
    sd = plumbing._seifert_special(cur)
    if sd is not None:
        return plumbing.NormalForm(
            cur, tuple(cur.sorted_ids()), "seifert_special", sd, tuple(log)
        )
    raise OutOfScopeError(
        "normalize: terminal graph is not normal and is not a recognized"
        " special Seifert graph; finishing it needs plumbing moves outside"
        " the implemented R1/R3 subset (R2, R4-R6, R8 or non-orientable"
        f" handling). Violations: {list(report.violations)}"
    )


def normalize_outcome(run, g):
    """The normal form's JSON and the order of its graph's vertices, or
    the error's type and message."""
    try:
        nf = run(g)
    except (DomainError, OutOfScopeError) as e:
        return type(e).__name__, str(e)
    return canonical_json(nf.to_json_dict()), list(nf.graph.vertices)


@st.composite
def connected_plumbing_graphs(draw):
    """Connected plumbing graphs on up to 8 vertices, weights near 0: a
    tree plus extra edges, loops and signed parallel edges among them; a
    few vertices carry boundary."""
    n = draw(st.integers(1, 8))
    ids = [f"n{i}" for i in range(n)]
    vs = [Vertex(x, draw(st.sampled_from([-3, -2, -1, -1, 0, 0, 1, 2, 3])), 0,
                 draw(st.sampled_from([0, 0, 0, 0, 1]))) for x in ids]
    sign = st.sampled_from([1, -1])
    es = [Edge(ids[i], ids[draw(st.integers(0, i - 1))], draw(sign)) for i in range(1, n)]
    extra = st.builds(Edge, st.sampled_from(ids), st.sampled_from(ids), sign)
    return WeightedGraph("plumbing", vs, es + draw(st.lists(extra, max_size=4)))


@settings(max_examples=300, deadline=None)
@given(connected_plumbing_graphs())
@example(pchain(-3, 0, 2))  # R3 leaves a -1 vertex that R1 then removes
def test_normalize_matches_the_rescan(g):
    assert normalize_outcome(normalize, g) == normalize_outcome(scan_normalize, g)


@pytest.mark.parametrize("minus_one_first", [True, False])
def test_normalize_matches_the_rescan_on_a_long_chain(minus_one_first):
    """The 1 000-vertex chain (-1, -2, ..., -2) blows down completely,
    from either end of the id order."""
    weights = [-1] + [-2] * 999
    g = pchain(*(weights if minus_one_first else reversed(weights)))
    outcome = normalize_outcome(normalize, g)
    assert outcome == normalize_outcome(scan_normalize, g)
    assert json.loads(outcome[0])["log"] == [
        {"move": "R1", "vertex": f"v{i}"} for i in
        (range(1000) if minus_one_first else range(999, -1, -1))]


def test_normalize_matches_the_rescan_on_family_graphs():
    for d1, d2 in (1, 1), (1, 6), (2, 3), (3, 3), (4, 7):
        g = family_plumbing(d1, d2)
        assert normalize_outcome(normalize, g) == normalize_outcome(scan_normalize, g)


def test_cli_normalize_budget_exceeded_exits_1(monkeypatch, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(canonical_json(r1_then_r3().to_json_dict()))
    monkeypatch.setattr(plumbing, "MOVE_BUDGET", 1)
    assert main(["normalize", str(path), "--json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: normalize: move budget 1 exceeded after 1 R1 and 0 R3 moves,"
        " 3 vertices left\n"
    )


# -- orientation reversal --------------------------------------------------------------


def test_reverse_square_case_duality():
    nf = normalize(family_plumbing(2, 3))
    rev = reverse_orientation(nf)
    weights = sorted(v.weight for v in rev.graph.vertices.values())
    # cores become 0, twigs [(2)_{d-1}] dualize to single vertices [d]
    assert weights == [-3, -2, 0, 0]
    assert h1_from_graph(rev) == h1_from_graph(nf)


def test_reverse_mixed_case_duality():
    nf = normalize(family_plumbing(1, 3))
    rev = reverse_orientation(nf)
    assert {v.weight for v in rev.graph.vertices.values()} == {-2, -3}
    loops = [e for e in rev.graph.edges if e.is_loop]
    assert len(loops) == 1 and loops[0].sign == 1


def test_reverse_is_involutive_up_to_iso():
    for d1, d2 in [(2, 2), (2, 3), (1, 4)]:
        nf = normalize(family_plumbing(d1, d2))
        back = reverse_orientation(reverse_orientation(nf))
        assert graphs_isomorphic(back.graph, nf.graph)[0]


def test_reverse_distinguishes_orientations():
    for d1, d2 in [(2, 2), (2, 3), (1, 5)]:
        nf = normalize(family_plumbing(d1, d2))
        rev = reverse_orientation(nf)
        assert not graphs_isomorphic(nf.graph, rev.graph)[0]


def test_reverse_one_one_mirrors_the_catalog():
    nf = normalize(family_plumbing(1, 1))
    rev = reverse_orientation(nf)
    assert rev.seifert == SeifertData(
        0, 0, (Fraction(1, 2), Fraction(2, 3), Fraction(5, 6)), -3
    )
    back = reverse_orientation(rev)
    assert back.seifert == nf.seifert


def test_reverse_two_vertex_double_edge_graphs():
    """Two vertices, two parallel edges and at most one loop: each either
    reverses with H_1 unchanged (which reverse_orientation asserts) or is
    out of scope.  Dualizing a vertex that meets a loop carrier twice as
    if it were a twig changed H_1 on 90 of these 225 graphs."""
    for wa, wb in itertools.product(range(-4, 1), repeat=2):
        for signs in ((1, 1), (1, -1), (-1, -1)):
            for loop in ((), (1,), (-1,)):
                g = WeightedGraph(
                    "plumbing", [Vertex("a", wa), Vertex("b", wb)],
                    [Edge("a", "b", s) for s in signs]
                    + [Edge("b", "b", s) for s in loop],
                )
                try:
                    rev = reverse_orientation(normalize(g))
                except OutOfScopeError:
                    continue
                assert h1_from_graph(rev.graph) == h1_from_graph(g)


def test_reverse_of_the_sphere_is_the_empty_form(tmp_path, capsys):
    """S^3, here one (-1)-vertex, normalizes to the empty graph, which is
    its own reversal; `plumbcalc reverse` exits 0 on it, as `normalize`
    does."""
    nf = normalize(pchain(-1))
    rev = reverse_orientation(nf)
    expected = {"certificate": "generic",
                "graph": {"edges": [], "kind": "plumbing", "vertices": []},
                "log": [{"move": "negate"}], "ordering": [], "seifert": None}
    assert rev.to_json_dict() == expected
    assert h1_from_graph(rev) == h1_from_graph(nf) == AbelianGroup(0, ())
    path = tmp_path / "s3.json"
    path.write_text(canonical_json(pchain(-1).to_json_dict()))
    assert main(["reverse", str(path), "--json"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out) == expected and err == ""


# -- continued fractions ------------------------------------------------------------


def test_continued_fraction_known_values():
    assert continued_fraction_expand(3, 2).entries == (2, 2)
    assert continued_fraction_expand(3, 1).entries == (3,)
    assert continued_fraction_eval(ChainType((2, 2))) == (3, 2)
    assert continued_fraction_eval(ChainType(())) == (1, 0)
    with pytest.raises(DomainError):
        continued_fraction_expand(2, 4)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 400), st.integers(1, 399))
def test_continued_fraction_round_trip(p, q):
    if q >= p:
        q = q % p
        if q == 0:
            q = 1
    if math.gcd(p, q) != 1:
        return
    ct = continued_fraction_expand(p, q)
    assert all(a >= 2 for a in ct.entries)
    assert continued_fraction_eval(ct) == (p, q)


# -- Seifert and JSJ -----------------------------------------------------------------


def e9_star():
    vs = [Vertex("c", -2)]
    es = []
    arms = {"p": 1, "q": 2, "r": 5}
    for name, length in arms.items():
        prev = "c"
        for i in range(length):
            vid = f"{name}{i}"
            vs.append(Vertex(vid, -2))
            es.append(Edge(prev, vid))
            prev = vid
    return WeightedGraph("plumbing", vs, es)


def test_seifert_from_star_flat_reference_point():
    sd = seifert_from_star(e9_star())
    assert sd == SeifertData(
        0, 0, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)), 0
    )


def test_seifert_from_star_bounded_base_absorbs_central():
    g = WeightedGraph(
        "plumbing",
        [Vertex("c", -7, boundary=2), Vertex("t", -4)],
        [Edge("c", "t")],
    )
    sd = seifert_from_star(g)
    assert sd == SeifertData(0, 2, (Fraction(3, 4),), 0)


def test_seifert_from_star_rejections():
    with pytest.raises(DomainError):
        seifert_from_star(family_plumbing(2, 2))  # cycle
    with pytest.raises(DomainError):
        seifert_from_star(pchain(-2, -2))  # ambiguous center
    bad_twig = WeightedGraph(
        "plumbing",
        [Vertex("c", -2), Vertex("t1", -1), Vertex("t2", -2), Vertex("t3", -2)],
        [Edge("c", "t1"), Edge("c", "t2"), Edge("c", "t3")],
    )
    with pytest.raises(DomainError):
        seifert_from_star(bad_twig)


def test_jsj_square_case_two_pieces():
    pieces = jsj_cut(family_plumbing(3, 2))
    assert pieces == [
        SeifertData(0, 2, (Fraction(1, 3),), 0),
        SeifertData(0, 2, (Fraction(1, 2),), 0),
    ]


def test_jsj_mixed_case_single_piece():
    pieces = jsj_cut(family_plumbing(1, 4))
    assert pieces == [SeifertData(0, 2, (Fraction(1, 4),), 0)]


def test_jsj_one_one_is_the_catalog_space():
    pieces = jsj_cut(family_plumbing(1, 1))
    assert pieces == [
        SeifertData(0, 0, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)), 0)
    ]


# -- homology ------------------------------------------------------------------------


def test_h1_family_is_z():
    for d1 in range(1, 7):
        for d2 in range(d1, 7):
            assert h1_from_graph(family_plumbing(d1, d2)) == AbelianGroup(1, ())


def test_h1_examples():
    assert h1_from_graph(pchain(-2, -2)) == AbelianGroup(0, (3,))
    loop0 = WeightedGraph("plumbing", [Vertex("x", 0)], [Edge("x", "x", 1)])
    assert h1_from_graph(loop0) == AbelianGroup(1, (2,))
    assert h1_from_graph(e9_star()) == AbelianGroup(1, ())


def test_h1_requires_closed_rational():
    with pytest.raises(DomainError):
        h1_from_graph(
            WeightedGraph("plumbing", [Vertex("x", -2, boundary=1)], [])
        )


def test_h1_invariant_under_moves():
    g = family_plumbing(2, 2)
    assert h1_from_graph(g) == h1_from_graph(move_R3(g, "L1_inf"))
    h = pchain(-2, 1, -3)
    assert h1_from_graph(h) == h1_from_graph(move_R1(h, "v1"))
