"""Graph core: containers, exact linear algebra, segment classification,
isomorphism."""

import ast
import gc
import importlib
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import plumbcalc
import plumbcalc.graphs as graphs
from plumbcalc.divisor import (
    bark,
    blow_down,
    blow_up,
    elementary_flow,
)
from plumbcalc.graphs import (
    AbelianGroup,
    ChainType,
    DomainError,
    Edge,
    OutOfScopeError,
    Vertex,
    WeightedGraph,
    _check_snf,
    _edge_key,
    branching_number,
    canonical_encoding,
    canonical_json,
    canonical_ordering,
    classify_segments,
    cokernel,
    connected_components,
    det_exact,
    first_betti,
    fresh_id,
    graphs_isomorphic,
    intersection_matrix,
    is_negative_definite,
    reweighted,
    smith_normal_form,
    spanning_forest,
)
from plumbcalc.family import FamilyParams, build_boundary_graph, build_by_blowups
from plumbcalc.invariants import GroupPresentation, abelianization, pi1_presentation
from plumbcalc.plumbing import (
    _contract,
    _cut_torus,
    _dualize_positive_twigs,
    _insert,
    _negate,
    _regauge,
    flip_vertex_signs,
    from_divisor_graph,
    gauge_canonicalize,
    h1_from_graph,
    move_R1,
    move_R3,
    normalize,
    reverse_orientation,
)


def chain(*weights, kind="divisor"):
    vs = [Vertex(f"v{i}", w) for i, w in enumerate(weights)]
    es = [Edge(f"v{i}", f"v{i+1}") for i in range(len(weights) - 1)]
    return WeightedGraph(kind, vs, es)


def cycle(*weights, kind="divisor"):
    vs = [Vertex(f"v{i}", w) for i, w in enumerate(weights)]
    n = len(weights)
    es = [Edge(f"v{i}", f"v{(i+1) % n}") for i in range(n)]
    return WeightedGraph(kind, vs, es)


@st.composite
def multigraphs(draw, low=-2, decorated=False):
    """Plumbing multigraphs with loops and signed parallel edges; with
    `decorated`, each vertex also has genus and boundary 0 or 1."""
    ids = [f"n{i}" for i in range(draw(st.integers(1, 6)))]
    deco = st.integers(0, 1) if decorated else st.just(0)
    vs = [Vertex(x, draw(st.integers(low, 1)), draw(deco), draw(deco)) for x in ids]
    edge = st.builds(Edge, st.sampled_from(ids), st.sampled_from(ids),
                     st.sampled_from([1, -1]))
    return WeightedGraph("plumbing", vs, draw(st.lists(edge, max_size=10)))


# -- containers ----------------------------------------------------------------


def test_edge_orients_endpoints():
    e = Edge("z", "a")
    assert (e.u, e.v) == ("a", "z")


def test_edge_loop_and_sign_validation():
    assert Edge("x", "x").is_loop
    with pytest.raises(DomainError):
        Edge("a", "b", sign=2)


def test_vertex_validation():
    with pytest.raises(DomainError):
        Vertex("", 0)
    with pytest.raises(DomainError):
        Vertex("a", 0, boundary=-1)
    with pytest.raises(OutOfScopeError):
        Vertex("a", 0, genus=-1)


def test_divisor_kind_rejects_loops_and_negative_signs():
    with pytest.raises(DomainError):
        WeightedGraph("divisor", [Vertex("a", 0)], [Edge("a", "a")])
    with pytest.raises(DomainError):
        WeightedGraph(
            "divisor",
            [Vertex("a", 0), Vertex("b", 0)],
            [Edge("a", "b", -1)],
        )
    with pytest.raises(DomainError):
        WeightedGraph(
            "divisor",
            [Vertex("a", 0), Vertex("b", 0)],
            [Edge("a", "b"), Edge("a", "b")],
        )


def test_plumbing_kind_allows_all_of_those():
    g = WeightedGraph(
        "plumbing",
        [Vertex("a", 0), Vertex("b", 0)],
        [Edge("a", "b", -1), Edge("a", "b"), Edge("b", "b")],
    )
    assert len(g.edges) == 3
    assert branching_number(g, "b") == 4  # loop counts twice


@st.composite
def edge_lists(draw):
    """(kind, vertices, edges): plumbing multigraphs with loops and signed
    parallel edges, or divisor graphs, in the constructor's edge order."""
    if draw(st.booleans()):
        g = draw(multigraphs())
    else:
        ids = [f"n{i}" for i in range(draw(st.integers(1, 7)))]
        pairs = list(itertools.combinations(ids, 2))
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)) if pairs else []
        g = WeightedGraph("divisor", [Vertex(x, draw(st.integers(-3, 1))) for x in ids],
                          [Edge(u, v) for u, v in chosen])
    return g.kind, list(g.vertices.values()), list(g.edges)


@settings(max_examples=200, deadline=None)
@given(edge_lists(), st.randoms(use_true_random=False))
def test_edge_order_does_not_change_the_graph(case, rng):
    """Presorted, reversed and shuffled edge lists build the same graph:
    the same edges in the same order and the same incidence index."""
    kind, vs, es = case
    shuffled = list(es)
    rng.shuffle(shuffled)
    built = [WeightedGraph(kind, vs, order)
             for order in (es, tuple(es), es[::-1], shuffled)]
    for g in built:
        assert g == built[0]
        assert (g.edges, g.around, g.loops) == (built[0].edges, built[0].around,
                                                  built[0].loops)
        assert list(g.edges) == sorted(es, key=graphs._edge_key)


def test_edge_order_among_parallel_edges_is_plus_first():
    """Tuple order puts a -1 edge before its +1 twin; the constructor puts
    the +1 edge first whichever order they come in."""
    vs = [Vertex("a", 0), Vertex("b", 0)]
    minus, plus = Edge("a", "b", -1), Edge("a", "b")
    for es in ([minus, plus], [plus, minus], [plus, minus, minus], [minus, plus, minus]):
        g = WeightedGraph("plumbing", vs, es)
        assert g.edges == (plus, *[minus] * (len(es) - 1))
        assert g.around["a"] == [("b", 1), *[("b", -1)] * (len(es) - 1)]


@pytest.mark.parametrize("edges, message", [
    ([Edge("a", "b"), Edge("b", "b")], "cannot carry loops"),
    ([Edge("a", "a"), Edge("a", "b")], "cannot carry loops"),
    ([Edge("a", "b", -1), Edge("a", "b")], "only \\+1 edges"),
    ([Edge("a", "b"), Edge("a", "b", -1)], "only \\+1 edges"),
    ([Edge("a", "b", -1), Edge("b", "c")], "only \\+1 edges"),
    ([Edge("a", "b"), Edge("a", "b")], "cannot carry multi-edges \\('a','b'\\)"),
    ([Edge("a", "b"), Edge("b", "c"), Edge("b", "c")], "multi-edges \\('b','c'\\)"),
    ([Edge("a", "b"), Edge("b", "z")], "references missing vertex"),
])
def test_divisor_rules_hold_on_presorted_edges(edges, message):
    """Every divisor rule raises on these edge lists, most of which
    already increase, and on their reversals with the same message."""
    vs = [Vertex(x, -2) for x in "abc"]
    for es in edges, edges[::-1]:
        with pytest.raises(DomainError, match=message):
            WeightedGraph("divisor", vs, es)


def test_structural_equality_ignores_labels():
    a = WeightedGraph("divisor", [Vertex("x", -1, label="left")], [])
    b = WeightedGraph("divisor", [Vertex("x", -1, label="right")], [])
    assert a == b
    c = WeightedGraph("divisor", [Vertex("x", -2)], [])
    assert a != c


def test_json_round_trip_preserves_everything():
    g = WeightedGraph(
        "plumbing",
        [Vertex("a", -2, genus=1, boundary=2, label="core"), Vertex("b", 3)],
        [Edge("a", "b", -1), Edge("a", "a")],
    )
    back = WeightedGraph.from_json_dict(json.loads(canonical_json(g.to_json_dict())))
    assert back == g
    assert back.vertices["a"].label == "core"
    assert back.kind == "plumbing"


A = {"id": "a", "weight": -1}
B = {"id": "b", "weight": -2}


def graph_json(**fields):
    return {"kind": "plumbing", "vertices": [A, B], "edges": [{"u": "a", "v": "b"}],
            **fields}


@pytest.mark.parametrize("data, message", [
    pytest.param(graph_json(extra=1), "unknown graph fields", id="unknown-field"),
    pytest.param(graph_json(vertices={"a": A, "b": B}), "must be a list",
                 id="vertices-not-list"),
    pytest.param(graph_json(edges=5), "must be a list", id="edges-not-list"),
    pytest.param(graph_json(vertices=[{**A, "genus": "x"}, B]), "genus must be an integer",
                 id="genus-string"),
    pytest.param(graph_json(vertices=[{**A, "boundary": True}, B]),
                 "boundary must be an integer", id="boundary-bool"),
    pytest.param(graph_json(vertices=[{**A, "label": 7}, B]), "label must be a string",
                 id="label-int"),
    pytest.param(graph_json(edges=[{"u": "a", "v": 1}]), "endpoints must be strings",
                 id="endpoint-int"),
    pytest.param(graph_json(edges=[{"u": "a", "v": "b", "sign": True}]),
                 "sign must be an integer", id="sign-bool"),
])
def test_from_json_rejects_unknown_fields(data, message):
    WeightedGraph.from_json_dict(graph_json())  # the unchanged fields are valid
    with pytest.raises(DomainError, match=message):
        WeightedGraph.from_json_dict(data)


def test_induced_keeps_edges_between_kept_vertices():
    g = WeightedGraph(
        "plumbing",
        [Vertex("a", -2), Vertex("b", 0), Vertex("c", 1)],
        [Edge("a", "b", -1), Edge("a", "a"), Edge("b", "c")],
    )
    sub = g.induced(["b", "a"])
    assert sub.kind == "plumbing"
    assert list(sub.vertices) == ["a", "b"]
    assert sub.edges == (Edge("a", "a"), Edge("a", "b", -1))
    with pytest.raises(DomainError):
        g.induced(["a", "z"])


def test_to_dot_escapes_quotes_and_backslashes():
    """Every quoted DOT string reads back, by DOT's escapes, as the id or
    label it was made from."""
    g = WeightedGraph("divisor", [Vertex('a"b', -2, label='say "hi"'),
                                  Vertex("c\\", 0)], [Edge('a"b', "c\\")])
    assert g.to_dot().splitlines()[2:] == [
        '  "a\\"b" [label="say \\"hi\\"\\n-2"];',
        '  "c\\\\" [label="c\\\\\\n0"];',
        '  "a\\"b" -- "c\\\\";',
        "}",
    ]
    # each quoted string ends at its own closing quote; undoing the
    # escapes gives the id or label (DOT's "\n" line break reads as "n")
    quoted = re.findall(r'"((?:[^"\\]|\\.)*)"', g.to_dot())
    assert [re.sub(r"\\(.)", r"\1", q) for q in quoted] == [
        'a"b', 'say "hi"n-2', "c\\", "c\\n0", 'a"b', "c\\"]


def test_canonical_json_is_key_sorted_and_stable():
    one = canonical_json({"b": [1, 2], "a": {"y": 1, "x": 2}})
    two = canonical_json({"a": {"x": 2, "y": 1}, "b": [1, 2]})
    assert one == two
    assert one.index('"a"') < one.index('"b"')


# -- counting and linear algebra -------------------------------------------------


def test_connected_components_and_betti():
    g = chain(-2, -2, -2)
    assert connected_components(g) == [{"v0", "v1", "v2"}]
    assert first_betti(g) == 0
    c = cycle(-2, -2, -2)
    assert first_betti(c) == 1
    both = WeightedGraph(
        "plumbing",
        list(g.vertices.values()) + [Vertex("w", 0)],
        list(g.edges) + [Edge("w", "w")],
    )
    assert len(connected_components(both)) == 2
    assert first_betti(both) == 1  # the loop


def dfs_components(g):
    """The components as `connected_components` found them before
    `spanning_forest`: a depth-first walk from each least unseen id."""
    seen: set = set()
    comps = []
    for start in g.sorted_ids():
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            for y in g.neighbors(stack.pop()):
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        comps.append(comp)
    return comps


def bfs_gauge(g):
    """`gauge_canonicalize` as it was before `spanning_forest`: its own
    breadth-first walk from each component's least id, its own sign
    rewrite, and the ((2)_k) test with its first Betti number check."""
    flip = {}
    for comp in dfs_components(g):
        flip[min(comp)] = 1
        queue = [min(comp)]
        for cur in queue:
            for other, s in g.around[cur]:
                if other not in flip:
                    flip[other] = flip[cur] * s
                    queue.append(other)

    def resigned(h, f):
        return WeightedGraph("plumbing", list(h.vertices.values()), [
            e if e.is_loop else Edge(e.u, e.v, e.sign * f(e.u) * f(e.v))
            for e in h.edges])

    out = resigned(g, flip.__getitem__)
    comps = dfs_components(out)
    minus_two_cycle = (
        len(comps) == 1
        and all(v.weight == -2 and v.genus == 0 and v.boundary == 0
                and branching_number(out, x) == 2 for x, v in out.vertices.items())
        and len(out.edges) - len(out.vertices) + len(comps) == 1)
    negs = [e for e in out.edges if e.sign < 0]
    at = None
    if minus_two_cycle and not negs and len(out.vertices) >= 2:
        at = max(out.vertices)
    elif minus_two_cycle and len(negs) == 1 and len(out.vertices) >= 3:
        at = max(x for x in out.vertices if x not in (negs[0].u, negs[0].v))
    return out if at is None else resigned(out, lambda x: -1 if x == at else 1)


@settings(max_examples=300, deadline=None)
@given(st.one_of(multigraphs(), multigraphs(decorated=True)))
@example(cycle(-2, -2, -2, kind="plumbing"))
@example(WeightedGraph("plumbing", [Vertex(x, -2) for x in "abc"],
                       [Edge("a", "b", -1), Edge("b", "c"), Edge("a", "c")]))
@example(WeightedGraph("plumbing", [Vertex("a", -2), Vertex("b", -2)],
                       [Edge("a", "b"), Edge("a", "b")]))
@example(WeightedGraph("plumbing", [Vertex("a", -2)], [Edge("a", "a", -1)]))
@example(WeightedGraph("plumbing", [Vertex(x, -2) for x in "abcd"],  # two cycles
                       [Edge("a", "b"), Edge("a", "b"), Edge("c", "d"), Edge("c", "d")]))
def test_spanning_forest_spans_and_matches_the_old_walks(g):
    """The forest reaches every vertex once, each parent before its child
    along an edge of the recorded sign, with |V| - #roots tree edges, one
    root per component at its least id; and the components and the gauge
    read off it equal those of the walks it replaced."""
    forest = spanning_forest(g)
    assert sorted(forest) == g.sorted_ids()
    order = {vid: i for i, vid in enumerate(forest)}
    for vid, up in forest.items():
        if up is not None:
            parent, sign = up
            assert order[parent] < order[vid]
            assert (vid, sign) in g.around[parent]
    roots = [vid for vid, up in forest.items() if up is None]
    tree_edges = [up for up in forest.values() if up is not None]
    assert len(tree_edges) == len(g.vertices) - len(roots)
    comps = dfs_components(g)
    assert roots == [min(c) for c in comps]
    assert connected_components(g) == comps
    assert gauge_canonicalize(g) == bfs_gauge(g)


def test_intersection_matrix_loops_and_parallels():
    g = WeightedGraph(
        "plumbing",
        [Vertex("a", -1), Vertex("b", -3)],
        [Edge("a", "b", 1), Edge("a", "b", -1), Edge("b", "b", -1)],
    )
    m = intersection_matrix(g)
    # parallel edges add their signs; the loop adds 2*sign to the diagonal
    assert m == [[-1, 0], [0, -5]]


def test_det_exact_known_values():
    # chain [2,2]: matrix [[-2,1],[1,-2]], det 3
    assert det_exact(intersection_matrix(chain(-2, -2))) == 3
    assert det_exact([[0]]) == 0
    assert det_exact([]) == 1


def leibniz_det(m):
    """Permutation expansion, the textbook definition."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


# mostly zeros, so zero pivots force row swaps and singular matrices appear
sparse_entries = st.one_of(st.just(0), st.just(0), st.integers(-5, 5))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(
    lambda n: st.lists(st.lists(sparse_entries, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_det_exact_matches_leibniz_expansion(m):
    det = det_exact(m)
    assert type(det) is int
    assert det == leibniz_det(m)


def test_det_exact_matches_sympy_up_to_25():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(3301)
    for n in range(1, 26):
        m = [[rng.choice([0, 0, 0, rng.randint(-9, 9)]) for _ in range(n)]
             for _ in range(n)]
        det = det_exact(m)
        assert type(det) is int
        assert det == sympy.Matrix(m).det()
        if n > 1:  # a repeated row makes it singular
            assert det_exact(m[:-1] + [m[0]]) == 0


@st.composite
def banded_matrices(draw):
    """Banded integer matrices: row i is zero before column i - width, so
    it sits out the first steps of elimination and must be rescaled when
    it joins.  Some have their rows shuffled, so zero pivots force swaps,
    and some repeat a row, so they are singular."""
    n = draw(st.integers(1, 6))
    width = draw(st.integers(0, 2))
    m = [[draw(st.integers(-6, 6)) if abs(i - j) <= width else 0 for j in range(n)]
         for i in range(n)]
    if draw(st.booleans()):
        m = [m[i] for i in draw(st.permutations(range(n)))]
    if n > 1 and draw(st.booleans()):
        m[draw(st.integers(1, n - 1))] = list(m[0])
    return m


# banded and near-tree matrices, the shapes the kernel is built for
kernel_matrices = banded_matrices() | multigraphs(low=-6).map(intersection_matrix)


@settings(max_examples=200, deadline=None)
@given(kernel_matrices)
def test_bareiss_kernel_matches_leibniz(m):
    n = len(m)
    # each row carries a unit tag in column n + i, which the kernel
    # eliminates along with it: pivot row k then holds the tags of the
    # input rows behind pivot rows 0..k, its own with the nonzero value of
    # the previous pivot, so the tags name the input row behind each pivot
    rows = [{**row, n + i: 1} for i, row in enumerate(graphs._sparse(m))]
    steps = list(graphs._bareiss(rows, n))
    det = leibniz_det(m)
    assert det_exact(m) == det
    sign, last = steps[-1]
    assert sign * last == det
    order = []
    for k, (_, p) in enumerate(steps):
        if not p:
            break
        (tag,) = {j - n for j in rows[k] if j >= n} - set(order)
        order.append(tag)
        # the pivot is the leading minor of the rows in pivot order, and
        # row k is current at step k: it starts at column k with the pivot
        assert p == leibniz_det([m[r][:k + 1] for r in order])
        assert p == rows[k][k] and min(rows[k]) == k
    if det:
        assert len(order) == n
        assert sign == leibniz_det([[int(j == r) for j in range(n)] for r in order])
    # until the sign first turns negative the pivots are the leading
    # minors, and it turns at the first zero minor that a swap mends
    minors = [leibniz_det([row[:k] for row in m[:k]]) for k in range(1, n + 1)]
    for k, (sign, p) in enumerate(steps):
        if sign < 0:
            assert minors[k] == 0
            break
        assert p == minors[k]


def cramer_solve(m, rhs):
    """Cramer's rule over Fraction on Leibniz determinants."""
    det = leibniz_det(m)
    if not det:
        return None
    return [Fraction(leibniz_det([row[:i] + [b] + row[i + 1:] for row, b in zip(m, rhs)]), det)
            for i in range(len(m))]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-9, -2), min_size=1, max_size=7))
def test_bark_matches_cramer_rule(weights):
    """bark's continuants solve the twig's system as Cramer's rule does."""
    n = len(weights)
    m = [[weights[i] if i == j else int(abs(i - j) == 1) for j in range(n)]
         for i in range(n)]
    twig = [f"v{i}" for i in range(n)]
    assert bark(chain(*weights), twig) == dict(zip(twig, cramer_solve(m, [-1] + [0] * (n - 1))))


def test_bareiss_kernel_rescales_rows_that_sat_out_and_swaps():
    # tridiagonal: row 3 sits out steps 0 and 1 and joins at step 2
    m = [[-3, 1, 0, 0], [1, -3, 1, 0], [0, 1, -3, 1], [0, 0, 1, -3]]
    assert [p for _, p in graphs._bareiss(graphs._sparse(m), 4)] == [-3, 8, -21, 55]
    # two zero pivots force two swaps, so the sign comes back to +1; the
    # rows that sat out step 0 are rescaled by 4 or by 8 when they join
    m = [[0, 2, 1], [0, 0, 3], [4, 1, 0]]
    assert list(graphs._bareiss(graphs._sparse(m), 3)) == [(-1, 4), (1, 8), (1, 24)]
    assert det_exact(m) == leibniz_det(m) == 24


@pytest.mark.parametrize("m", [
    [[1, 2, 3], [4, 5, 6]],
    [[1, 2], [3, 4], [5, 6]],
    [[1, 2], [3]],
    [[1], [2, 3]],
])
def test_det_exact_rejects_non_square_or_ragged(m):
    with pytest.raises(DomainError, match="square"):
        det_exact(m)


@pytest.mark.parametrize("m, where", [
    ([[Fraction(1, 2), 1], [1, Fraction(1, 3)]], r"entry \(0, 0\) is Fraction\(1, 2\)"),
    ([[1.5, 0], [0, 2]], r"entry \(0, 0\) is 1\.5"),
    ([[Fraction(3, 2), 0], [0, 2]], r"entry \(0, 0\) is Fraction\(3, 2\)"),
    ([[1, 0], [0, 2.0]], r"entry \(1, 1\) is 2\.0"),
    ([[0, 0], [0, Fraction(4, 2)]], r"entry \(1, 1\) is Fraction\(2, 1\)"),
])
def test_exact_kernels_reject_non_integer_entries(m, where):
    """det_exact returned -1 for the first matrix (its determinant is
    -5/6) and the float 3.0 for the second, and smith_normal_form
    truncated the third's 3/2 to 1 and then failed its own recomposition
    check."""
    for kernel in det_exact, smith_normal_form:
        with pytest.raises(DomainError, match=f"{kernel.__name__} needs integer entries; {where}"):
            kernel(m)


def test_exact_kernels_check_only_nonzero_entries():
    # zeros of any type are skipped, as the sparse rows skip them
    assert det_exact([[2, 0.0], [Fraction(0), 3]]) == 6
    assert smith_normal_form([[2, 0.0], [Fraction(0), 3]]) == (1, 6)


def test_negative_definite_chain_but_not_zero_vertex():
    assert is_negative_definite(chain(-2, -2, -2))
    assert not is_negative_definite(chain(0, -2))
    # leading minors -1, 0: a zero pivot ends the pass, it is never divided by
    assert not is_negative_definite(chain(-1, -1, -5))
    # leading minors 0, -1: after a row swap the pivots would read -1, 1
    g = WeightedGraph("plumbing", [Vertex("a", 0), Vertex("b", -5)], [Edge("a", "b", -1)])
    assert not is_negative_definite(g)


def leading_minors_negative_definite(m):
    return all((-1) ** k * leibniz_det([row[:k] for row in m[:k]]) > 0
               for k in range(1, len(m) + 1))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_negative_definite_matches_leading_minors(data):
    g = data.draw(multigraphs(low=-6))
    subset = data.draw(st.sets(st.sampled_from(sorted(g.vertices))) | st.none())
    if subset is not None:
        g = g.induced(subset)
    expected = leading_minors_negative_definite(intersection_matrix(g))
    assert is_negative_definite(g) is expected



def snf_proof(matrix) -> tuple:
    """The arguments `smith_normal_form` gives `_check_snf`: a copy of the
    input's sparse rows, the diagonal it returns, the columns of U^-1 and
    the rows of V^-1."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_check_snf", lambda *args: seen.append(args) or _check_snf(*args))
        diagonal = smith_normal_form(matrix)
    (args,) = seen
    assert args[1] == diagonal
    return args


def dense(entries, width):
    """Sparse rows, or columns, as lists of width entries."""
    return [[e.get(j, 0) for j in range(width)] for e in entries]


def bumped(entries, t, k):
    """A copy of the sparse rows (or columns) with entry k of the t-th
    raised by one."""
    out = [dict(e) for e in entries]
    out[t][k] = out[t].get(k, 0) + 1
    return out


def doubled(entries, t):
    return [{k: 2 * x for k, x in e.items()} if s == t else dict(e)
            for s, e in enumerate(entries)]


def with_index(entries, t, k):
    """A copy with an entry 1 at index k, out of range, in the t-th."""
    out = [dict(e) for e in entries]
    out[t][k] = 1
    return out


def snf_tamperings() -> list:
    """(arguments to _check_snf, the message it must raise) for each check,
    each argument list wrong in one way."""
    a, diag, u, v = snf_proof([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    # rank 2: the last diagonal entry is zero, so the last column of
    # U^-1 and the last row of V^-1 are not seen by the recomposition
    sa, sdiag, su, sv = snf_proof([[2, 4, 4], [-6, 6, 12], [4, 8, 8]])
    assert sdiag[2] == 0
    return [
        ((a, diag[:2] + (diag[2] + 1,), u, v), "SNF recomposition failed"),
        ((a, diag, bumped(u, 0, 1), v), "SNF recomposition failed"),
        ((a, diag, u, bumped(v, 2, 1)), "SNF recomposition failed"),
        # these recompose, but each transform has determinant +-2
        ((sa, sdiag, doubled(su, 2), sv), "SNF transform not unimodular"),
        ((sa, sdiag, su, doubled(sv, 2)), "SNF transform not unimodular"),
        ((a, diag, u[:2], v), "SNF shapes disagree"),
        ((sa, sdiag[:2], su, sv), "SNF shapes disagree"),
        # an index past the end would fail the recomposition with an
        # IndexError; in a column or row the recomposition never reads,
        # it would pass unseen
        ((a, diag, with_index(u, 0, 3), v), "SNF shapes disagree"),
        ((sa, sdiag, with_index(su, 2, 3), sv), "SNF shapes disagree"),
        ((sa, sdiag, su, with_index(sv, 2, -1)), "SNF shapes disagree"),
        # identity transforms: each recomposes, out of Smith order
        (([{0: -1}], (-1,), [{0: 1}], [{0: 1}]), "SNF diagonal entry negative"),
        (([{0: 2}, {1: 3}], (2, 3), [{0: 1}, {1: 1}], [{0: 1}, {1: 1}]),
         "SNF divisibility violated"),
        (([{}, {1: 1}], (0, 1), [{0: 1}, {1: 1}], [{0: 1}, {1: 1}]),
         "SNF zero ordering violated"),
    ]


def test_check_snf_rejects_non_unimodular_transforms():
    # each recomposes (U_inv D V_inv == A), but U_inv or V_inv has
    # determinant 2, so its inverse is not an integer matrix
    for u, v in (2, 1), (1, 2):
        with pytest.raises(AssertionError, match="SNF transform not unimodular"):
            _check_snf([{0: 2}], (1,), [{0: u}], [{0: v}])


def test_check_snf_rejects_tampered_results():
    for args in snf_proof([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]), snf_proof([[0, 0], [0, 0]]):
        _check_snf(*args)
    for args, message in snf_tamperings():
        with pytest.raises(AssertionError, match=message):
            _check_snf(*args)


def test_check_snf_rejects_tampered_results_under_python_O():
    code = (
        "from plumbcalc.graphs import _check_snf\n"
        "from test_graphs import snf_tamperings\n"
        "for args, _ in snf_tamperings():\n"
        "    try:\n"
        "        _check_snf(*args)\n"
        "    except AssertionError as e:\n"
        "        print(e)\n"
    )
    src = str(Path(plumbcalc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(Path(__file__).parent)])}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout == "".join(f"{message}\n" for _, message in snf_tamperings())


@st.composite
def sparse_matrices(draw, max_rows, max_cols):
    """Integer matrices, mostly zeros, some rows and columns all zero."""
    m, n = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    zero_rows = draw(st.sets(st.integers(0, m - 1), max_size=m - 1))
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    entry = st.sampled_from([0, 0, 0]) | st.integers(-9, 9)
    return [[0 if i in zero_rows or j in zero_cols else draw(entry)
             for j in range(n)] for i in range(m)]


@settings(max_examples=200, deadline=None)
@given(sparse_matrices(4, 5))
def test_snf_diagonal_products_are_gcds_of_minors(a):
    """d_1 * ... * d_k is the gcd of all k x k minors."""
    diag = smith_normal_form(a)
    rows, cols = range(len(a)), range(len(a[0]))
    product = 1
    for k in range(1, len(diag) + 1):
        product *= diag[k - 1]
        minors = [det_exact([[a[i][j] for j in cs] for i in rs])
                  for rs in itertools.combinations(rows, k)
                  for cs in itertools.combinations(cols, k)]
        assert product == math.gcd(*minors)


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(8, 10) | multigraphs(low=-6).map(intersection_matrix))
def test_smith_normal_form_matches_sympy(a):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    s = sympy_snf(sympy.Matrix(a), domain=sympy.ZZ)
    assert smith_normal_form(a) == tuple(abs(int(s[i, i])) for i in range(min(s.shape)))


def test_smith_normal_form_factors_and_divisibility():
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    _, diag, u, v = snf_proof(m)
    assert diag == (2, 2, 156)
    # the recorded inverse transforms really factor the input, and they
    # are unimodular, so U = U_inv^-1 and V = V_inv^-1 give U m V == D
    def matmul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))
        ]
    u_inv = [list(col) for col in zip(*dense(u, 3))]
    d = [[x if i == j else 0 for j in range(3)] for i, x in enumerate(diag)]
    assert matmul(matmul(u_inv, d), dense(v, 3)) == m
    assert abs(leibniz_det(u_inv)) == abs(leibniz_det(dense(v, 3))) == 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_smith_normal_form_properties(rows):
    diag = smith_normal_form(rows)
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if b:
            assert a != 0 and b % a == 0


def scan_smith_normal_form(matrix) -> tuple:
    """The pivot choice `smith_normal_form` makes, found by scanning every
    entry of every row that has no pivot yet before each pivot: least
    (|entry|, row count * column count, row, column).  Otherwise the same
    elimination; the oracle for the pivot queue.  Returns what `snf_proof`
    does, which must be equal, transforms included."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    rows = graphs._sparse(matrix)
    cols = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    u_inv = [{i: 1} for i in range(m)]
    v_inv = [{j: 1} for j in range(n)]

    def row_op(i, p, f):
        ri = rows[i]
        for c, x in rows[p].items():
            y = ri.get(c, 0) - f * x
            if y:
                if c not in ri:
                    cols[c].add(i)
                ri[c] = y
            else:
                del ri[c]
                cols[c].discard(i)
        graphs._axpy(u_inv[p], u_inv[i], -f)

    def col_op(j, q, f):
        for r in cols[q]:
            rr = rows[r]
            y = rr.get(j, 0) - f * rr[q]
            if y:
                if j not in rr:
                    cols[j].add(r)
                rr[j] = y
            else:
                del rr[j]
                cols[j].discard(r)
        graphs._axpy(v_inv[q], v_inv[j], -f)

    live = dict.fromkeys(range(m))
    pivots = []
    while True:
        best = None
        for i in live:
            ri = rows[i]
            for j, x in ri.items():
                key = (abs(x), len(ri) * len(cols[j]), i, j)
                if best is None or key < best:
                    best, p, q = key, i, j
        if best is None:
            break
        while True:
            piv = rows[p][q]
            for r in [r for r in cols[q] if r != p]:
                f = rows[r][q] // piv
                if f:
                    row_op(r, p, f)
            rest = [r for r in cols[q] if r != p]
            if rest:
                p = min(rest, key=lambda r: abs(rows[r][q]))
                continue
            for j in [j for j in rows[p] if j != q]:
                f = rows[p][j] // piv
                if f:
                    col_op(j, q, f)
            rest = [j for j in rows[p] if j != q]
            if rest:
                q = min(rest, key=lambda j: abs(rows[p][j]))
                continue
            if piv not in (1, -1):
                r = next((r for r in live
                          if r != p and any(x % piv for x in rows[r].values())), None)
                if r is not None:
                    row_op(p, r, -1)
                    continue
            break
        if piv < 0:
            rows[p][q] = -piv
            u_inv[p] = {c: -x for c, x in u_inv[p].items()}
        del live[p]
        pivots.append((p, q))
    done = {q for _, q in pivots}
    diagonal = tuple(rows[p][q] for p, q in pivots) + (0,) * (min(m, n) - len(pivots))
    return (
        graphs._sparse(matrix),
        diagonal,
        [u_inv[p] for p, _ in pivots] + [u_inv[i] for i in live],
        [v_inv[q] for _, q in pivots] + [v_inv[j] for j in range(n) if j not in done],
    )


@st.composite
def tie_heavy_matrices(draw, entries=(-2, -1, 1, 2)):
    """Sparse matrices of any shape up to 12 x 12 with some rows and
    columns all zero.  The default entries, -2..2, tie often on |entry|
    and on the Markowitz product; entries with common factors make pivots
    that must be mended by adding a row."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    zero_rows = draw(st.sets(st.integers(0, m - 1), max_size=m))
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=n))
    density = draw(st.sampled_from([0.2, 0.5, 0.8]))
    entry = st.sampled_from(entries)
    return [[draw(entry) if i not in zero_rows and j not in zero_cols
             and draw(st.floats(0, 1)) < density else 0
             for j in range(n)] for i in range(m)]


@settings(max_examples=500, deadline=None)
@given(tie_heavy_matrices() | tie_heavy_matrices((-6, -4, 2, 3, 9))
       | multigraphs(low=-3).map(intersection_matrix))
# a remainder takes over as pivot row, so the row operations made before
# it changed counts of columns that no column operation then clears
@example([[4, 2, 0, 0, 0], [4, 0, 2, 9, 3], [2, 0, 0, 3, 0], [4, -6, 9, 0, 0]])
# a row operation fills in row 0 at column 0, after column 1 in the row's
# dict: the pivot is (0, 2), row 1 takes over, and then row 0 -= 2 * row
# 1; the two entries then tie, and the lesser column, 0, wins
@example([[0, 6, 2], [6, 3, 3]])
def test_pivot_queue_matches_the_scan(a):
    assert snf_proof(a) == scan_smith_normal_form(a)


@pytest.mark.parametrize("d", [2, 8, 32, 48, 160])
def test_pivot_queue_matches_the_scan_on_family_matrices(d):
    """Every rung of the benchmark ladder and (160, 161): the boundary
    graph, its plumbing graph (whose matrix h1_from_graph reduces) and
    that graph's normal form."""
    fam = build_boundary_graph(d, d + 1)
    plumbed = from_divisor_graph(fam.d_part())
    for g in fam.graph, plumbed, normalize(plumbed).graph:
        a = intersection_matrix(g)
        assert snf_proof(a) == scan_smith_normal_form(a)


def test_cokernel_examples():
    # Z/2 (+) Z/3 lands in the canonical SNF shape Z/6
    assert cokernel([[2, 0], [0, 3]]) == AbelianGroup(0, (6,))
    assert cokernel([[2, 0], [0, 4]]) == AbelianGroup(0, (2, 4))
    assert cokernel([[0, 0]]) == AbelianGroup(1, ())
    assert cokernel([[1]]) == AbelianGroup(0, ())


def test_empty_inputs_take_the_general_path():
    """The empty matrix, graph and presentation get their answers from
    the general code, with no branch of their own: the trivial group, and
    the empty order and encoding."""
    assert cokernel([]) == AbelianGroup(0, ())
    assert h1_from_graph(WeightedGraph("plumbing", [], [])) == AbelianGroup(0, ())
    assert abelianization(GroupPresentation((), ())) == AbelianGroup(0, ())
    for kind in ("divisor", "plumbing"):
        empty = WeightedGraph(kind, [], [])
        assert canonical_ordering(empty) == ()
        assert canonical_encoding(empty) == (kind, (), ())
        assert graphs_isomorphic(empty, WeightedGraph(kind, [], [])) == (True, {})


def test_smith_normal_form_calls_per_caller(monkeypatch):
    """graphs.smith_normal_form.calls in the benchmark counts these calls,
    all through cokernel, which looks the name up in graphs."""
    calls = []
    kernel = graphs.smith_normal_form
    monkeypatch.setattr(graphs, "smith_normal_form",
                        lambda matrix: calls.append(1) or kernel(matrix))
    plumbed = from_divisor_graph(build_boundary_graph(2, 3).d_part())
    nf = normalize(plumbed)
    presentation = pi1_presentation(2, 3)
    for run, expected in ((lambda: h1_from_graph(plumbed), 1),
                          (lambda: abelianization(presentation), 1),
                          (lambda: reverse_orientation(nf), 2)):
        calls.clear()
        run()
        assert len(calls) == expected


def test_abelian_group_display():
    assert str(AbelianGroup(0, ())) == "0"
    assert str(AbelianGroup(1, ())) == "Z"
    assert str(AbelianGroup(2, (2, 4))) == "Z + Z + Z/2 + Z/4"


# -- segments ------------------------------------------------------------------


def test_classify_segments_plain_chain():
    rep = classify_segments(chain(-3, 0, -5))
    assert rep.branching == frozenset()
    assert len(rep.segments) == 1
    seg = rep.segments[0]
    assert seg.chain_type == ChainType((3, 0, 5))
    assert not seg.chain_type.circular


def test_classify_segments_star():
    # central vertex with three arms of length 1
    vs = [Vertex("c", -2)] + [Vertex(f"a{i}", -2) for i in range(3)]
    es = [Edge("c", f"a{i}") for i in range(3)]
    g = WeightedGraph("divisor", vs, es)
    rep = classify_segments(g)
    assert rep.branching == frozenset({"c"})
    types = sorted(str(s.chain_type) for s in rep.segments)
    assert types == ["[2]", "[2]", "[2]"]


def test_classify_segments_cycle_is_circular():
    rep = classify_segments(cycle(0, 0, -2, -3))
    assert len(rep.segments) == 1
    assert rep.segments[0].chain_type.circular


def test_branching_set_catches_loops_genus_boundary():
    g = WeightedGraph(
        "plumbing",
        [Vertex("a", -2, genus=1), Vertex("b", -2), Vertex("c", -2, boundary=1)],
        [Edge("a", "b"), Edge("b", "c"), Edge("b", "b")],
    )
    rep = classify_segments(g)
    assert rep.branching == frozenset({"a", "b", "c"})


def test_double_edge_into_the_branching_set_is_two_attachments():
    """A chain vertex joined to a branching vertex by two parallel edges
    meets it twice: a bridge from b to b, not a twig."""
    g = WeightedGraph(
        "plumbing",
        [Vertex("a", -4), Vertex("b", -4)],
        [Edge("a", "b", -1), Edge("a", "b", -1), Edge("b", "b", -1)],
    )
    (seg,) = classify_segments(g).segments
    assert seg.vertices == ("a",) and seg.attachments == ("b", "b")
    assert not seg.is_twig


def test_two_parallel_edges_between_chain_vertices_are_a_cycle():
    """Two non-branching vertices joined by two parallel edges form a
    2-cycle (b1 = 1): one circular segment, not a free linear chain."""
    g = WeightedGraph(
        "plumbing",
        [Vertex("a", -3), Vertex("c", -2)],
        [Edge("a", "c", 1), Edge("a", "c", 1)],
    )
    (seg,) = classify_segments(g).segments
    assert seg.vertices == ("a", "c")
    assert seg.chain_type == ChainType((2, 3), circular=True)
    assert seg.attachments == (None, None)
    assert not seg.is_twig


@settings(max_examples=200, deadline=None)
@given(multigraphs(decorated=True))
def test_segments_are_circular_exactly_on_cycles(g):
    """Each component of the graph minus its branching set is a path or a
    cycle; its segment is circular exactly when it has as many edges as
    vertices, and lists every vertex once."""
    report = classify_segments(g)
    covered = []
    for seg in report.segments:
        inside = set(seg.vertices)
        edges = [e for e in g.edges if e.u in inside and e.v in inside]
        assert seg.chain_type.circular == (len(edges) == len(inside))
        assert len(seg.chain_type.entries) == len(seg.vertices)
        covered += seg.vertices
    assert sorted(covered) == sorted(set(g.vertices) - report.branching)


@settings(max_examples=100, deadline=None)
@given(multigraphs(decorated=True))
def test_one_branching_rule(g):
    """classify_segments and branching_set agree, and the branching number
    counts edge ends, a loop twice."""
    b = graphs.branching_set(g)
    assert classify_segments(g).branching == b
    for vid, v in g.vertices.items():
        ends = sum((e.u == vid) + (e.v == vid) for e in g.edges)
        assert branching_number(g, vid) == ends
        loop = any(e.u == e.v == vid for e in g.edges)
        assert (vid in b) == bool(v.genus or v.boundary or loop or ends >= 3)


# The chain walk as it was before it walked each chain once: a DFS over a
# sorted sub-adjacency finds each chain and a second walk orders it.  Kept
# verbatim as the reference the one-walk version must match.
def oracle_chains(g: WeightedGraph, around: dict, b: frozenset):
    """Yield (vertex order, circular) for each maximal chain of the graph
    minus the branching set b, on the graph's `around` index.

    Chains come in the id order of their least vertex.  A path is walked
    from its least tip, a cycle from its least vertex toward that
    vertex's least neighbour.
    """
    rest = [vid for vid in g.sorted_ids() if vid not in b]
    sub_adj = {
        vid: sorted(x for x, _ in around[vid] if x not in b)
        for vid in rest
    }
    seen: set[str] = set()
    for start in rest:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in sub_adj[x]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        tip = min((x for x in comp if len(sub_adj[x]) <= 1), default=None)
        if tip is None:
            yield _walk_cycle(sub_adj, min(comp)), True
        else:
            yield _walk_path(sub_adj, tip), False


def _walk_path(adj, tip):
    order = [tip]
    prev = None
    cur = tip
    while True:
        nxt = [x for x in adj[cur] if x != prev]
        if not nxt:
            return order
        prev, cur = cur, nxt[0]
        order.append(cur)


def _walk_cycle(adj, start):
    """The cycle from start, first toward its least neighbour; each step
    leaves by an edge end other than the one it came in by, so a 2-cycle
    of parallel edges closes."""
    order = [start]
    prev = None
    cur = start
    while True:
        ends = list(adj[cur])
        if prev is not None:
            ends.remove(prev)
        step = min(ends)
        if step == start:
            return order
        order.append(step)
        prev, cur = cur, step


@st.composite
def chain_graphs(draw):
    """Divisor graphs and plumbing multigraphs on 1-10 vertices whose ids
    sort in a drawn order, sparse enough for long chains: cycles, 2-cycles
    of parallel edges, loops, isolated vertices and decorated vertices."""
    ids = draw(st.permutations([f"c{i}" for i in range(draw(st.integers(1, 10)))]))
    deco = st.sampled_from([0, 0, 0, 0, 1])
    vs = [Vertex(x, draw(st.integers(-3, 1)), draw(deco), draw(deco)) for x in ids]
    if draw(st.booleans()):
        pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
        chosen = draw(st.sets(st.sampled_from(pairs), max_size=12)) if pairs else ()
        return WeightedGraph("divisor", vs, [Edge(a, b) for a, b in chosen])
    edge = st.builds(Edge, st.sampled_from(ids), st.sampled_from(ids),
                     st.sampled_from([1, -1]))
    return WeightedGraph("plumbing", vs, draw(st.lists(edge, max_size=14)))


@settings(max_examples=400, deadline=None)
@given(chain_graphs() | multigraphs(decorated=True))
@example(cycle(0, -2, -3))
@example(cycle(-1, 0, -2, -4, -3, kind="plumbing"))
@example(WeightedGraph("plumbing", [Vertex("a", -3), Vertex("c", -2)],
                       [Edge("a", "c", 1), Edge("a", "c", -1)]))
@example(WeightedGraph("plumbing", [Vertex("b", 0), Vertex("a", -1), Vertex("z", 2)],
                       [Edge("a", "a", 1), Edge("a", "b", 1)]))
@example(build_boundary_graph(3, 4).d_part())
@example(from_divisor_graph(build_boundary_graph(1, 1).d_part()))
def test_chains_match_the_dfs_oracle(g):
    """The one walk over the sorted ids, the one `classify_segments`
    makes, yields the same chains, in the same order, each with the same
    circular flag and, once a path is turned to start at its least tip,
    the same vertex order."""
    b = graphs.branching_set(g)
    walked = []
    for order, circular in graphs._chains_through(g, b, g.sorted_ids()):
        if not circular and order[-1] < order[0]:
            order.reverse()
        walked.append((order, circular))
    assert walked == list(oracle_chains(g, g.around, b))


# -- isomorphism ----------------------------------------------------------------


def test_isomorphic_to_relabeled_self():
    g = cycle(0, 0, -1, -1)
    relabel = {"v0": "p", "v1": "q", "v2": "r", "v3": "s"}
    h = WeightedGraph(
        g.kind,
        [Vertex(relabel[v.id], v.weight) for v in g.vertices.values()],
        [Edge(relabel[e.u], relabel[e.v], e.sign) for e in g.edges],
    )
    iso, mapping = graphs_isomorphic(g, h)
    assert iso
    assert mapping == relabel


def test_not_isomorphic_when_weights_differ():
    iso, mapping = graphs_isomorphic(chain(-2, -3), chain(-2, -2))
    assert not iso and mapping is None


def test_isomorphism_sees_edge_signs():
    a = WeightedGraph(
        "plumbing", [Vertex("x", 0), Vertex("y", 0)], [Edge("x", "y", 1)]
    )
    b = WeightedGraph(
        "plumbing", [Vertex("x", 0), Vertex("y", 0)], [Edge("x", "y", -1)]
    )
    assert not graphs_isomorphic(a, b)[0]


def test_graphs_isomorphic_exits_early_on_different_branching(monkeypatch):
    calls = []
    real = graphs._canonical_search
    monkeypatch.setattr(graphs, "_canonical_search",
                        lambda g: calls.append(g) or real(g))
    path = chain(-2, -2, -2, -2)
    star = WeightedGraph("divisor", [Vertex(f"v{i}", -2) for i in range(4)],
                         [Edge("v0", f"v{i}") for i in (1, 2, 3)])
    # same weights, four vertices and three edges each; branching 1,2,2,1 vs 3,1,1,1
    assert graphs_isomorphic(path, star) == (False, None)
    assert calls == []
    assert graphs_isomorphic(star, star)[0]
    assert len(calls) == 2


def relabeled(g, rng):
    """A copy of g under fresh vertex names handed out in a random order."""
    ids = list(g.vertices)
    rng.shuffle(ids)
    relabel = {old: f"m{k}" for k, old in enumerate(ids)}
    return WeightedGraph(
        g.kind,
        [Vertex(relabel[v.id], v.weight, v.genus, v.boundary) for v in g.vertices.values()],
        [Edge(relabel[e.u], relabel[e.v], e.sign) for e in g.edges],
    )


def frucht_graph():
    """3-regular on 12 vertices with no automorphism but the identity."""
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    pairs = {frozenset((i, (i + 1) % 12)) for i in range(12)}
    pairs |= {frozenset((i, (i + s) % 12)) for i, s in enumerate(lcf)}
    return WeightedGraph(
        "plumbing",
        [Vertex(f"f{i}", -2) for i in range(12)],
        [Edge(*(f"f{i}" for i in p)) for p in pairs],
    )


def latin_square_graph(n):
    """Cells of the addition table of Z/n, adjacent when they share a row,
    a column or an entry: strongly regular, so refinement alone splits
    nothing."""
    cells = [(r, c) for r in range(n) for c in range(n)]
    return WeightedGraph(
        "plumbing",
        [Vertex(f"c{r}{c}", -2) for r, c in cells],
        [Edge(f"c{r}{c}", f"c{s}{d}")
         for (r, c), (s, d) in itertools.combinations(cells, 2)
         if r == s or c == d or (r + c - s - d) % n == 0],
    )


# The colour refinement as it read the incidence index edge by edge, kept
# as the reference the one-pass version must match colour for colour.
def oracle_initial_colors(g: WeightedGraph):
    cols = {}
    for vid, v in g.vertices.items():
        loops = tuple(sorted(e.sign for e in g.edges_at(vid) if e.is_loop))
        cols[vid] = (v.weight, v.genus, v.boundary, branching_number(g, vid), loops)
    return cols


def oracle_refine(g: WeightedGraph, cols):
    """Weisfeiler-Leman style color refinement until stable.

    Signatures always include the current color, so the partition only
    ever refines; stability is detected by the class count.
    """
    while True:
        sig = {}
        for vid in g.vertices:
            around = []
            for e in g.edges_at(vid):
                if e.is_loop:
                    continue
                around.append((cols[e.v if e.u == vid else e.u], e.sign))
            sig[vid] = (cols[vid], tuple(sorted(around)))
        ordered = sorted(set(sig.values()))
        remap = {s: i for i, s in enumerate(ordered)}
        new = {vid: remap[sig[vid]] for vid in g.vertices}
        if len(set(new.values())) == len(set(cols.values())):
            return new
        cols = new


def signed_path():
    """a - b - c with edge signs +1 and -1: only the signs tell a from c."""
    return WeightedGraph("plumbing", [Vertex(x, -2) for x in "abc"],
                         [Edge("a", "b", 1), Edge("b", "c", -1)])


@settings(max_examples=100, deadline=None)
@given(multigraphs(decorated=True), st.lists(st.integers(0, 5), max_size=4))
@example(signed_path(), [])
@example(from_divisor_graph(build_boundary_graph(2, 3).d_part()), [])
@example(frucht_graph(), [0, 1])
@example(normalize(from_divisor_graph(build_boundary_graph(16, 16).d_part())).graph,
         [0, 1])
def test_refinement_matches_the_per_edge_oracle(g, picks):
    """The refinement on the graph's incidence index gives the colour
    values of the per-edge refinement it replaced, at the root and after
    each individualization (of the pick-th vertex in id order), so the
    search's leaves and orders are unchanged."""
    old = oracle_initial_colors(g)
    new = graphs._initial_colors(g)
    assert new == old
    ids = sorted(g.vertices)
    for i in picks:
        old = oracle_refine(g, old)
        new = graphs._refine(g, new)
        assert new == old
        x = ids[i % len(ids)]
        old = {v: (old[v], v != x) for v in old}
        new = {v: (new[v], v != x) for v in new}
    assert graphs._refine(g, new) == oracle_refine(g, old)


@settings(max_examples=50, deadline=None)
@given(multigraphs(decorated=True), st.randoms(use_true_random=False))
@example(frucht_graph(), random.Random(1))
@example(latin_square_graph(4), random.Random(1))
@example(normalize(from_divisor_graph(build_boundary_graph(16, 16).d_part())).graph,
         random.Random(1))
def test_canonical_encoding_invariant_under_relabeling(g, rng):
    encodings = {canonical_encoding(relabeled(g, rng)) for _ in range(40)}
    assert encodings == {canonical_encoding(g)}
    assert graphs_isomorphic(g, relabeled(g, rng))[0]


def test_canonical_search_leaves_no_reference_cycles():
    """Each search frees its colourings and best leaf by
    reference counting alone, without the cyclic collector."""
    g = build_boundary_graph(3, 4).d_part()
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            canonical_encoding(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=100, deadline=None)
@given(multigraphs(decorated=True), multigraphs(decorated=True),
       st.randoms(use_true_random=False), st.data())
def test_graphs_isomorphic_matches_networkx_vf2(g, other, rng, data):
    nx = pytest.importorskip("networkx")

    def multigraph(graph):
        m = nx.MultiGraph()
        for v in graph.vertices.values():
            m.add_node(v.id, deco=(v.weight, v.genus, v.boundary))
        for e in graph.edges:
            m.add_edge(e.u, e.v, sign=e.sign)
        return m

    def vf2(a, b):
        return nx.is_isomorphic(
            multigraph(a), multigraph(b),
            node_match=lambda x, y: x["deco"] == y["deco"],
            edge_match=lambda x, y: (sorted(e["sign"] for e in x.values())
                                     == sorted(e["sign"] for e in y.values())),
        )

    h = relabeled(g, rng)
    vid = data.draw(st.sampled_from(sorted(h.vertices)))
    bump = {vid: data.draw(st.sampled_from([-1, 1]))}
    bumped = WeightedGraph(h.kind, reweighted(h.vertices.values(), bump).values(), h.edges)
    for b in (h, bumped, other):
        assert graphs_isomorphic(g, b)[0] == vf2(g, b)


# -- incidence index and immutability ---------------------------------------------


def assert_index_matches_scan(g):
    """edges_at, neighbors, branching_number and the index behind them,
    around and loops, agree with a scan of g.edges at every vertex."""
    assert list(g.around) == list(g.loops) == list(g.vertices)
    for vid in g.vertices:
        scan = [e for e in g.edges if e.u == vid or e.v == vid]
        assert list(g.edges_at(vid)) == scan
        assert g.around[vid] == [(e.v if e.u == vid else e.u, e.sign) for e in scan
                                 if not e.is_loop]
        assert g.loops[vid] == tuple(sorted(e.sign for e in scan if e.is_loop))
        assert g.neighbors(vid) == sorted({e.v if e.u == vid else e.u for e in scan
                                           if not e.is_loop})
        assert branching_number(g, vid) == sum((e.u == vid) + (e.v == vid) for e in g.edges)


def rebuild(g) -> tuple:
    """The edges, around and loops of g's vertex list and edge multiset,
    built independently of `_derive`: the edges sorted by `_edge_key`,
    each edge's two ends appended to around and each loop's sign prepended
    to loops, which leaves the +1 copies first and the loop signs
    ascending."""
    edges = tuple(sorted(g.edges, key=_edge_key))
    around = {vid: [] for vid in g.vertices}
    loops = dict.fromkeys(g.vertices, ())
    for u, v, s in edges:
        if u == v:
            loops[u] = (s, *loops[u])
        else:
            around[u].append((v, s))
            around[v].append((u, s))
    return edges, around, loops


def assert_matches_rebuild(g):
    """g's edges, around and loops, their orders included, are those of
    `rebuild`."""
    edges, around, loops = rebuild(g)
    assert g.edges == edges
    assert list(g.around.items()) == list(around.items())
    assert list(g.loops.items()) == list(loops.items())


def assert_moves_keep_input(g, moves):
    """Each move that applies gives a graph whose index matches a scan and
    a rebuild, and leaves g, its index included, as it was; the graphs the
    moves give."""
    def state():
        return (canonical_json(g.to_json_dict()), list(g.vertices.items()),
                {vid: list(at) for vid, at in g.around.items()}, dict(g.loops))

    before = state()
    outs = []
    for move in moves:
        try:
            out = move()
        except DomainError:
            continue
        assert_index_matches_scan(out)
        assert_matches_rebuild(out)
        outs.append(out)
    assert state() == before
    return outs


def test_incidence_index_on_loops_parallel_edges_and_an_isolated_vertex():
    """Loops of both signs, signed parallel edges on both sides of the
    loop carrier in id order, and an isolated vertex."""
    g = WeightedGraph("plumbing", [Vertex(x, -1) for x in "abcd"],
                      [Edge("b", "b", -1), Edge("b", "b", 1), Edge("c", "b", -1),
                       Edge("b", "c", 1), Edge("a", "b", 1), Edge("a", "b", 1),
                       Edge("a", "c", -1)])
    assert_index_matches_scan(g)
    assert g.around["b"] == [("a", 1), ("a", 1), ("c", 1), ("c", -1)]
    assert g.loops["b"] == (-1, 1)
    assert g.around["d"] == [] and g.loops["d"] == ()
    assert [tuple(e) for e in g.edges_at("b")] == [
        ("a", "b", 1), ("a", "b", 1), ("b", "b", 1), ("b", "b", -1),
        ("b", "c", 1), ("b", "c", -1)]


def plumbing_moves(g, data):
    moves = []
    for vid in g.vertices:
        eps, s1 = data.draw(st.sampled_from([1, -1])), data.draw(st.sampled_from([1, -1]))
        moves += [
            lambda vid=vid: move_R1(g, vid),
            lambda vid=vid: move_R3(g, vid),
            lambda vid=vid: flip_vertex_signs(g, vid),
            lambda vid=vid, eps=eps, s1=s1: _insert(g, vid, eps, fresh_id(g.vertices), s1),
        ]
    if g.edges:
        edge = data.draw(st.sampled_from(g.edges))
        eps, s1 = data.draw(st.sampled_from([1, -1])), data.draw(st.sampled_from([1, -1]))
        moves.append(lambda: _insert(g, edge, eps, fresh_id(g.vertices), s1))
    flip = {vid: data.draw(st.sampled_from([1, -1])) for vid in g.vertices}
    moves += [lambda: _regauge(g, flip),
              lambda: _dualize_positive_twigs(g, []),
              lambda: _dualize_positive_twigs(_negate(g), [])]
    # _cut_torus takes a graph whose one cycle is a loop or a double edge
    if first_betti(g) == 1 and (any(g.loops.values())
                                or len({e[:2] for e in g.edges}) < len(g.edges)):
        moves.append(lambda: _cut_torus(g))
    return moves


def divisor_moves(d, data):
    moves = []
    for vid in d.vertices:
        moves += [lambda vid=vid: blow_up(d, vid),
                  lambda vid=vid: blow_down(d, vid)]
        moves += [lambda vid=vid, n=n: elementary_flow(d, vid, n)
                  for n in d.neighbors(vid)]
    if d.edges:
        edge = data.draw(st.sampled_from(d.edges))
        moves.append(lambda: blow_up(d, edge))
    return moves


@settings(max_examples=100, deadline=None)
@given(multigraphs(), st.data())
def test_incidence_index_matches_edge_scan_and_moves_copy(g, data):
    """Sequences of up to six moves, from a plumbing multigraph with loops
    and signed parallel edges and from the simple divisor graph under it:
    after each step every move's graph matches a scan and a rebuild and
    leaves its input as it was, and one of them is the next step."""
    d = WeightedGraph("divisor", list(g.vertices.values()),
                      {Edge(e.u, e.v) for e in g.edges if not e.is_loop})
    for cur, moves in (g, plumbing_moves), (d, divisor_moves):
        assert_index_matches_scan(cur)
        for _ in range(data.draw(st.integers(1, 6))):
            outs = assert_moves_keep_input(cur, moves(cur, data))
            if not outs:
                break
            cur = data.draw(st.sampled_from(outs))


def test_derived_family_edits_match_rebuild():
    """Twig dualization, the gauge move with mixed flips and the JSJ cut
    on family normal forms match a rebuild.  Dualizing the negated
    reversal drops the Z twigs the first reversal added and gives their
    ids back to the new vertices."""
    for d1, d2 in (1, 1), (1, 4), (3, 2), (5, 6):
        nf = normalize(from_divisor_graph(build_boundary_graph(d1, d2).d_part()))
        again, log = _negate(reverse_orientation(nf).graph), []
        flip = {vid: (-1) ** i for i, vid in enumerate(nf.graph.vertices)}
        outs = assert_moves_keep_input(nf.graph, [
            lambda: _dualize_positive_twigs(_negate(nf.graph), []),
            lambda: _dualize_positive_twigs(again, log),
            lambda: _regauge(nf.graph, flip),
            lambda: _cut_torus(nf.graph)])
        assert len(outs) == 4
        assert all(set(e["removed"]) & set(e["added"]) for e in log)
        assert log or (d1, d2) == (1, 1)


def pvs(*ids):
    return [Vertex(x, -2) for x in ids]


def pes(*triples):
    return [Edge(u, v, s) for u, v, s in triples]


@pytest.mark.parametrize("g, edit, vertices, edges", [
    # two adjacent dropped vertices: their two parallel edges are cut once
    (WeightedGraph("plumbing", pvs("a", "b", "c", "d"),
                   pes(("a", "b", 1), ("b", "c", 1), ("b", "c", -1), ("c", "d", -1),
                       ("a", "d", 1))),
     {"drop": ("c", "b")}, pvs("a", "d"), pes(("a", "d", 1))),
    (WeightedGraph("divisor", pvs("a", "b", "c", "d"),
                   pes(("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("b", "d", 1))),
     {"drop": ("b", "c")}, pvs("a", "d"), []),
    # parallel edges and loops on the dropped vertex
    (WeightedGraph("plumbing", pvs("a", "b", "c"),
                   pes(("a", "b", 1), ("a", "b", -1), ("a", "b", 1), ("b", "b", -1),
                       ("b", "b", 1), ("b", "c", 1), ("a", "c", -1), ("a", "a", 1))),
     {"drop": ("b",)}, pvs("a", "c"), pes(("a", "c", -1), ("a", "a", 1))),
    # a put that re-adds a dropped id goes last, with only the added edges
    (WeightedGraph("plumbing", pvs("Z1", "a", "Z2"),
                   pes(("a", "Z1", 1), ("Z1", "Z2", -1), ("Z1", "Z1", 1))),
     {"drop": ("Z1", "Z2"), "put": {"Z1": Vertex("Z1", -3)}, "add": pes(("a", "Z1", -1))},
     [Vertex("a", -2), Vertex("Z1", -3)], pes(("a", "Z1", -1))),
    (WeightedGraph("divisor", pvs("Z1", "a", "b"), pes(("a", "Z1", 1), ("b", "Z1", 1))),
     {"drop": ("Z1",), "put": {"Z1": Vertex("Z1", -3)}, "add": pes(("a", "Z1", 1))},
     [*pvs("a", "b"), Vertex("Z1", -3)], pes(("a", "Z1", 1))),
])
def test_derive_drops_several_vertices_like_the_constructor(g, edit, vertices, edges):
    """_derive with several dropped vertices, parallel edges and loops at
    them, and a dropped id put back, gives the vertex list and edges
    expected, matches `rebuild` and leaves its input as it was."""
    (out,) = assert_moves_keep_input(g, [lambda: g._derive(**edit)])
    assert list(out.vertices.values()) == vertices
    assert out.edges == tuple(sorted(edges, key=_edge_key))


def test_family_blowups_match_rebuild():
    """build_by_blowups derives every blowup and the final relabelling."""
    g, _ = build_by_blowups(FamilyParams.default(3, 4))
    assert_index_matches_scan(g.graph)
    assert_matches_rebuild(g.graph)
    assert g.graph == build_boundary_graph(3, 4).graph


def contract_errors():
    """(move, message): derived builds on a divisor triangle that break a
    divisor rule, with the message the constructor gives for the graph
    they would build."""
    tri = cycle(-1, -2, -2)
    return [
        (lambda: _contract(tri, "v0"),
         "divisor graphs cannot carry multi-edges ('v1','v2')"),
        (lambda: _insert(tri, "v1", -1, "E", s1=-1),
         "divisor graphs have only +1 edges"),
        (lambda: _insert(tri, Edge("v1", "v2"), 1, "E"),
         "divisor graphs have only +1 edges"),
    ]


def test_derived_divisor_builds_check_the_divisor_rules():
    for move, message in contract_errors():
        with pytest.raises(DomainError) as e:
            move()
        assert str(e.value) == message


def test_derived_divisor_builds_check_the_divisor_rules_under_python_O():
    code = (
        "from plumbcalc.graphs import DomainError\n"
        "from test_graphs import contract_errors\n"
        "for move, _ in contract_errors():\n"
        "    try:\n"
        "        move()\n"
        "    except DomainError as e:\n"
        "        print(e)\n"
    )
    src = str(Path(plumbcalc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(Path(__file__).parent)])}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout == "".join(f"{message}\n" for _, message in contract_errors())


# -- library-wide self-checks ----------------------------------------------------


def test_library_has_no_bare_asserts():
    """python -O strips assert statements, so self-checks must raise."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(plumbcalc.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def library_functions(found):
    """The "module.qualname" of each library function or method that holds
    a node for which found(node) is true, and "module" for such a node
    outside them."""
    hits = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if found(child):
                hits.add(where)
            visit(child, where)

    for path in sorted(Path(plumbcalc.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return hits


def calls_constructor(node) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id == "WeightedGraph"
            or isinstance(func, ast.Attribute) and func.attr == "WeightedGraph")


def test_only_outside_data_and_whole_graph_maps_call_the_constructor():
    """A partial edit derives its graph from its parent (`_derive`); the
    constructor reads outside data and maps every element.  A new
    rebuild path fails here."""
    assert library_functions(calls_constructor) == {
        "graphs.WeightedGraph.from_json_dict", "family.build_boundary_graph",
        "family.build_by_blowups", "plumbing.from_divisor_graph", "plumbing._negate",
    }


INDEX_SLOTS = {"edges", "around", "loops"}


def writes_index_slot(node) -> bool:
    """An assignment or deletion of an edges, around or loops attribute,
    or a setattr/delattr call that names one."""
    if isinstance(node, ast.Attribute):
        return node.attr in INDEX_SLOTS and isinstance(node.ctx, (ast.Store, ast.Del))
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("setattr", "delattr") and len(node.args) > 1
            and not (isinstance(node.args[1], ast.Constant)
                     and node.args[1].value not in INDEX_SLOTS))


def test_only_derive_builds_the_edges_and_the_index():
    """Every graph's edges, around and loops are filled in by `_derive`,
    the one builder of the edges, the incidence index and the divisor
    rules; a second builder fails here."""
    assert library_functions(writes_index_slot) == {"graphs.WeightedGraph._derive"}


def library_imports():
    """("file:line", top-level module) for each absolute import in the
    library's modules."""
    for path in sorted(Path(plumbcalc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                yield f"{path.name}:{node.lineno}", name.split(".")[0]


def test_library_does_not_import_dataclasses():
    """Records are namedtuple subclasses: generating dataclass code, and
    importing `dataclasses` with `inspect` behind it, cost every CLI run
    most of its start-up time."""
    assert [where for where, top in library_imports() if top == "dataclasses"] == []


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """A fresh interpreter without site packages imports the CLI and
    neither `dataclasses` nor `inspect`."""
    code = ("import plumbcalc.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = str(Path(plumbcalc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout == "[]\n"


def test_library_is_stdlib_only():
    """The runtime imports nothing outside the standard library."""
    allowed = sys.stdlib_module_names | {"plumbcalc"}
    assert [(where, top) for where, top in library_imports()
            if top not in allowed] == []


# Library definitions that no entry point reaches.  Tests call them, and
# each awaits a caller on the paper's chain or its removal; a new
# definition that nothing reaches fails the reachability test, and one
# that gains a caller or leaves the library must leave this list.
UNREACHED = {
    ("invariants", "same_two_bridge_class"),
}


def library_definitions():
    """({(module, name): node} for each top-level function, class and
    assigned name of the library, {module: {local name: (module, name)}}
    for its relative imports, name None for a whole module)."""
    defs, imports = {}, {}
    for path in sorted(Path(plumbcalc.__file__).parent.glob("*.py")):
        mod, names = path.stem, {}
        imports[mod] = names
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        defs[mod, target.id] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    names[alias.asname or alias.name] = (
                        (node.module, alias.name) if node.module else (alias.name, None))
    return defs, imports


def references(node, mod, defs, imports):
    """The library definitions a node names: its module's own top-level
    names, names imported from a sibling module, and `module.name` for an
    imported module.  A local that shadows a top-level name counts, so
    this over-approximates; a class's methods count with the class."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            hit = (mod, n.id) if (mod, n.id) in defs else imports[mod].get(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            via = imports[mod].get(n.value.id)
            hit = (via[0], n.attr) if via and via[1] is None else None
        else:
            continue
        if hit in defs:
            yield hit


def traced_names() -> list:
    """(module, name) for each library function that perfbench/tracing.py
    wraps, read from its TRACED literal without importing perfbench."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED":
            return [(mod, name) for mod, names in ast.literal_eval(node.value).items()
                    for name in names]
    raise AssertionError("perfbench/tracing.py defines no TRACED")


def test_every_name_the_tracer_patches_is_a_library_callable():
    """The tracer rebinds each TRACED name in its module, and
    `WeightedGraph.__init__` and `edges_at` on the class, to count calls
    and time spans.  A change that renames or inlines one of them fails
    here, not first in a traced benchmark run."""
    named = traced_names()
    assert named
    for mod, name in named:
        module = importlib.import_module(f"plumbcalc.{mod}")
        assert callable(getattr(module, name, None)), f"{mod}.{name}"
    for name in "__init__", "edges_at":
        assert callable(vars(WeightedGraph).get(name)), f"WeightedGraph.{name}"


def test_every_library_definition_is_reached_or_listed():
    """Walk the library from its entry points: `cli.main`, the move
    registry `divisor.MOVES`, and the names the benchmark calls
    (`M.<module>.<name>` in perfbench/workloads.py) or traces
    (perfbench/tracing.py's TRACED).  Every top-level function and class
    it misses must be in UNREACHED, and every name there missed.  A
    method or property other than a dunder is reached when code in src/,
    perfbench/ or scripts/ reads its name as an attribute; none may be
    missed."""
    defs, imports = library_definitions()
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    roots = [("cli", "main"), *references(defs["divisor", "MOVES"], "divisor",
                                          defs, imports)]
    for node in ast.walk(ast.parse((bench / "workloads.py").read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and node.value.attr in imports):
            roots.append((node.value.attr, node.attr))
    roots += traced_names()
    assert set(roots) <= defs.keys()
    reached, stack = set(), roots
    while stack:
        key = stack.pop()
        if key not in reached:
            reached.add(key)
            stack.extend(references(defs[key], key[0], defs, imports))
    unreached = {key for key, node in defs.items() if key not in reached
                 and isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert unreached == UNREACHED
    read = {n.attr for part in ("src", "perfbench", "scripts")
            for path in (bench.parent / part).rglob("*.py")
            for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = {(*key, m.name) for key, node in defs.items()
              if isinstance(node, ast.ClassDef) for m in node.body
              if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")
              and m.name not in read}
    assert unread == set()


def unused_imports(path: Path) -> list:
    """("file:line", name) for each name the module imports and never
    reads.  Names listed in `__all__` are read by `import *`, and
    `from __future__` imports bind nothing."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["__all__"]):
            read |= set(ast.literal_eval(node.value))
    return [(f"{path.name}:{node.lineno}", bound)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
            for bound in [alias.asname or alias.name.split(".")[0]]
            if bound not in read]


def test_no_module_imports_a_name_it_never_reads():
    """An import left behind when its last reader is deleted fails here,
    in the library, in scripts/ and in tests/."""
    root = Path(__file__).resolve().parents[1]
    paths = sorted([*Path(plumbcalc.__file__).parent.glob("*.py"),
                    *(root / "scripts").glob("*.py"), *(root / "tests").glob("*.py")])
    assert [hit for path in paths for hit in unused_imports(path)] == []
