"""Plumbing calculus on signed graphs of 3-manifolds.

Moves implemented: R1 (blow-down of a +-1 vertex) and R3 (absorption of a
0-weighted beta=2 vertex).  normalize() runs the rule list R1, R3 through
`_reduce`, the one reduction loop (`divisor.snc_minimalize` runs the
blowdown rule through it), and either certifies a normal form or
recognizes one of the two small Seifert graphs that need a special
normal form; everything else fails loudly.  R1's blow-down and its
inverse are built by `_contract` and `_insert`, which keep the graph's
kind: the divisor blowdowns and blowups are the eps = -1 case on a graph
whose signs are all +1, and build through them.

Conventions used throughout:
- kind="plumbing" graphs; vertex weight is the Euler number, edges carry
  signs +-1.  Sign data only matters on cycles; flip_vertex_signs is the
  gauge move that makes this precise.
- Type notation entries are negated weights: the chain [2,2] has two
  vertices of weight -2, ((2)_k) is a cycle of k such vertices.
- Negative continued fractions: p/q = a1 - 1/(a2 - 1/(...)), a_i >= 2.
- H1 of the plumbed manifold is Z^b1(graph) + coker(intersection matrix),
  where a loop at v adds 2*sign to v's diagonal entry.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from fractions import Fraction
from heapq import heappop, heappush

from .graphs import (
    AbelianGroup,
    ChainType,
    DomainError,
    Edge,
    OutOfScopeError,
    Vertex,
    WeightedGraph,
    branching_number,
    canonical_ordering,
    classify_segments,
    cokernel,
    connected_components,
    first_betti,
    fresh_id,
    intersection_matrix,
    reweighted,
    spanning_forest,
)

MOVE_BUDGET = 10_000


def _require_plumbing(g: WeightedGraph, op: str) -> None:
    if g.kind != "plumbing":
        raise DomainError(f"{op} needs a plumbing graph, got kind={g.kind!r}")


def _require_rational(g: WeightedGraph, op: str) -> None:
    for v in g.vertices.values():
        if v.genus != 0:
            raise OutOfScopeError(
                f"{op}: vertex {v.id!r} has genus {v.genus}; only rational"
                " (genus-0) graphs are supported"
            )


def from_divisor_graph(g: WeightedGraph) -> WeightedGraph:
    """Reinterpret a divisor dual graph as a plumbing graph.

    The boundary 3-manifold of a tubular neighborhood of the divisor is
    plumbed according to the same graph with every edge sign +1.
    """
    if g.kind != "divisor":
        raise DomainError("from_divisor_graph needs a divisor graph")
    return WeightedGraph("plumbing", list(g.vertices.values()), list(g.edges))


# -- moves -------------------------------------------------------------------


def _r1_obstruction(g: WeightedGraph, vid: str) -> str | None:
    """Why move_R1 does not apply at the vertex vid of g, or None."""
    if vid not in g.vertices:
        return f"move_R1: vertex {vid!r} not found"
    v = g.vertices[vid]
    if v.genus != 0 or v.boundary != 0:
        return f"move_R1: vertex {vid!r} must be rational and closed"
    if v.weight not in (1, -1):
        return f"move_R1: vertex {vid!r} has weight {v.weight}, need +-1"
    if g.loops[vid]:
        return f"move_R1: vertex {vid!r} carries a loop"
    beta = len(g.around[vid])
    if beta > 2:
        return f"move_R1: vertex {vid!r} has beta={beta} > 2"


def move_R1(g: WeightedGraph, vid: str, log: list | None = None) -> WeightedGraph:
    """Blow down a rational vertex of weight +-1 with beta <= 2, no loop,
    by `_contract`."""
    _require_plumbing(g, "move_R1")
    why = _r1_obstruction(g, vid)
    if why is not None:
        raise DomainError(why)
    out = _contract(g, vid)
    if log is not None:
        log.append({"move": "R1", "vertex": vid})
    return out


def _contract(g: WeightedGraph, vid: str) -> WeightedGraph:
    """The blow-down of R1 at vid, of the same kind as g, derived from g
    (`WeightedGraph._derive`); the caller has checked that it applies.

    Each neighbor loses eps = weight(v) from its weight (once per edge).
    With two edges to distinct neighbors u, w the blow-down joins them by
    a new edge of sign -eps*s1*s2; with two edges to the same neighbor u
    the result is a loop at u with that sign and u loses 2*eps.  A divisor
    blowdown is the case eps = -1 with every sign +1.
    """
    at = g.around[vid]
    eps = g.vertices[vid].weight
    ends = [x for x, _ in at]
    deltas = {x: -eps * ends.count(x) for x in ends}
    add = ()
    if len(at) == 2:
        (u, s1), (w, s2) = at
        add = (Edge(u, w, -eps * s1 * s2),)
    put = reweighted(map(g.vertices.get, deltas), deltas)
    return g._derive(put, drop=(vid,), add=add)


def _insert(g: WeightedGraph, at, eps: int, new_id: str, s1: int = 1) -> WeightedGraph:
    """The inverse of R1: a new eps-vertex new_id, of the same kind as g,
    that `_contract` removes again exactly, derived from g; the caller has
    checked that at is in g and new_id is not.

    At a vertex id the new vertex hangs off it by an edge of sign s1.  At
    an Edge it subdivides the edge by edges of signs s1 and s2, where
    -eps*s1*s2 is the old sign.  The other end of each new edge gains eps.
    A divisor blowup is the case eps = -1 with every sign +1.
    """
    if isinstance(at, Edge):
        cut = (at,)
        add = (Edge(at.u, new_id, s1), Edge(new_id, at.v, -eps * s1 * at.sign))
        ends = (at.u, at.v)
    else:
        cut, add, ends = (), (Edge(at, new_id, s1),), (at,)
    deltas = {x: eps * ends.count(x) for x in ends}
    put = reweighted(map(g.vertices.get, deltas), deltas)
    return g._derive({**put, new_id: Vertex(new_id, eps)}, cut=cut, add=add)


def _r3_obstruction(g: WeightedGraph, vid: str) -> str | None:
    """Why move_R3 does not apply at the vertex vid of g, or None."""
    if vid not in g.vertices:
        return f"move_R3: vertex {vid!r} not found"
    v = g.vertices[vid]
    if v.genus != 0 or v.boundary != 0:
        return f"move_R3: vertex {vid!r} must be rational and closed"
    if v.weight != 0:
        return f"move_R3: vertex {vid!r} has weight {v.weight}, need 0"
    if g.loops[vid]:
        return (
            f"move_R3: vertex {vid!r} carries a loop (self-absorption is"
            " out of scope for this move)"
        )
    at = g.around[vid]
    if len(at) != 2:
        return f"move_R3: vertex {vid!r} has beta={len(at)}, need 2"
    (u, _), (w, _) = at
    if u == w:
        return (
            f"move_R3: both edges of {vid!r} reach {u!r}; absorbing would"
            " pinch off an S^1 x S^2-like piece, which this calculus does"
            " not model -- rejected"
        )


def move_R3(g: WeightedGraph, vid: str, log: list | None = None) -> WeightedGraph:
    """Absorb a rational 0-vertex of beta = 2 joining distinct vertices.

    The two neighbors u != w merge into one vertex (the smaller id is
    kept, in its place in vertex order) with weights, genus and boundary
    added, inheriting all other edges of both.  Sign bookkeeping: when
    the product of the two removed edge signs is +1, every edge end
    formerly at the discarded vertex has its sign flipped; equivalently
    each inherited edge end is multiplied by -s1*s2.  A loop at the
    discarded vertex is hit twice and keeps its sign; a u-w edge becomes
    a loop at the merged vertex.  The child is derived from g: v and the
    discarded vertex are dropped and the discarded vertex's other edges
    re-added at the kept one, so the move costs O(degree) edge edits.

    A 0-vertex whose two edges reach the same vertex (or itself) is a
    self-absorption: it encodes an S^1 x S^2-like piece whose reduction
    needs moves outside this module, so it is rejected.
    """
    _require_plumbing(g, "move_R3")
    why = _r3_obstruction(g, vid)
    if why is not None:
        raise DomainError(why)
    (u, s1), (w, s2) = g.around[vid]
    keep, gone = (u, w) if u < w else (w, u)
    mult = -s1 * s2  # applied per edge end at the dropped vertex
    ku, kw = g.vertices[keep], g.vertices[gone]
    merged = ku._replace(weight=ku.weight + kw.weight, genus=ku.genus + kw.genus,
                         boundary=ku.boundary + kw.boundary)
    # the dropped vertex's edges, but the one to vid, re-homed at keep
    moved = [Edge(keep if x == gone else x, keep, s * mult)
             for x, s in g.around[gone] if x != vid]
    moved += [Edge(keep, keep, s) for s in g.loops[gone]]
    out = g._derive({keep: merged}, drop=(vid, gone), add=moved)
    if log is not None:
        log.append({"move": "R3", "vertex": vid})
    return out


# -- gauge -------------------------------------------------------------------


def _regauge(g: WeightedGraph, flip: dict) -> WeightedGraph:
    """Multiply each non-loop edge's sign by flip[u] * flip[v], a vertex
    missing from flip counting +1 (a gauge move).

    Loops are hit twice and keep their sign.  The plumbed manifold is
    unchanged; only the sign pattern on cycles is gauge-invariant.
    """
    flipped = [e for e in g.edges if flip.get(e.u, 1) != flip.get(e.v, 1)]
    return g._derive(cut=flipped, add=[Edge(u, v, -s) for u, v, s in flipped])


def flip_vertex_signs(g: WeightedGraph, vid: str) -> WeightedGraph:
    """Flip the sign of every non-loop edge end at vid: `_regauge` by -1
    at vid."""
    _require_plumbing(g, "flip_vertex_signs")
    if vid not in g.vertices:
        raise DomainError(f"no vertex {vid!r}")
    return _regauge(g, {vid: -1})


def _is_minus_two_cycle(g: WeightedGraph) -> bool:
    """Is the graph the cyclic shape ((2)_k): connected, every vertex a
    rational closed -2 with beta = 2?  A connected graph whose every
    vertex has two edge ends is one cycle."""
    if not g.vertices or len(connected_components(g)) != 1:
        return False
    return all(v.weight == -2 and v.genus == 0 and v.boundary == 0
               and branching_number(g, vid) == 2 for vid, v in g.vertices.items())


def gauge_canonicalize(g: WeightedGraph) -> WeightedGraph:
    """Push edge signs into canonical position by vertex flips.

    The tree edges of `spanning_forest` all get sign +1: each vertex is
    flipped by its parent's flip times its tree edge's sign, a root by
    +1.  The surviving non-tree signs are the gauge-invariant cycle data.
    One exception: on the cyclic all-(-2) shape ((2)_k) the normal-form
    convention wants at least two displayed "-" labels, so when the cycle
    product allows it the gauge is adjusted to show them (product +1:
    flip at the largest vertex; product -1 with k >= 3: flip at the
    largest vertex not on the negative edge).
    """
    _require_plumbing(g, "gauge_canonicalize")
    flip: dict[str, int] = {}
    for vid, up in spanning_forest(g).items():
        flip[vid] = 1 if up is None else flip[up[0]] * up[1]
    out = _regauge(g, flip)

    if _is_minus_two_cycle(out) and sum(1 for e in out.edges if e.sign < 0) < 2:
        negs = [e for e in out.edges if e.sign < 0]
        if not negs and len(out.vertices) >= 2:
            out = flip_vertex_signs(out, max(out.vertices))
        elif negs and len(out.vertices) >= 3:
            on_neg = {negs[0].u, negs[0].v}
            cands = [x for x in out.vertices if x not in on_neg]
            out = flip_vertex_signs(out, max(cands))
    return out


# -- normal form -------------------------------------------------------------


class NormalReport(namedtuple("NormalReport", "ok violations")):
    __slots__ = ()

    def __bool__(self):
        return self.ok


def is_normal(g: WeightedGraph) -> NormalReport:
    """Check the three normal-form conditions.

    (1) every non-branching vertex (beta <= 2, loops counted twice) has
        weight <= -2; vertices with boundary are exempt since their
        weights can be traded for boundary twists;
    (2) a beta = 3 vertex meeting two twigs of type [2] forces the whole
        graph to be a fork (a tree with that single branching vertex);
    (3) the cyclic all-(-2) shape ((2)_k) must display at least two
        negative edge labels.

    Disconnected graphs are checked componentwise (a graph is normal when
    all its components are), reported as one violation list.
    """
    _require_plumbing(g, "is_normal")
    _require_rational(g, "is_normal")
    violations = []

    for vid in g.sorted_ids():
        v = g.vertices[vid]
        if v.boundary != 0:
            continue
        if branching_number(g, vid) <= 2 and v.weight > -2:
            violations.append(
                f"non-branching vertex {vid!r} has weight {v.weight} > -2"
            )

    report = classify_segments(g)
    for vid in g.sorted_ids():
        if branching_number(g, vid) != 3:
            continue
        small = [
            s
            for s in report.segments
            if s.is_twig
            and vid in s.attachments
            and s.chain_type.entries == (2,)
        ]
        if len(small) >= 2 and not _is_fork(g):
            violations.append(
                f"vertex {vid!r} meets two [2]-twigs but the graph is not a fork"
            )

    for comp in connected_components(g):
        sub = g.induced(comp)
        if _is_minus_two_cycle(sub):
            neg = sum(1 for e in sub.edges if e.sign < 0)
            if neg < 2:
                violations.append(
                    f"all-(-2) cycle on {sorted(comp)} shows {neg} negative"
                    " edge(s), need at least 2"
                )

    return NormalReport(not violations, tuple(violations))


def _is_fork(g: WeightedGraph) -> bool:
    """One beta=3 vertex, no other branching, no cycles: a 3-pronged star."""
    if first_betti(g) != 0 or len(connected_components(g)) != 1:
        return False
    branching = [x for x in g.vertices if branching_number(g, x) >= 3]
    return len(branching) == 1 and branching_number(g, branching[0]) == 3


class SeifertData(namedtuple(
        "SeifertData", "base_genus boundary_count exceptional central_weight")):
    """Seifert fibration data (g, r; f_1, ..., f_k) plus an integer shift.

    Fibers are kept in [0,1) sorted ascending; central_weight collects
    the integer parts moved out of the fiber slopes, so orientation
    reversal negates every slope and renormalizes.  The convention is
    anchored so the flat Seifert space over the (2,3,6) orbifold displays
    as (0, 0; 1/2, 1/3, 1/6) with central_weight 0.
    """

    __slots__ = ()

    def __new__(cls, base_genus: int, boundary_count: int, exceptional: tuple,
                central_weight: int):
        fixed = tuple(sorted(Fraction(f) for f in exceptional))
        for f in fixed:
            if not 0 <= f < 1:
                raise DomainError(f"fiber {f} not normalized into [0,1)")
        if boundary_count < 0:
            raise DomainError("negative boundary count")
        return tuple.__new__(
            cls, (base_genus, boundary_count, fixed, central_weight)
        )

    def to_json_dict(self) -> dict:
        return {
            "base_genus": self.base_genus,
            "boundary_count": self.boundary_count,
            "exceptional": [str(f) for f in self.exceptional],
            "central_weight": self.central_weight,
        }


def _reverse_seifert(sd: SeifertData) -> SeifertData:
    fibers = []
    central = -sd.central_weight
    for f in sd.exceptional:
        fl = math.floor(-f)
        fibers.append(-f - fl)
        central += fl
    if sd.boundary_count > 0:
        central = 0
    return SeifertData(sd.base_genus, sd.boundary_count, tuple(fibers), central)


class NormalForm(namedtuple("NormalForm", "graph ordering certificate seifert log")):
    """A terminal graph of the R1/R3 reduction with its certificate.

    certificate "generic": graph passes is_normal, ordering is the
    canonical vertex order.  certificate "seifert_special": the graph is
    one of the small Seifert graphs needing a special normal form, and
    seifert carries its fibration data.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph.to_json_dict(),
            "ordering": list(self.ordering),
            "certificate": self.certificate,
            "seifert": self.seifert.to_json_dict() if self.seifert else None,
            "log": list(self.log),
        }


# The two single-vertex-with-loop graphs left fixed by R1/R3 that carry a
# known Seifert fibration: the flat space over the (2,3,6) orbifold and
# its orientation reversal.
_SEIFERT_CATALOG = {
    (1, -1): SeifertData(0, 0, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)), 0),
    (-1, 1): SeifertData(0, 0, (Fraction(1, 2), Fraction(2, 3), Fraction(5, 6)), -3),
}


def _seifert_special(g: WeightedGraph) -> SeifertData | None:
    if len(g.vertices) != 1 or len(g.edges) != 1:
        return None
    (v,) = g.vertices.values()
    (e,) = g.edges
    if not e.is_loop or v.genus != 0 or v.boundary != 0:
        return None
    return _SEIFERT_CATALOG.get((v.weight, e.sign))


def _reduce(g: WeightedGraph, name, rules, budget=None) -> tuple[WeightedGraph, list]:
    """Apply the rules until none applies; return the graph and move log.

    A rule is (log name, applies, move): move(g, x, log) applies the move
    at the vertex x where applies(g, x) and logs one entry of that name.
    Each step takes the first rule, in list order, that applies
    somewhere, at the least id where it does.  A move past budget raises
    DomainError, which counts the moves of each rule.  Callers build
    their rules at call time from module globals, so a move rebound on
    its module is the one applied.

    Each rule keeps a lazy min-heap of ids, which starts with every vertex
    and holds every vertex where the rule applies.  Ids are popped from
    the first rule's heap until the rule applies at one; a heap that runs
    dry passes on to the next rule, and each move starts again at the
    first.  So the id found is what a rescan of every id would pick.
    After a move at v, v's former neighbours are pushed onto every heap,
    since ids where a rule did not apply were popped.  Lemma: that
    is enough.  A move at v (a blow-down of v, or R3's merge of v's two
    neighbours) changes weights, decorations, loops and edge-end counts
    only at v's neighbours, and joins vertices only where both were v's
    neighbours: a blow-down adds an edge between them, R3 moves the ends
    at the dropped one to the kept one.  Elsewhere it can only make two
    neighbours of a vertex adjacent or equal.  A rule counts ends (R1),
    needs them at distinct vertices (R3) or at non-adjacent ones
    (blowdown), so there it can stop applying but cannot start.
    """
    heaps, log = [g.sorted_ids() for _ in rules], []  # a sorted list is a heap
    k = 0  # the rule whose heap is drained; each move starts again at 0
    while k < len(rules):
        heap, (_, applies, move) = heaps[k], rules[k]
        while heap:
            vid = heappop(heap)
            if vid not in g.vertices or not applies(g, vid):
                continue
            if len(log) == budget:
                moves = " and ".join(f"{sum(e['move'] == r for e in log)} {r}"
                                     for r, _, _ in rules)
                raise DomainError(f"{name}: move budget {budget} exceeded after "
                                  f"{moves} moves, {len(g.vertices)} vertices left")
            nbrs = [x for x, _ in g.around[vid]]
            g = move(g, vid, log)
            for h in heaps:
                for x in nbrs:
                    heappush(h, x)
            if k:
                k = 0
                break
        else:
            k += 1
    return g, log


def normalize(g: WeightedGraph) -> NormalForm:
    """Reduce to a normal form, or fail loudly.

    `_reduce` applies the rules R1, then R3, with MOVE_BUDGET; it has the
    proof.  The empty graph is S^3's normal form.  Otherwise the gauge is
    canonicalized and is_normal checked.  Terminal graphs that fail it
    are matched against the small-Seifert catalog; anything else raises
    OutOfScopeError because finishing it needs plumbing moves this module
    does not implement (R2, R4-R6, R8, non-orientable handling).
    """
    if g.kind == "divisor":
        g = from_divisor_graph(g)
    _require_plumbing(g, "normalize")
    _require_rational(g, "normalize")
    if not g.vertices:
        raise DomainError("normalize: empty graph (S^3 has no plumbing vertex)")
    if len(connected_components(g)) != 1:
        raise DomainError("normalize: graph must be connected")

    rules = (("R1", lambda h, x: _r1_obstruction(h, x) is None, move_R1),
             ("R3", lambda h, x: _r3_obstruction(h, x) is None, move_R3))
    cur, log = _reduce(g, "normalize", rules, MOVE_BUDGET)
    if not cur.vertices:
        return NormalForm(cur, (), "generic", None, tuple(log))

    cur = gauge_canonicalize(cur)
    report = is_normal(cur)
    if report.ok:
        order = canonical_ordering(cur)
        return NormalForm(cur, order, "generic", None, tuple(log))

    sd = _seifert_special(cur)
    if sd is not None:
        return NormalForm(
            cur, tuple(cur.sorted_ids()), "seifert_special", sd, tuple(log)
        )

    raise OutOfScopeError(
        "normalize: terminal graph is not normal and is not a recognized"
        " special Seifert graph; finishing it needs plumbing moves outside"
        " the implemented R1/R3 subset (R2, R4-R6, R8 or non-orientable"
        f" handling). Violations: {list(report.violations)}"
    )


# -- orientation reversal ------------------------------------------------------


def _negate(g: WeightedGraph) -> WeightedGraph:
    vertices = [v._replace(weight=-v.weight) for v in g.vertices.values()]
    edges = [Edge(e.u, e.v, -e.sign) for e in g.edges]
    return WeightedGraph("plumbing", vertices, edges)


def _dualize_positive_twigs(g: WeightedGraph, log: list) -> WeightedGraph:
    """Replace each maximal twig of all-(>= +2) weights by its dual chain.

    A pendant chain of weights (w_1..w_k) read outward from the
    attachment evaluates to p/q as a negative continued fraction; the
    reversed manifold carries the chain of p/(p-q) with negated weights
    instead, and the attachment vertex loses 1.  This composite is the
    R1-inverse cascade that absorbs the positive chain, so the plumbed
    manifold is unchanged.
    """
    report = classify_segments(g)
    cur = g
    for seg in report.segments:
        if not seg.is_twig:
            continue
        weights = [cur.vertices[x].weight for x in seg.vertices]
        if any(w < 2 for w in weights):
            continue
        att = seg.attachments[0] or seg.attachments[1]
        # seg.vertices is tip-first; read attachment-outward for the fraction
        p, q = continued_fraction_eval(ChainType(tuple(reversed(weights))))
        dual = continued_fraction_expand(p, p - q)  # entries >= 2, so p > q
        taken, new_ids = cur.vertices.keys() - set(seg.vertices), []
        for _ in dual.entries:
            new_ids.append(fresh_id(taken, "Z"))
            taken.add(new_ids[-1])
        put = reweighted([cur.vertices[att]], {att: -1})
        put |= {nid: Vertex(nid, -a) for nid, a in zip(new_ids, dual.entries)}
        chain = [Edge(a, b, 1) for a, b in zip([att, *new_ids], new_ids)]
        cur = cur._derive(put, drop=seg.vertices, add=chain)
        log.append(
            {
                "move": "chain_dual",
                "removed": list(seg.vertices),
                "added": new_ids,
                "attachment": att,
            }
        )
    return cur


def reverse_orientation(nf: NormalForm) -> NormalForm:
    """Normal form of the orientation-reversed manifold.

    Negates all weights and edge signs, trades each resulting positive
    pendant chain for its continued-fraction dual (decrementing the
    attachment), and re-normalizes.  H1 is asserted unchanged, since
    reversing orientation cannot alter homology.
    """
    if not isinstance(nf, NormalForm):
        raise DomainError("reverse_orientation takes a NormalForm")
    log: list = [{"move": "negate"}]
    flipped = _negate(nf.graph)
    if nf.certificate == "seifert_special":
        out = normalize(flipped)
        if nf.seifert is not None:
            expected = _reverse_seifert(nf.seifert)
            if out.seifert != expected:
                raise AssertionError(
                    f"seifert reversal mismatch: {out.seifert} vs {expected}"
                )
    elif not flipped.vertices:  # S^3 is its own reversal
        out = nf._replace(log=())
    else:
        out = normalize(_dualize_positive_twigs(flipped, log))
    result = NormalForm(
        out.graph, out.ordering, out.certificate, out.seifert, tuple(log) + out.log
    )
    before = h1_from_graph(nf.graph)
    after = h1_from_graph(result.graph)
    if before != after:
        raise AssertionError(f"H1 changed under reversal: {before} vs {after}")
    return result


def continued_fraction_expand(p: int, q: int) -> ChainType:
    """Negative continued fraction of p/q with entries >= 2.

    Needs p > q >= 1 and gcd(p, q) = 1; p/q = a1 - 1/(a2 - 1/(...)).
    """
    if q < 1:
        raise DomainError(f"continued_fraction_expand: q={q} must be >= 1")
    if p <= q:
        raise DomainError(
            f"continued_fraction_expand: need p > q, got {p}/{q}"
            " (entries >= 2 force the value above 1)"
        )
    if math.gcd(p, q) != 1:
        raise DomainError(f"continued_fraction_expand: gcd({p},{q}) != 1")
    entries = []
    while q:
        a = -((-p) // q)  # ceil(p/q)
        entries.append(a)
        p, q = q, a * q - p
    return ChainType(tuple(entries))


def continued_fraction_eval(ct: ChainType) -> tuple:
    """Exact inverse of continued_fraction_expand; empty chain gives (1, 0)."""
    if ct.circular:
        raise DomainError("continued_fraction_eval takes a linear chain type")
    p, q = 1, 0
    for a in reversed(ct.entries):
        p, q = a * p - q, p
    return (p, q)


def seifert_from_star(g: WeightedGraph) -> SeifertData:
    """Read Seifert data off a star-shaped plumbing graph.

    The center is the unique branching vertex (or the only vertex).  Each
    maximal twig, read from the center outward, must be a chain of
    weights <= -2; its negative continued fraction p/q gives the fiber
    slope (p-q)/p.  The reading direction is unobservable on the
    palindromic all-(-2) twigs this package meets, and is documented
    here once: center outward.

    central_weight is the display shift: 0 when the base has boundary
    (twists absorb it), and weight(center) + #twigs - 1 for closed bases,
    the normalization that shows the flat (2,3,6) Seifert space as
    (0, 0; 1/2, 1/3, 1/6; 0).
    """
    _require_plumbing(g, "seifert_from_star")
    _require_rational(g, "seifert_from_star")
    if not g.vertices:
        raise DomainError("seifert_from_star: empty graph")
    if len(connected_components(g)) != 1:
        raise DomainError("seifert_from_star: graph must be connected")
    if first_betti(g) != 0:
        raise DomainError("seifert_from_star: graph has a cycle, not a star")
    branchers = [x for x in g.vertices if branching_number(g, x) >= 3]
    decorated = [x for x in g.vertices.values() if x.boundary != 0]
    if len(branchers) > 1:
        raise DomainError("seifert_from_star: more than one branching vertex")
    if branchers:
        center = branchers[0]
    elif len(decorated) == 1:
        center = decorated[0].id
    elif len(g.vertices) == 1:
        center = next(iter(g.vertices))
    else:
        raise DomainError(
            "seifert_from_star: no branching vertex; the center of a chain"
            " is ambiguous"
        )

    report = classify_segments(g)
    fibers = []
    for seg in report.segments:
        if seg.vertices == (center,):
            continue
        if not seg.is_twig or center not in seg.attachments:
            raise DomainError(
                f"seifert_from_star: segment {list(seg.vertices)} is not a"
                " twig at the center"
            )
        weights = [g.vertices[x].weight for x in seg.vertices]
        if any(w > -2 for w in weights):
            raise DomainError(
                f"seifert_from_star: twig {list(seg.vertices)} has weights"
                f" {weights}; fiber read-off needs all <= -2"
            )
        outward = tuple(-w for w in reversed(weights))  # center outward
        p, q = continued_fraction_eval(ChainType(outward))
        fibers.append(Fraction(p - q, p))

    c = g.vertices[center]
    if c.boundary > 0:
        central = 0
    else:
        central = c.weight + len(fibers) - 1 if fibers else c.weight
    return SeifertData(c.genus, c.boundary, tuple(fibers), central)


def _cut_torus(graph: WeightedGraph) -> WeightedGraph:
    """The graph of first Betti number 1 cut along its one torus, derived
    from it: the edges of its cycle, a loop or a double edge, are cut and
    each end of a cut edge gains a boundary circle."""
    if first_betti(graph) != 1:
        raise OutOfScopeError(
            "jsj_cut: expected first betti number 1 (one cutting torus);"
            " general JSJ is not implemented"
        )
    loops = [e for e in graph.edges if e.is_loop]
    if loops:
        cut_edges = loops
    else:
        pair_count = Counter((e.u, e.v) for e in graph.edges)
        doubles = [pair for pair, n in pair_count.items() if n >= 2]
        if len(doubles) != 1 or pair_count[doubles[0]] != 2:
            raise OutOfScopeError(
                "jsj_cut: cycle is neither a loop nor a clean double edge;"
                " shape unrecognized"
            )
        a, b = doubles[0]
        cut_edges = [Edge(a, b, s) for x, s in graph.around[a] if x == b]
    ends = Counter(x for e in cut_edges for x in (e.u, e.v))  # a loop's twice
    bumped = {v.id: v._replace(boundary=v.boundary + ends[v.id])
              for v in map(graph.vertices.get, ends)}
    return graph._derive(bumped, cut=cut_edges)


def jsj_cut(g) -> list:
    """Seifert pieces after cutting the plumbed manifold along its JSJ tori.

    Accepts a family-shaped graph (or NormalForm): after normalization the
    cycle is either the double edge between the two cores or a single
    loop; its edges are removed, each formerly-joined vertex gains 2
    boundary circles (`_cut_torus`), and each resulting star is read off.
    The special Seifert certificate is already a single fibered piece.
    Pieces are sorted by fiber tuple.
    """
    nf = g if isinstance(g, NormalForm) else normalize(g)
    if nf.certificate == "seifert_special":
        return [nf.seifert]
    cut = _cut_torus(nf.graph)
    pieces = [
        seifert_from_star(cut.induced(comp))
        for comp in sorted(connected_components(cut), key=sorted)
    ]
    return sorted(pieces, key=lambda sd: (sd.exceptional, sd.central_weight))


def h1_from_graph(g) -> AbelianGroup:
    """H1 of the plumbed 3-manifold: Z^b1(graph) + coker(intersection).

    Loops contribute 2*sign to the diagonal.  Validated against the fact
    that a 0-framed knot surgery has H1 = Z.
    """
    graph = g.graph if isinstance(g, NormalForm) else g
    _require_plumbing(graph, "h1_from_graph")
    _require_rational(graph, "h1_from_graph")
    if any(v.boundary != 0 for v in graph.vertices.values()):
        raise DomainError("h1_from_graph needs a closed manifold (boundary 0)")
    b1 = first_betti(graph)
    if not graph.vertices:
        return AbelianGroup(0, ())
    coker = cokernel(intersection_matrix(graph))
    return AbelianGroup(b1 + coker.rank, coker.torsion)
