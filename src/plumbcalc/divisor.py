"""Birational rewriting on snc divisor dual graphs.

Moves: blowups (outer on a vertex, inner on an edge), blowdowns of
superfluous (-1)-vertices, snc-minimalization, elementary flows on
0-vertices, standard-form search and barks.

Every move returns a new graph, leaving its input unchanged.  Moves
accept an optional ``log`` list and append JSON-serializable move
entries to it; ``replay`` applies such a log to the original graph and
must reproduce the output exactly.  ``MOVES`` maps each logged move name,
the plumbing moves R1 and R3 included, to the function that checks an
entry's fields and applies it; ``replay`` and the standardization search
both apply moves through it.
"""

from __future__ import annotations

from collections import deque, namedtuple
from fractions import Fraction

from .graphs import (
    ChainType,
    DomainError,
    Edge,
    WeightedGraph,
    _chains_through,
    _entries,
    branching_number,
    branching_set,
    canonical_encoding,
    classify_segments,
    fresh_id,
    isomorphism_key,
    reweighted,
)
from .plumbing import _contract, _insert, _reduce, continued_fraction_eval, move_R1, move_R3


def _require_divisor(g: WeightedGraph, op: str) -> None:
    if g.kind != "divisor":
        raise DomainError(f"{op} requires a divisor graph, got kind={g.kind!r}")


# ---------------------------------------------------------------------------
# blowups and blowdowns


def blow_up(g: WeightedGraph, at, log: list | None = None,
            new_id: str | None = None) -> WeightedGraph:
    """Blow up a point of the divisor: R1's inverse `_insert` with
    eps = -1.  At a vertex id the point lies on that component only (an
    outer blowup); at an `Edge` it is where the edge's two components
    meet (an inner blowup)."""
    _require_divisor(g, "blow_up")
    eid = new_id if new_id is not None else fresh_id(g.vertices)
    if eid in g.vertices:
        raise DomainError(f"new vertex id {eid!r} already in use")
    if isinstance(at, Edge):
        if (at.v, at.sign) not in g.around.get(at.u, ()):
            raise DomainError(f"blow_up center edge ({at.u!r},{at.v!r}) not found")
        where = {"edge": [at.u, at.v]}
    elif isinstance(at, str):
        if at not in g.vertices:
            raise DomainError(f"blow_up center vertex {at!r} not found")
        where = {"vertex": at}
    else:
        raise DomainError(f"unknown blowup center {at!r}")
    out = _insert(g, at, -1, eid)
    if log is not None:
        log.append({"move": "blowup", "center": where, "new_id": eid})
    return out


def _blowdown_obstruction(g: WeightedGraph, vid: str) -> str | None:
    """Why blow_down does not apply at the vertex vid of g, or None."""
    if vid not in g.vertices:
        return f"blow_down: vertex {vid!r} not found"
    v = g.vertices[vid]
    if v.weight != -1:
        return f"blow_down: weight of {vid!r} is {v.weight}, not -1"
    if v.genus != 0:
        return f"blow_down: {vid!r} has genus {v.genus}, not 0"
    if v.boundary != 0:
        return f"blow_down: {vid!r} has boundary {v.boundary}, not 0"
    beta = branching_number(g, vid)
    if beta > 2:
        return f"blow_down: branching number of {vid!r} is {beta} > 2"
    nbrs = g.neighbors(vid)
    if len(nbrs) == 2 and nbrs[1] in g.neighbors(nbrs[0]):
        return (
            f"blow_down: neighbors of {vid!r} are already adjacent; "
            "the image would not be snc"
        )


def blow_down(g: WeightedGraph, vid: str, log: list | None = None) -> WeightedGraph:
    """Contract a (-1)-vertex: R1's blow-down `_contract` with eps = -1,
    where `_blowdown_obstruction` finds nothing against it."""
    _require_divisor(g, "blow_down")
    why = _blowdown_obstruction(g, vid)
    if why is not None:
        raise DomainError(why)
    out = _contract(g, vid)
    if log is not None:
        log.append({"move": "blowdown", "vertex": vid})
    return out


def is_superfluous(g: WeightedGraph, vid: str) -> bool:
    """A vertex of a divisor graph that meets another component and that
    `blow_down` contracts.  The weight is tested first: the standardization
    search asks this of every vertex of each state, and few weigh -1."""
    return (g.vertices[vid].weight == -1 and bool(g.around[vid])
            and _blowdown_obstruction(g, vid) is None)


def snc_minimalize(g: WeightedGraph) -> tuple[WeightedGraph, list]:
    """Contract superfluous (-1)-vertices until none remain, least id
    first, as a rescan after each blowdown would: `plumbing._reduce` with
    the one rule blowdown, tested by `is_superfluous`, and no budget,
    since each blowdown removes a vertex (`_reduce` has the proof).
    """
    _require_divisor(g, "snc_minimalize")
    return _reduce(g, "snc_minimalize", (("blowdown", is_superfluous, blow_down),))


# ---------------------------------------------------------------------------
# elementary flows


def elementary_flow(g: WeightedGraph, zero_vertex: str, toward: str,
                    log: list | None = None) -> WeightedGraph:
    """Flow on a non-branching 0-vertex.

    Interior case: [a,0,b] becomes [a+1,0,b-1] where b is the entry of
    the named neighbor (its weight goes up by one, the opposite
    neighbor's weight goes down by one).  Tip case: the outer blowup on
    the 0-vertex followed by contraction of the new vertex; a no-op on
    weights, logged as the two-step composite.
    """
    _require_divisor(g, "elementary_flow")
    if zero_vertex not in g.vertices:
        raise DomainError(f"elementary_flow: vertex {zero_vertex!r} not found")
    v = g.vertices[zero_vertex]
    if v.weight != 0:
        raise DomainError(
            f"elementary_flow: weight of {zero_vertex!r} is {v.weight}, not 0"
        )
    if v.genus != 0 or v.boundary != 0:
        raise DomainError(f"elementary_flow: {zero_vertex!r} must be rational")
    beta = branching_number(g, zero_vertex)
    if beta not in (1, 2):
        raise DomainError(
            f"elementary_flow: branching number of {zero_vertex!r} is {beta}"
        )
    nbrs = g.neighbors(zero_vertex)
    if toward not in nbrs:
        raise DomainError(
            f"elementary_flow: {toward!r} is not a neighbor of {zero_vertex!r}"
        )
    if beta == 1:
        sub: list = []
        mid = blow_up(g, zero_vertex, sub)
        out = blow_down(mid, sub[0]["new_id"], sub)
        if log is not None:
            log.extend(sub)
        return out
    other = next(n for n in nbrs if n != toward)
    deltas = {toward: 1, other: -1}
    out = g._derive(reweighted(map(g.vertices.get, deltas), deltas))
    if log is not None:
        log.append({"move": "flow", "vertex": zero_vertex, "toward": toward})
    return out


# ---------------------------------------------------------------------------
# standard forms


def _linear_standard(entries: tuple) -> bool:
    # [(0)_{2k+1}] or [(0)_{2k}, a_1..a_l] with a_i >= 2, either orientation
    for seq in (entries, tuple(reversed(entries))):
        z = 0
        while z < len(seq) and seq[z] == 0:
            z += 1
        rest = seq[z:]
        if not rest:
            return True  # all zeros, any length
        if z % 2 == 0 and all(a >= 2 for a in rest):
            return True
    return False


def _circular_standard(entries: tuple) -> bool:
    n = len(entries)
    if n == 0:
        return True
    rotations = []
    for seq in (entries, tuple(reversed(entries))):
        for r in range(n):
            rotations.append(seq[r:] + seq[:r])
    for rot in rotations:
        z = 0
        while z < n and rot[z] == 0:
            z += 1
        rest = rot[z:]
        if not rest:
            return True  # ((0)_k, 0)
        if 0 in rest:
            continue  # zeros not contiguous in this rotation
        if z % 2 == 0 and all(a >= 2 for a in rest):
            return True  # ((0)_{2k}, a_1..a_l)
        if len(rest) == 1 and rest[0] >= 0:
            return True  # ((0)_k, a), a >= 0
        if z % 2 == 0 and rest == (1, 1):
            return True  # ((0)_{2k}, 1, 1)
    return False


class StandardReport(namedtuple("StandardReport", "standard verdicts branching")):
    """verdicts holds (Segment, bool) pairs."""

    __slots__ = ()

    def __bool__(self):
        return self.standard

    def to_json_dict(self) -> dict:
        return {
            "standard": self.standard,
            "branching": sorted(self.branching),
            "segments": [
                {
                    "vertices": list(s.vertices),
                    "type": str(s.chain_type),
                    "circular": s.chain_type.circular,
                    "standard": ok,
                }
                for s, ok in self.verdicts
            ],
        }


def is_standard(g: WeightedGraph) -> StandardReport:
    """Every chain of the graph minus its branching set must be a
    standard chain or a standard circular type."""
    report = classify_segments(g)
    verdicts = []
    for seg in report.segments:
        if seg.chain_type.circular:
            ok = _circular_standard(seg.chain_type.entries)
        else:
            ok = _linear_standard(seg.chain_type.entries)
        verdicts.append((seg, ok))
    return StandardReport(
        all(ok for _, ok in verdicts), tuple(verdicts), report.branching
    )


class _SearchCaps:
    budget = 100_000  # moves tried, over all expanded states

    def __init__(self, g: WeightedGraph):
        self.max_vertices = max(len(g.vertices), 4) + 4
        wmax = max([abs(v.weight) for v in g.vertices.values()], default=0)
        self.max_abs_weight = max(wmax, 4) + 4

    def admits(self, n_vertices: int, weights) -> bool:
        """Whether a graph is within the caps, given its vertex count and
        all of its weights."""
        if n_vertices > self.max_vertices:
            return False
        return all(abs(w) <= self.max_abs_weight for w in weights)


def _move_sites(g: WeightedGraph) -> tuple:
    """Where the search's moves apply on g, found once per expanded state,
    as (ids, blowdowns, flows): g's ids in order, its superfluous vertices,
    and its rational 0-vertices with two neighbours, each with those
    neighbours in order.  `_search_moves`, `_move_count` and `_candidates`
    all read this one list."""
    ids = g.sorted_ids()
    blowdowns, flows = [], []
    for vid in ids:
        v = g.vertices[vid]
        if is_superfluous(g, vid):
            blowdowns.append(vid)
        elif v.weight == 0 and v.genus == 0 and v.boundary == 0:
            nbrs = g.neighbors(vid)
            if branching_number(g, vid) == 2 and len(nbrs) == 2:
                flows.append((vid, nbrs))
    return ids, blowdowns, flows


def _search_moves(g: WeightedGraph, sites=None):
    """Deterministic move enumeration for the standardization search, as
    log entries, read off g's `_move_sites` (found here unless given): the
    blowdowns, the flows toward each neighbour, the inner blowups in edge
    order, then the outer blowups in id order.  A blowup entry names no
    new_id, so the move picks `fresh_id`."""
    ids, blowdowns, flows = _move_sites(g) if sites is None else sites
    for vid in blowdowns:
        yield {"move": "blowdown", "vertex": vid}
    for vid, nbrs in flows:
        for n in nbrs:
            yield {"move": "flow", "vertex": vid, "toward": n}
    for e in g.edges:
        yield {"move": "blowup", "center": {"edge": [e.u, e.v]}}
    for vid in ids:
        yield {"move": "blowup", "center": {"vertex": vid}}


def _move_count(g: WeightedGraph, sites: tuple) -> int:
    """The number of `_search_moves` entries on g, read off its sites."""
    ids, blowdowns, flows = sites
    return len(blowdowns) + 2 * len(flows) + len(g.edges) + len(ids)


def _survey(g: WeightedGraph, starts=None) -> tuple:
    """One walk over the chains of g minus its branching set, as
    (circular, nonstandard, cycles): the vertex set of each circular
    chain (cycles) and their union (circular), and the vertex set of each
    chain that is not standard.  g is standard exactly when nonstandard is
    empty.  With starts, only the chains through those of its vertices
    that are in g are walked; `_child_survey` adds the rest of a child's
    chains from its parent's survey.  `_linear_standard` and
    `_circular_standard` try every orientation and rotation, so the chains
    need no orienting."""
    starts = g.vertices if starts is None else [x for x in starts if x in g.vertices]
    cycles, nonstandard = [], []
    for order, is_circular in _chains_through(g, branching_set(g), starts):
        entries = _entries(g, order)
        if is_circular:
            cycles.append(frozenset(order))
            if not _circular_standard(entries):
                nonstandard.append(cycles[-1])
        elif not _linear_standard(entries):
            nonstandard.append(frozenset(order))
    return set().union(*cycles), nonstandard, cycles


def _touched(g: WeightedGraph, entry: dict) -> set:
    """The touched set T of a `_search_moves` entry on g: the vertices
    whose weight, edges or branching the move may change, a blowup's new
    vertex (the `fresh_id` the move picks), and the neighbours of a vertex
    whose branching may change.  `standardize` has the lemma."""
    around = g.around
    kind = entry["move"]
    if kind == "flow":
        return {x for x, _ in around[entry["vertex"]]}
    if kind == "blowdown":
        v = entry["vertex"]
        touched = {v, *(x for x, _ in around[v])}
        if len(around[v]) == 1:
            touched.update(x for x, _ in around[around[v][0][0]])
        return touched
    new, center = fresh_id(g.vertices), entry["center"]
    if "edge" in center:
        return {*center["edge"], new}
    v = center["vertex"]
    return {v, new, *(x for x, _ in around[v])}


def _child_survey(survey: tuple, touched: set, child: WeightedGraph) -> tuple:
    """The `_survey` of a child, read off its parent's survey and the
    move's touched set: the parent's cycles and non-standard chains that
    miss the touched set, and the chains of the child walked from it."""
    _, nonstandard, cycles = survey
    _, walked_nonstandard, walked_cycles = _survey(child, touched)
    cycles = [c for c in cycles if c.isdisjoint(touched)] + walked_cycles
    nonstandard = [c for c in nonstandard if c.isdisjoint(touched)]
    return set().union(*cycles), nonstandard + walked_nonstandard, cycles


def _could_be_standard(g: WeightedGraph, entry: dict, survey: tuple):
    """For a `_search_moves` entry on g, whose `_survey` this is, read off
    g and the survey without building the child: the move's touched set
    when the child could be standard, else None."""
    circular, nonstandard, _ = survey
    if entry["move"] == "blowup":
        edge = entry["center"].get("edge")
        if edge is None or not circular.issuperset(edge):
            return None
    touched = _touched(g, entry)
    if any(chain.isdisjoint(touched) for chain in nonstandard):
        return None
    return touched


def _candidates(g: WeightedGraph, sites: tuple, survey: tuple):
    """Yield (index, entry, touched set) for each `_search_moves` entry on
    g that `_could_be_standard` admits, in order, making no other entry:
    no outer blowup is admitted, nor an inner one off the circular
    chains."""
    _, blowdowns, flows = sites
    entries = [{"move": "blowdown", "vertex": vid} for vid in blowdowns]
    entries += [{"move": "flow", "vertex": vid, "toward": n}
                for vid, nbrs in flows for n in nbrs]
    circular = survey[0]
    if circular:
        entries += [{"move": "blowup", "center": {"edge": [e.u, e.v]}}
                    if e.u in circular and e.v in circular else None
                    for e in g.edges]
    for i, entry in enumerate(entries):
        if entry is not None:
            touched = _could_be_standard(g, entry, survey)
            if touched is not None:
                yield i, entry, touched


def _is_revisit(seen: dict, state: WeightedGraph) -> bool:
    """Whether a state isomorphic to state was recorded in seen; if none
    was, record state.  seen maps an `isomorphism_key` to the one state
    recorded under it, kept as the graph, or, once a second state with
    that key is asked about, to the set of their canonical encodings.  So
    a state is canonically encoded only when its key is already in seen,
    and the state stored under that key is encoded then, once."""
    key = isomorphism_key(state)
    known = seen.get(key)
    if known is None:
        seen[key] = state
        return False
    if isinstance(known, WeightedGraph):
        known = seen[key] = {canonical_encoding(known)}
    enc = canonical_encoding(state)
    if enc in known:
        return True
    known.add(enc)
    return False


def _build(state: WeightedGraph, state_log: tuple, move: dict,
           caps: _SearchCaps):
    """Apply a `_search_moves` entry to a state of the search: the child
    and its log, or None when the child is outside the caps."""
    sub: list = []
    child = apply_move(state, move, sub)
    if not caps.admits(len(child.vertices),
                       [v.weight for v in child.vertices.values()]):
        return None
    return child, (*state_log, *sub)


def _children(state: WeightedGraph, state_log: tuple, survey: tuple,
              sites: tuple, built: dict, caps: _SearchCaps, seen: dict):
    """Take the children of an expanded state from its queue entry, in
    `_search_moves` order, as (child, log, survey): a candidate built when
    the state was expanded is reused, any other child is built now and
    its survey inherited.  A child outside the caps or a revisit
    (`_is_revisit`) is skipped."""
    for i, move in enumerate(_search_moves(state, sites)):
        if i in built:
            child = built[i]
            if child is not None and not _is_revisit(seen, child[0]):
                yield child
            continue
        made = _build(state, state_log, move, caps)
        if made is not None and not _is_revisit(seen, made[0]):
            yield (*made, _child_survey(survey, _touched(state, move), made[0]))


_STRATEGY = (
    "(strategy: minimalize, then BFS over blowdowns, flows and bounded "
    "blowups); this indicates a strategy gap, not a certified negative"
)


def standardize(g: WeightedGraph) -> tuple[WeightedGraph, list]:
    """snc-minimalize, then search for a standard form by breadth-first
    exploration of contractions, flows and bounded blowups.

    The search caps vertex count and weights near the input's own size
    and gives up loudly, saying how far it got, after a fixed budget of
    moves tried (a strategy failure, never a proof that no standard form
    exists).

    The goal test runs only after snc-minimalizing, so an input that is
    already standard but not snc-minimal comes back changed: the (1,1)
    boundary D-part, which `is_standard` accepts, returns as another
    standard graph after two moves (a blowdown of L1_0, then an inner
    blowup on L1_inf-L2_inf) rather than unchanged with an empty log.

    Lazy child lists.  The queue holds one entry per expanded state: the
    state, its log, its survey (`_survey`), its move sites (`_move_sites`)
    and the children built while it was expanded, by `_search_moves`
    index.  Expanding a state builds only its candidates (`_candidates`),
    the children that `_could_be_standard` admits, in `_search_moves`
    order.  Each is built (`_build`: the move is applied and the child
    checked against the caps on its vertex count and all of its weights)
    and goal-tested, and the first standard one is returned.  Taking an
    entry from the queue takes its children in `_search_moves` order
    (`_children`): a candidate is reused, any other child is built then.
    A child outside the caps, or a revisit, is dropped; every other child
    is expanded at once, and its entry goes to the end of the queue.  A
    search that queued every child of a state, in `_search_moves` order,
    held them side by side and expanded them in that order when it took
    them; so taking a state's entry expands the same children in the same
    order, and each expansion appends its entry where that search
    appended the expanded state's children.  Every child is built at most
    once, and only a candidate is built before its turn.

    The budget.  A state's move count n (`_move_count`) is the number of
    its `_search_moves` entries, all of which count as tried when it is
    expanded.  With room the budget less the moves tried before, only
    the candidates with index below room are built, and the search raises
    when n > room: a search that tried the moves one by one raised at the
    move with index room, after building and testing the candidates
    before it.

    Which children could be standard.  A standard form has
    (-1)-vertices only on circular chains, since `_linear_standard`
    admits no entry 1.  The new vertex of a blowup is undecorated with
    one or two neighbours, so it is never branching.  After an outer
    blowup the new vertex is the tip of a linear chain; after an inner
    blowup on the edge u-v it lies on a circular chain exactly when u-v
    does in the parent.  So every outer blowup child, and every inner one
    off the circular chains, is not standard.

    The touched set T of a move (`_touched`) holds every vertex whose
    weight, edges or branching the move may change, the new vertex of a
    blowup, and the neighbours of a vertex whose branching may change:

    - flow on z: T = the two neighbours of z, which change weight; the
      edges stay as they are;
    - blowdown of v: T = {v} and the neighbours of v, plus the
      neighbours of a when v is a tip on a, since a loses an edge end
      and may stop branching; when v has two neighbours, each keeps its
      number of edge ends;
    - inner blowup on u-v: T = {u, v, new}; u and v keep their numbers
      of edge ends, and when both are branching the new vertex is a
      one-vertex chain no walk from u or v reaches;
    - outer blowup at v: T = {v, new} and the neighbours of v, since v
      gains an edge end and may start branching.

    Lemma: a maximal chain of the child that misses T is a maximal chain
    of the parent with the same entries, and conversely.  Every edge a
    move adds or removes joins two vertices of T, so outside T no vertex
    changes its weight, edges or decorations, nor whether it branches.  A
    chain vertex next to a vertex whose branching may change, or next to
    the new vertex, is in T, so a chain that misses T also stops where it
    did.

    So if a non-standard chain of the parent misses T, the child is not
    standard, which `_could_be_standard` reads off the parent's survey.
    When no such chain does, every chain of the child that misses T is
    standard, and the goal test walks only the chains through T.  And
    every child's survey is inherited (`_child_survey`): the parent's
    cycles and non-standard chains that miss T, and the chains walked in
    the child from T.  Only the input is surveyed whole.

    `_search_moves` yields only blowups, blowdowns of superfluous
    vertices and flows on 0-vertices with two neighbours, which
    `apply_move` always accepts, so building a child never fails.  The
    moves tried, the states expanded, the result and its log, and both
    errors are therefore the same as when every child was built and
    tested as it was made.

    Revisits are pruned when a child is taken: it is expanded only if no
    isomorphic state was expanded before (`_is_revisit`).  Standardness
    is invariant under isomorphism, and only non-standard states are ever
    recorded, so no standard child is pruned as a revisit.  A search that
    pruned each child as it was made therefore expands the same states in
    the same order, returns the same first standard child with the same
    log, and runs out of budget or states at the same move.

    The revisit test files the expanded states by `isomorphism_key`, a
    cheap isomorphism invariant, and canonically encodes a state only
    when an earlier expanded state has the same key; the state stored
    under that key is then encoded too, once.  Isomorphic states have
    equal keys, so a state whose key is new is isomorphic to no state
    expanded before.  Canonical encodings are equal exactly for
    isomorphic graphs, so a state whose key is not new is pruned exactly
    when an isomorphic state was expanded, as when every state was
    encoded.
    """
    _require_divisor(g, "standardize")
    cur, log = snc_minimalize(g)
    survey = _survey(cur)
    if not survey[1]:
        return cur, log

    caps = _SearchCaps(cur)
    seen: dict = {isomorphism_key(cur): cur}
    # (state, log, survey, move sites, {move index: candidate child or None})
    queue: deque = deque()
    tried = expanded = 0
    children = [(cur, tuple(log), survey)]  # the input, taken as a child
    while True:
        for state, state_log, survey in children:
            expanded += 1
            sites = _move_sites(state)
            n = _move_count(state, sites)
            room = caps.budget - tried
            tried += n
            built: dict = {}
            for i, move, touched in _candidates(state, sites, survey):
                if i >= room:
                    break
                child = _build(state, state_log, move, caps)
                if child is not None:
                    child = (*child, _child_survey(survey, touched, child[0]))
                    if not child[2][1]:
                        return child[0], list(child[1])
                built[i] = child
            if n > room:
                raise DomainError(
                    "standardize: move budget exhausted after "
                    f"{caps.budget} of {caps.budget} moves tried, "
                    f"{expanded} states expanded {_STRATEGY}"
                )
            queue.append((state, state_log, survey, sites, built))
        if not queue:
            raise DomainError(
                "standardize: search space exhausted under caps after "
                f"{tried} of {caps.budget} moves tried, {expanded} states "
                f"expanded {_STRATEGY}"
            )
        children = _children(*queue.popleft(), caps, seen)


# ---------------------------------------------------------------------------
# barks


def bark(g: WeightedGraph, twig: list) -> dict:
    """Solve (intersection matrix of the twig) . c = (-1, 0, ..., 0),
    the -1 sitting at the free tip (first vertex of the tip-first list).

    The matrix is tridiagonal, so by Cramer's rule, for the twig's
    entries a_1..a_n tip first, c_i = K(a_{i+1}..a_n) / K(a_1..a_n), where
    K is the continuant (`continued_fraction_eval`) and K of the empty
    chain is 1.  Coefficients come back as exact Fractions, strictly
    between 0 and 1.
    """
    if not twig:
        raise DomainError("bark: twig must be non-empty")
    if len(set(twig)) != len(twig):
        raise DomainError("bark: repeated vertex in twig")
    for vid in twig:
        if vid not in g.vertices:
            raise DomainError(f"bark: vertex {vid!r} not found")
        v = g.vertices[vid]
        if v.genus != 0 or v.boundary != 0:
            raise DomainError(f"bark: twig vertex {vid!r} must be rational")
        if v.weight > -2:
            raise DomainError(
                f"bark: twig vertex {vid!r} has weight {v.weight} > -2; "
                "twig not admissible"
            )
    for a, b in zip(twig, twig[1:]):
        if b not in g.neighbors(a):
            raise DomainError(f"bark: {a!r} and {b!r} are not adjacent")
    tip = twig[0]
    tip_inside = [n for n in g.neighbors(tip) if n in twig]
    if len(twig) > 1 and tip_inside != [twig[1]]:
        raise DomainError("bark: twig must be listed tip first")

    entries = tuple(-g.vertices[vid].weight for vid in twig)
    det = continued_fraction_eval(ChainType(entries))[0]
    out = {}
    for i, vid in enumerate(twig):
        c = Fraction(continued_fraction_eval(ChainType(entries[i + 1:]))[0], det)
        if not (0 < c < 1):
            raise AssertionError(
                f"bark: coefficient {c} of {vid!r} not strictly between 0 and 1"
            )
        out[vid] = c
    return out


# ---------------------------------------------------------------------------
# replay


def _entry_id(entry: dict, key: str) -> str:
    """The vertex id a move-log entry names under key."""
    x = entry.get(key)
    if not isinstance(x, str):
        raise DomainError(f"replay: {key!r} must be a vertex id string in {entry!r}")
    return x


def _replay_blowup(g: WeightedGraph, entry: dict, log) -> WeightedGraph:
    center = entry.get("center", {})
    new_id = entry.get("new_id")
    if new_id is not None and not isinstance(new_id, str):
        raise DomainError(f"replay: new_id must be a string in {entry!r}")
    if new_id == "":
        raise DomainError(f"replay: new_id must not be empty in {entry!r}")
    if isinstance(center, dict) and "vertex" in center:
        return blow_up(g, _entry_id(center, "vertex"), log, new_id)
    if isinstance(center, dict) and "edge" in center:
        ends = center["edge"]
        if (not isinstance(ends, list) or len(ends) != 2
                or not all(isinstance(x, str) for x in ends)):
            raise DomainError(
                f"replay: blowup edge must be two vertex ids, got {ends!r}"
            )
        return blow_up(g, Edge(*ends), log, new_id)
    raise DomainError(f"replay: malformed blowup center {center!r}")


# Move name -> (graph, entry, log) -> graph: checks the entry's fields and
# applies the move.  Each move is looked up as a module global when called,
# never stored here, so a move rebound on this module is the one applied.
MOVES = {
    "blowup": _replay_blowup,
    "blowdown": lambda g, e, log: blow_down(g, _entry_id(e, "vertex"), log),
    "flow": lambda g, e, log: elementary_flow(
        g, _entry_id(e, "vertex"), _entry_id(e, "toward"), log),
    "R1": lambda g, e, log: move_R1(g, _entry_id(e, "vertex"), log),
    "R3": lambda g, e, log: move_R3(g, _entry_id(e, "vertex"), log),
}


def apply_move(g: WeightedGraph, entry, log: list | None = None) -> WeightedGraph:
    """Apply one move-log entry through MOVES, appending what the move
    logs to log."""
    if not isinstance(entry, dict) or "move" not in entry:
        raise DomainError(f"replay: malformed log entry {entry!r}")
    kind = entry["move"]
    if not isinstance(kind, str) or kind not in MOVES:
        raise DomainError(f"replay: unknown move {kind!r}")
    return MOVES[kind](g, entry, log)


def replay(g: WeightedGraph, log: list) -> WeightedGraph:
    """Apply a recorded move list to the graph it was recorded from."""
    cur = g
    for entry in log:
        cur = apply_move(cur, entry)
    return cur
