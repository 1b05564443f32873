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


def _search_moves(g: WeightedGraph):
    """Deterministic move enumeration for the standardization search, as
    log entries; a blowup entry names no new_id, so the move picks
    `fresh_id`."""
    ids = g.sorted_ids()
    for vid in ids:
        if is_superfluous(g, vid):
            yield {"move": "blowdown", "vertex": vid}
    for vid in ids:
        v = g.vertices[vid]
        if v.weight == 0 and v.genus == 0 and v.boundary == 0:
            if branching_number(g, vid) == 2 and len(g.neighbors(vid)) == 2:
                for n in g.neighbors(vid):
                    yield {"move": "flow", "vertex": vid, "toward": n}
    for e in g.edges:
        yield {"move": "blowup", "center": {"edge": [e.u, e.v]}}
    for vid in ids:
        yield {"move": "blowup", "center": {"vertex": vid}}


def _survey(g: WeightedGraph, starts=None) -> tuple:
    """One walk over the chains of g minus its branching set, as
    (circular, nonstandard): the set of vertices on circular chains, and
    the vertex set of each chain that is not standard.  g is standard
    exactly when nonstandard is empty.  With starts, only the chains
    through those of its vertices that are in g are walked.
    `_linear_standard` and `_circular_standard` try every orientation and
    rotation, so the chains need no orienting."""
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


def _could_be_standard(g: WeightedGraph, entry: dict, survey: tuple):
    """For a `_search_moves` entry on g, whose `_survey` this is, read off
    g and the survey without building the child: the move's touched set T
    when the child could be standard, else None."""
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

    Work on a child is paid only when the child is taken from the queue,
    except the test of whether it could be standard (`_could_be_standard`),
    read off the parent and its survey.  Each expanded state is surveyed
    once (`_survey`): its circular-chain vertices and its chains that are
    not standard.

    A child is built in one way (`_build`): the move is applied, and the
    built child is checked against the caps on its vertex count and all
    of its weights; a child outside the caps is dropped before it is
    encoded.  Most children cannot be standard.  Such a child is queued
    as its parent, the parent's log and its move-log entry, not as a
    graph, and built when it is taken from the queue.  A child that could
    be standard is built at once and given the goal test, and the first
    standard child is returned.  Any other is queued as its built graph
    and log, so it is never built twice.

    Blowups: a standard form has (-1)-vertices only on circular chains,
    since `_linear_standard` admits no entry 1.  The new vertex of a
    blowup is undecorated with one or two neighbours, so it is never
    branching, and divisor graphs have no loops or multi-edges, so a
    blowup changes no other vertex's branching.  After an outer blowup
    the new vertex is the tip of a linear chain; after an inner blowup on
    the edge u-v it lies on a circular chain exactly when u-v does in the
    parent.  So every outer blowup child, and every inner one off the
    circular chains, is not standard.

    Flows, blowdowns and the remaining inner blowups: a chain of the
    parent that contains no vertex of the move's touched set T is a
    maximal chain of the child, with the same entries.  So if some
    non-standard chain of the parent is disjoint from T, the child is not
    standard.  T holds every vertex whose weight, edges or branching the
    move changes, and their neighbours where a chain could grow through
    them:

    - flow on z toward t: T = {t, o}, o the other neighbour of z; the
      edges stay as they are;
    - blowdown of v: T = {v} and the neighbours of v, plus the
      neighbours of a when v is a tip on a, since a loses an edge end
      and may stop branching; when v has two neighbours, each keeps its
      number of edge ends;
    - inner blowup on u-v: T = {u, v}.

    Conversely, a chain of the child with no vertex in T is a chain of
    the parent with the same entries.  Outside T no vertex changes its
    weight, its edges or its decorations.  No move whose child could be
    standard gives a vertex more edge ends, so a vertex branching in the
    child is branching in the parent.  And the new vertex of an inner
    blowup on a circular chain lies on the chain of u and v.  When the
    child could be standard, every non-standard chain of the parent meets
    T, so such a chain is standard.  The goal test, `_survey` of the
    child from T, therefore walks only the chains through T.

    `_search_moves` yields only blowups, blowdowns of superfluous
    vertices and flows on 0-vertices with two neighbours, which
    `apply_move` always accepts, so building a child never fails.  The
    moves tried, the states queued and expanded, the result and its log,
    and both errors are therefore the same as when every child was built
    and tested.

    Revisits are pruned when a state is taken from the queue: its graph
    is built if it was queued unbuilt, and it is expanded only if no
    isomorphic state was expanded before (`_is_revisit`).  Dropping a
    child outside the caps when it is taken from the queue, not when it
    is made, leaves the other entries in the same order.
    Standardness is invariant under isomorphism, and only non-standard
    states are ever recorded, so no standard child is pruned as a revisit.
    A search that pruned each child as it was made therefore expands the
    same states in the same order, returns the same first standard child
    with the same log, and runs out of budget or states at the same move.

    The revisit test files the expanded states by `isomorphism_key`, a
    cheap isomorphism invariant, and canonically encodes a state only
    when an earlier expanded state has the same key; the state stored
    under that key is then encoded too, once.  Isomorphic states have
    equal keys, so a state whose key is new is isomorphic to no state
    expanded before.  Canonical encodings are equal exactly for
    isomorphic graphs, so a state whose key is not new is pruned exactly
    when an isomorphic state was expanded.  The test therefore prunes the
    same states as encoding every state did: the search expands the same
    states in the same order, tries the same moves, returns the same
    graph and log, and raises the same errors with the same counts.
    """
    _require_divisor(g, "standardize")
    cur, log = snc_minimalize(g)
    if not _survey(cur)[1]:
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
        survey = _survey(state)
        for move in _search_moves(state):
            tried += 1
            if tried > caps.budget:
                raise DomainError(
                    "standardize: move budget exhausted after "
                    f"{caps.budget} of {caps.budget} moves tried, "
                    f"{expanded} states expanded {_STRATEGY}"
                )
            touched = _could_be_standard(state, move, survey)
            if touched is None:
                queue.append((state, state_log, move))
                continue
            built = _build(state, state_log, move, caps)
            if built is None:
                continue
            nxt, nxt_log = built
            if not _survey(nxt, touched)[1]:
                return nxt, list(nxt_log)
            queue.append((nxt, nxt_log, None))
    raise DomainError(
        "standardize: search space exhausted under caps after "
        f"{tried} of {caps.budget} moves tried, {expanded} states expanded "
        f"{_STRATEGY}"
    )


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
