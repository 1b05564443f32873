"""Decorated weighted multigraphs and exact integer linear algebra.

The graph objects here serve two roles: dual graphs of simple normal
crossing divisors (kind="divisor") and plumbing descriptions of graph
3-manifolds (kind="plumbing").  Vertices carry a self-intersection
weight plus genus/boundary decorations; edges carry a sign.  Divisor
graphs are restricted at construction time: no loops, no multi-edges,
all edge signs +1.

Type notation used throughout: the *entries* of a chain type are the
NEGATED vertex weights, so the chain [3,2] has weights (-3,-2) and a
0-weight vertex has entry 0.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import Counter, defaultdict, namedtuple
from heapq import heappop, heappush
from itertools import compress


class DomainError(ValueError):
    """Input violates a documented precondition of an operation."""


class OutOfScopeError(NotImplementedError):
    """Input is valid mathematics but outside the implemented calculus."""


# ---------------------------------------------------------------------------
# data model


class Vertex(namedtuple("Vertex", "id weight genus boundary label")):
    __slots__ = ()

    def __new__(cls, id: str, weight: int, genus: int = 0, boundary: int = 0,
                label: str | None = None):
        return cls._make((id, weight, genus, boundary, label))

    @classmethod
    def _make(cls, fields):
        """The one place a vertex is made and checked; namedtuple's
        `_replace` makes its copy here too."""
        id, weight, genus, boundary, label = fields
        if not isinstance(id, str) or not id:
            raise DomainError("vertex id must be a non-empty string")
        if genus < 0:
            raise OutOfScopeError(
                "negative genus (non-orientable base) is not implemented"
            )
        if boundary < 0:
            raise DomainError("boundary count must be >= 0")
        return tuple.__new__(cls, (id, weight, genus, boundary, label))


class Edge(namedtuple("Edge", "u v sign")):
    __slots__ = ()

    def __new__(cls, u: str, v: str, sign: int = 1):
        if sign not in (1, -1):
            raise DomainError("edge sign must be +1 or -1")
        if v < u:
            u, v = v, u
        return tuple.__new__(cls, (u, v, sign))

    @property
    def is_loop(self) -> bool:
        return self.u == self.v


def _edge_key(e: Edge) -> tuple:
    return (e.u, e.v, -e.sign)


# The empty graph of a kind, the parent the constructor derives from: it
# holds what `WeightedGraph._derive` reads of a parent.
_EmptyGraph = namedtuple("_EmptyGraph", "kind vertices edges around loops")


class WeightedGraph:
    """A finite weighted multigraph with signed edges.

    kind="divisor" enforces: no loops, no multi-edges, all signs +1.
    Equality is exact (same vertices, same edge multiset), which is what
    replay verification needs; use graphs_isomorphic for structural
    comparison.  A graph is never changed after it is built: every
    operation returns a new graph.

    Every graph is built by `_derive`, which keeps the edges in
    `_edge_key` order and the incidence index with them: the list
    around[v] holds the (other end, sign) pair of each non-loop edge at
    v, in edge order, which is (other end, -sign) order, and the tuple
    loops[v] the signs of the loops at v, ascending.  Like the graph, the
    index is never changed, so a child graph may share parts of it.  A
    vertex has len(around[v]) + 2 * len(loops[v]) edge ends.

    The constructor reads outside data: it checks the kind and the
    vertex ids, then derives the graph from the empty graph of its kind
    with every vertex put and every edge added in `_edge_key` order, so
    the first bad edge in that order is the one reported.  Every other
    graph, a move's or an induced subgraph, derives from its parent.
    `_derive` checks the divisor rules on the edges it adds; every other
    edge was checked when the parent was built.
    """

    __slots__ = ("kind", "vertices", "edges", "around", "loops")

    def __init__(self, kind: str, vertices, edges):
        if kind not in ("divisor", "plumbing"):
            raise DomainError(f"unknown graph kind {kind!r}")
        vs: dict[str, Vertex] = {}
        for v in vertices:
            vid = v.id
            if vid in vs:
                raise DomainError(f"duplicate vertex id {vid!r}")
            vs[vid] = v
        # sorted, so a bad edge is reported in edge order and each edge
        # goes into the last block of the edges so far
        WeightedGraph._derive(_EmptyGraph(kind, {}, (), {}, {}), vs,
                              add=sorted(edges, key=_edge_key), out=self)

    def _derive(self, put=(), drop=(), cut=(), add=(), out=None) -> "WeightedGraph":
        """This graph with the vertices of drop removed with their edges,
        each vertex of put, a map from ids to vertices, in place of its
        namesake or appended when its id is new (a dropped id counts as
        new), one copy of each edge of cut, which meets no dropped vertex,
        removed and the edges of add added, filled into out (a new graph
        by default; the constructor passes itself).

        The maps are copied at C speed and the index is patched only at
        the ends of the edges removed or added and at the new vertices.
        The (u, v) copies of an edge form one block of the edges, +1
        copies first, so in tuple order the block runs from (u, v) to
        (u, v, 2), and the (b, s) pairs in around[a] from (b,) to (b, 2):
        a +1 copy goes in or out at its block's start, a -1 copy at its
        end, found by `bisect` with no key; an added edge whose (u, v)
        sorts after the last edge's is appended to all three lists, as
        each of the constructor's is.  Once a dropped vertex's edges
        to kept vertices are cut, its loops and edges to larger ids are
        one run of the edges from (d,), removed at once.  The divisor
        rules are checked on the added edges only.  A child that changes
        only weights or labels shares this graph's edges and index."""
        vs = self.vertices.copy()
        for vid in drop:
            del vs[vid]
        vs.update(put)
        if out is None:
            out = object.__new__(WeightedGraph)
        out.kind, out.vertices = self.kind, vs
        if not drop and not cut and not add and len(vs) == len(self.vertices):
            out.edges, out.around, out.loops = self.edges, self.around, self.loops
            return out
        edges, around, loops = list(self.edges), self.around.copy(), self.loops.copy()
        gone, cut, runs = set(drop), list(cut), []
        for d in drop:
            # d's edges to kept vertices are cut below; then its loops and
            # its edges to larger dropped ids are one run of the edges
            run = len(loops.pop(d))
            for x, s in around.pop(d):
                if x not in gone:
                    cut.append((x, d, s) if x < d else (d, x, s))
                elif x > d:
                    run += 1
            runs.append((d, run))
        owned = set()  # the vertices whose around list is this graph's own
        for vid in put:
            if vid not in around:
                around[vid], loops[vid] = [], ()
                owned.add(vid)
        for e in cut:
            u, v, s = e
            i = bisect_left(edges, (u, v)) if s == 1 else bisect_left(edges, (u, v, 2)) - 1
            if edges[i:i + 1] != [e]:
                raise DomainError(f"edge ({u!r},{v!r}) not found")
            del edges[i]
            if u == v:
                left = list(loops[u])
                left.remove(s)
                loops[u] = tuple(left)
                continue
            for a, b in (u, v), (v, u):
                if a in gone:
                    continue
                if a not in owned:
                    around[a] = around[a][:]  # the parent's stays
                    owned.add(a)
                around[a].remove((b, s))
        for d, run in runs:
            i = bisect_left(edges, (d,))
            del edges[i:i + run]
        divisor = self.kind == "divisor"
        lu, lv = edges[-1][:2] if edges else ("", "")  # the last edge's ends
        for e in add:
            u, v, s = e
            if u not in vs or v not in vs:
                raise DomainError(f"edge ({u!r},{v!r}) references missing vertex")
            if divisor and (u == v or s != 1):
                raise DomainError("divisor graphs cannot carry loops" if u == v
                                  else "divisor graphs have only +1 edges")
            if tail := u > lu or u == lu and v > lv:  # (u, v) past the last block
                edges.append(e)
                lu, lv = u, v
            elif divisor and (v, s) in around[u]:
                raise DomainError(f"divisor graphs cannot carry multi-edges ({u!r},{v!r})")
            else:
                edges.insert(bisect_left(edges, (u, v) if s == 1 else (u, v, 2)), e)
            if u == v:
                loops[u] = (s, *loops[u]) if s < 0 else (*loops[u], s)
                continue
            if u not in owned:
                around[u] = around[u][:]
                owned.add(u)
            if v not in owned:
                around[v] = around[v][:]
                owned.add(v)
            if tail:
                around[u].append((v, s))
                around[v].append((u, s))
            else:
                for a, b in (u, v), (v, u):
                    ends = around[a]
                    ends.insert(bisect_left(ends, (b,) if s == 1 else (b, 2)), (b, s))
        out.edges, out.around, out.loops = tuple(edges), around, loops
        return out

    # -- basic accessors ----------------------------------------------------

    def sorted_ids(self) -> list[str]:
        return sorted(self.vertices)

    def edges_at(self, vid: str) -> tuple:
        """Edges meeting the vertex in edge order, a loop listed once; read
        off the incidence index.  Edges sort by their ends, so the edges
        from smaller ids come first, then the loops, sign +1 first, then
        the edges to larger ids."""
        pairs = self.around.get(vid, ())
        return (
            *(Edge(x, vid, s) for x, s in pairs if x < vid),
            *(Edge(vid, vid, s) for s in reversed(self.loops.get(vid, ()))),
            *(Edge(vid, x, s) for x, s in pairs if x > vid),
        )

    def neighbors(self, vid: str) -> list[str]:
        """Distinct neighbors, loops excluded, sorted."""
        return sorted({x for x, _ in self.around.get(vid, ())})

    def induced(self, ids) -> "WeightedGraph":
        """The subgraph on the given vertex ids with every edge between
        them, derived from this graph by dropping the other vertices."""
        keep = set(ids)
        if not keep <= self.vertices.keys():
            raise DomainError(f"no vertices {sorted(keep - self.vertices.keys())}")
        return self._derive(drop=[vid for vid in self.vertices if vid not in keep])

    def __eq__(self, other):
        """Structural equality: ids, weights, decorations, edge multiset.
        Labels are display-only and ignored."""
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        strip = lambda g: {
            vid: (v.weight, v.genus, v.boundary) for vid, v in g.vertices.items()
        }
        return (
            self.kind == other.kind
            and strip(self) == strip(other)
            and self.edges == other.edges
        )

    def __repr__(self):
        return (
            f"WeightedGraph({self.kind}, {len(self.vertices)} vertices, "
            f"{len(self.edges)} edges)"
        )

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        vs = []
        for vid in self.sorted_ids():
            v = self.vertices[vid]
            d = {"id": v.id, "weight": v.weight, "genus": v.genus,
                 "boundary": v.boundary}
            if v.label is not None:
                d["label"] = v.label
            vs.append(d)
        es = [{"u": e.u, "v": e.v, "sign": e.sign} for e in self.edges]
        return {"kind": self.kind, "vertices": vs, "edges": es}

    @staticmethod
    def from_json_dict(data: dict) -> "WeightedGraph":
        if not isinstance(data, dict):
            raise DomainError("graph JSON must be an object")
        extra = set(data) - {"kind", "vertices", "edges"}
        if extra:
            raise DomainError(f"unknown graph fields: {sorted(extra)}")
        for k in ("kind", "vertices", "edges"):
            if k not in data:
                raise DomainError(f"graph JSON missing field {k!r}")
        for k in ("vertices", "edges"):
            if not isinstance(data[k], list):
                raise DomainError(f"graph field {k!r} must be a list")
        vs = []
        for row in data["vertices"]:
            if not isinstance(row, dict):
                raise DomainError("vertex entries must be objects")
            extra = set(row) - {"id", "weight", "genus", "boundary", "label"}
            if extra:
                raise DomainError(f"unknown vertex fields: {sorted(extra)}")
            if "id" not in row or "weight" not in row:
                raise DomainError("vertex entries need id and weight")
            label = row.get("label")
            if label is not None and not isinstance(label, str):
                raise DomainError("vertex label must be a string or null")
            vs.append(Vertex(row["id"], _int_field(row, "vertex", "weight"),
                             _int_field(row, "vertex", "genus", 0),
                             _int_field(row, "vertex", "boundary", 0), label))
        es = []
        for row in data["edges"]:
            if not isinstance(row, dict):
                raise DomainError("edge entries must be objects")
            extra = set(row) - {"u", "v", "sign"}
            if extra:
                raise DomainError(f"unknown edge fields: {sorted(extra)}")
            if "u" not in row or "v" not in row:
                raise DomainError("edge entries need u and v")
            if not isinstance(row["u"], str) or not isinstance(row["v"], str):
                raise DomainError("edge endpoints must be strings")
            es.append(Edge(row["u"], row["v"], _int_field(row, "edge", "sign", 1)))
        return WeightedGraph(data["kind"], vs, es)

    def to_dot(self) -> str:
        """Graphviz rendering (write-only; not an interchange format)."""
        lines = ["graph G {", "  node [shape=circle];"]
        for vid in self.sorted_ids():
            v = self.vertices[vid]
            parts = [f"{v.weight:+d}" if v.weight else "0"]
            if v.genus:
                parts.append(f"g={v.genus}")
            if v.boundary:
                parts.append(f"r={v.boundary}")
            node, name = _dot_escape(vid), _dot_escape(v.label or v.id)
            lines.append(f'  "{node}" [label="{name}\\n{" ".join(parts)}"];')
        for e in self.edges:
            attr = ' [label="-", style=dashed]' if e.sign < 0 else ""
            lines.append(f'  "{_dot_escape(e.u)}" -- "{_dot_escape(e.v)}"{attr};')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    """Text for a DOT quoted string: backslashes and quotes escaped."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _int_field(row: dict, owner: str, key: str, default: int | None = None) -> int:
    x = row.get(key, default)
    if not isinstance(x, int) or isinstance(x, bool):
        raise DomainError(f"{owner} {key} must be an integer")
    return x


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# elementary graph quantities


def reweighted(vertices, deltas: dict) -> dict[str, Vertex]:
    """The vertices by id, each weight raised by its entry in deltas.

    Moves use this to build the vertices whose weight they change."""
    return {
        v.id: Vertex(v.id, v.weight + deltas[v.id], v.genus, v.boundary, v.label)
        if v.id in deltas else v
        for v in vertices
    }


def fresh_id(taken, prefix: str = "E") -> str:
    """The first of prefix1, prefix2, ... not in the taken ids."""
    i = 1
    while f"{prefix}{i}" in taken:
        i += 1
    return f"{prefix}{i}"


def branching_number(g: WeightedGraph, vid: str) -> int:
    """Number of edge ends at the vertex; a loop contributes 2."""
    if vid not in g.vertices:
        raise DomainError(f"no vertex {vid!r}")
    return len(g.around[vid]) + 2 * len(g.loops[vid])


def spanning_forest(g: WeightedGraph) -> dict:
    """A breadth-first spanning forest of g, walked on its incidence index,
    as {vertex: (parent, sign of the tree edge) or None at a root}.

    One tree per component, rooted at its least id.  The trees come one
    after another in the order of their roots, each listing its vertices
    in the order the walk reaches them, so a parent precedes its child."""
    forest: dict = {}
    for root in g.sorted_ids():
        if root in forest:
            continue
        forest[root] = None
        queue = [root]
        for cur in queue:  # the loop reaches what it appends
            for other, s in g.around[cur]:
                if other not in forest:
                    forest[other] = (cur, s)
                    queue.append(other)
    return forest


def connected_components(g: WeightedGraph) -> list[set[str]]:
    """The vertex sets of the trees of `spanning_forest`, in its order."""
    comps: list = []
    for vid, up in spanning_forest(g).items():
        if up is None:
            comps.append(set())
        comps[-1].add(vid)
    return comps


def first_betti(g: WeightedGraph) -> int:
    """|E| - |V| + the number of trees of `spanning_forest`."""
    roots = sum(up is None for up in spanning_forest(g).values())
    return len(g.edges) - len(g.vertices) + roots


def intersection_matrix(g: WeightedGraph) -> list[list[int]]:
    """Symmetric matrix in sorted-id order; loops add 2*sign to the diagonal,
    parallel edges add their signs.  A subgraph's matrix is that of its
    `WeightedGraph.induced` graph."""
    index = {vid: i for i, vid in enumerate(g.sorted_ids())}
    m = [[0] * len(index) for _ in index]
    for vid, i in index.items():
        m[i][i] = g.vertices[vid].weight
    for u, v, s in g.edges:
        i, j = index[u], index[v]
        m[i][j] += s  # a loop, i == j, adds its sign twice
        m[j][i] += s
    return m


# ---------------------------------------------------------------------------
# exact linear algebra


def _sparse(matrix) -> list:
    """Rows of an integer matrix as dicts {column: nonzero entry}."""
    return [{j: row[j] for j in compress(range(len(row)), row)} for row in matrix]


def _integer_rows(matrix, caller: str) -> list:
    """`_sparse` rows of a matrix whose nonzero entries must all be ints;
    DomainError names the first that is not."""
    rows = _sparse(matrix)
    for i, row in enumerate(rows):
        for j, x in row.items():
            if not isinstance(x, int):
                raise DomainError(
                    f"{caller} needs integer entries; entry ({i}, {j}) is {x!r}"
                )
    return rows


def _bareiss(rows: list, n: int):
    """Sparse integer Bareiss elimination (Bareiss 1968) of the first n
    columns of `rows`, dicts {column: nonzero entry}, in place.

    A generator: step k yields (sign, pivot) before the pivot is ever
    divided by, then clears column k below it.  Every value is an integer
    minor and each step divides exactly by the previous pivot.  A column
    index holds the rows below the pivot that are nonzero in each column,
    so a step touches only those rows.  Every other row is left alone and
    records the step at which it is current; when next used it is brought
    current by one exact multiply-and-divide by the ratio of the two
    steps' divisors (both integer minors, by Sylvester's identity).

    Rows swap only on a zero pivot, and each swap flips the sign, so
    until the sign first turns negative every pivot is a leading minor.
    A zero pivot that no swap mends yields (sign, 0) and ends the pass.
    After a full pass row k is current at step k, so the first n rows
    are upper triangular and the last pivot is sign * det.
    """
    cols = defaultdict(set)  # column -> rows nonzero there, pivots excluded
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    step = [0] * len(rows)  # rows[i] is current at step step[i]
    div = [1]  # div[s] is the divisor of step s, the pivot of step s - 1

    def current(i, k):  # rows[i], brought current at step k
        s = step[i]
        if div[s] != div[k]:
            rows[i] = {j: x * div[k] // div[s] for j, x in rows[i].items()}
        return rows[i]

    sign = 1
    for k in range(n):
        if k not in rows[k]:
            r = min(cols[k], default=None)
            if r is None:
                yield sign, 0
                return
            # the columns nonzero in just one of the two rows change hands
            for j in rows[k].keys() ^ rows[r].keys():
                cols[j] ^= {k, r}
            rows[k], rows[r] = rows[r], rows[k]
            step[k], step[r] = step[r], step[k]
            sign = -sign
        top = current(k, k)
        p, prev = top[k], div[k]
        yield sign, p
        for j in top:
            cols[j].discard(k)
        tail = [(j, y) for j, y in top.items() if j != k]
        for i in cols.pop(k, ()):
            row = current(i, k)
            f = row.pop(k)
            new = {j: p * x for j, x in row.items()}
            for j, y in tail:
                x = new.get(j, 0) - f * y
                if x:
                    if j not in row:
                        cols[j].add(i)
                    new[j] = x
                else:
                    del new[j]
                    cols[j].discard(i)
            rows[i] = {j: x // prev for j, x in new.items()}
            step[i] = k + 1
        div.append(p)


def _det(rows: list) -> int:
    """Determinant of the square matrix in the first len(rows) columns of
    sparse rows, which `_bareiss` leaves upper triangular there."""
    sign, p = 1, 1
    for sign, p in _bareiss(rows, len(rows)):
        pass
    return sign * p


def det_exact(matrix) -> int:
    """Determinant of a square integer matrix by sparse integer Bareiss
    elimination.

    Raises DomainError on a non-square or ragged matrix, or on an entry
    that is not an int.  The empty matrix has determinant 1.
    """
    a = [list(row) for row in matrix]
    if any(len(row) != len(a) for row in a):
        raise DomainError("det_exact needs a square matrix")
    return _det(_integer_rows(a, "det_exact"))


def is_negative_definite(g: WeightedGraph) -> bool:
    """Sylvester criterion on the intersection matrix, exact arithmetic.

    One Bareiss pass: until a row swap the pivot at step k is the leading
    (k+1)-minor, and a swap, which flips the sign, means that minor is
    zero.  So a swap or a zero or wrong-sign pivot ends the pass before
    the pivot is ever divided by.  The empty matrix counts as negative
    definite.
    """
    a = intersection_matrix(g)
    for k, (sign, minor) in enumerate(_bareiss(_sparse(a), len(a))):
        if sign < 0 or minor * (-1) ** (k + 1) <= 0:
            return False
    return True


def _axpy(dst: dict, src: dict, f: int) -> None:
    """dst -= f * src, in place, on sparse rows."""
    for k, x in src.items():
        y = dst.get(k, 0) - f * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def smith_normal_form(matrix) -> tuple:
    """The Smith diagonal over Z of an m x n integer matrix: min(m, n)
    entries, non-negative, each dividing the next, zeros last.

    The elimination keeps only nonzero entries: each row is a dict and
    `cols` holds the rows that are nonzero in each column.  Every pivot is an
    entry of least absolute value, ties going to the least product of its
    row's and its column's nonzero counts (the Markowitz rule, which
    limits fill-in), then to the least row and column indices.  The
    entries wait in a heap keyed by (|entry|, product, row, column).  The
    diagonal is unique, so the order of the pivots decides only the
    transforms.  A row or column operation marks the rows and columns
    whose entries or counts it changed, and before the next pivot only
    their entries are pushed again; an entry popped with a key it no
    longer has is dropped.  Nothing is swapped during elimination: the
    pivot positions are recorded, and once at the end they pair the
    sparse columns of U^-1 and rows of V^-1 that the operations built,
    with which `_check_snf` proves the diagonal before it is returned.
    Entries must be integers (DomainError names the first that is not).
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if any(len(row) != n for row in matrix):
        raise DomainError("ragged matrix")
    rows = _integer_rows(matrix, "smith_normal_form")
    a = [dict(row) for row in rows]
    cols: list[set] = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    u_inv = [{i: 1} for i in range(m)]  # columns of U^-1
    v_inv = [{j: 1} for j in range(n)]  # rows of V^-1
    heap: list = []
    dirty_rows, dirty_cols = set(range(m)), set()  # every row is keyed first

    def row_op(i, p, f):  # row i -= f * row p, so column p of U^-1 += f * column i
        ri = rows[i]
        for c, x in rows[p].items():
            y = ri.get(c, 0) - f * x
            if y:
                if c not in ri:
                    cols[c].add(i)
                    dirty_cols.add(c)
                ri[c] = y
            else:
                del ri[c]
                cols[c].discard(i)
                dirty_cols.add(c)
        dirty_rows.add(i)
        _axpy(u_inv[p], u_inv[i], -f)

    def col_op(j, q, f):  # col j -= f * col q, so row q of V^-1 += f * row j
        for r in cols[q]:
            rr = rows[r]
            y = rr.get(j, 0) - f * rr[q]
            if y:
                if j not in rr:
                    cols[j].add(r)
                    dirty_rows.add(r)
                rr[j] = y
            else:
                del rr[j]
                cols[j].discard(r)
                dirty_rows.add(r)
        dirty_cols.add(j)
        _axpy(v_inv[q], v_inv[j], -f)

    live = dict.fromkeys(range(m))  # rows without a pivot yet

    def next_pivot():  # re-key the marked rows and columns, then pop
        for i in dirty_rows:
            if i in live:
                ri = rows[i]
                size = len(ri)
                for j, x in ri.items():
                    heappush(heap, (abs(x), size * len(cols[j]), i, j))
        for j in dirty_cols:
            size = len(cols[j])
            for i in cols[j]:
                if i in live:
                    ri = rows[i]
                    heappush(heap, (abs(ri[j]), len(ri) * size, i, j))
        dirty_rows.clear()
        dirty_cols.clear()
        while heap:
            a, product, i, j = heappop(heap)
            ri = rows[i]
            if (i in live and j in ri and abs(ri[j]) == a
                    and len(ri) * len(cols[j]) == product):
                return i, j
        return None

    pivots = []
    while (pivot := next_pivot()) is not None:
        p, q = pivot
        while True:
            piv = rows[p][q]
            for r in [r for r in cols[q] if r != p]:
                f = rows[r][q] // piv
                if f:
                    row_op(r, p, f)
            rest = [r for r in cols[q] if r != p]
            if rest:  # remainders, each smaller than the pivot
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
            # the pivot is alone in its row and column; it must divide
            # every entry left, or a row holding one is added to its row
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
    diagonal = tuple(rows[p][q] for p, q in pivots)
    diagonal += (0,) * (min(m, n) - len(pivots))
    _check_snf(
        a,
        diagonal,
        [u_inv[p] for p, _ in pivots] + [u_inv[i] for i in live],
        [v_inv[q] for _, q in pivots] + [v_inv[j] for j in range(n) if j not in done],
    )
    return diagonal


def _check_snf(a: list, diagonal: tuple, u_inv: list, v_inv: list) -> None:
    """Prove a Smith diagonal of the matrix whose sparse rows are `a`.

    u_inv holds the m columns of U^-1 and v_inv the n rows of V^-1, both
    sparse and in pivot order, so the t-th of each belongs to diagonal
    entry t.  The proof: U^-1 D V^-1 == A, that is, the sum over t of
    diagonal[t] * (column t of U^-1)(row t of V^-1) is A; det U^-1 and
    det V^-1 are +-1, so their inverses U and V are integer unimodular
    matrices with U A V == D; and the diagonal is in Smith order.
    """
    m, n = len(a), len(v_inv)
    if (len(u_inv) != m or len(diagonal) != min(m, n)
            or any(not 0 <= i < m for col in u_inv for i in col)
            or any(not 0 <= j < n for row in v_inv for j in row)):
        raise AssertionError("SNF shapes disagree")
    product = [{} for _ in range(m)]
    for x, col, row in zip(diagonal, u_inv, v_inv):
        if x:
            for i, y in col.items():
                out, xy = product[i], x * y
                for j, z in row.items():
                    out[j] = out.get(j, 0) + xy * z
    if [{j: x for j, x in r.items() if x} for r in product] != a:
        raise AssertionError("SNF recomposition failed")
    # _det reads columns as rows, which leaves |det| alone, and it
    # eliminates in place, so it gets copies
    if (abs(_det([dict(col) for col in u_inv])) != 1
            or abs(_det([dict(row) for row in v_inv])) != 1):
        raise AssertionError("SNF transform not unimodular")
    for i, x in enumerate(diagonal):
        if x < 0:
            raise AssertionError("SNF diagonal entry negative")
        if i and diagonal[i - 1] and x % diagonal[i - 1]:
            raise AssertionError("SNF divisibility violated")
        if i and x and not diagonal[i - 1]:
            raise AssertionError("SNF zero ordering violated")


class AbelianGroup(namedtuple("AbelianGroup", "rank torsion", defaults=((),))):
    """Finitely generated abelian group Z^rank (+) sum Z/t_i."""

    __slots__ = ()

    def __str__(self):
        parts = ["Z"] * self.rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"

    def to_json_dict(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}


def cokernel(matrix) -> AbelianGroup:
    """Z^m / (column space of the m x n matrix) as an abelian group, read
    off the Smith diagonal: each of the m rows without a nonzero diagonal
    entry gives a Z, each entry above 1 a torsion summand."""
    m = len(matrix)
    if m == 0:
        return AbelianGroup(0)
    diag = smith_normal_form(matrix)
    torsion = tuple(sorted(d for d in diag if d > 1))
    rank = m - sum(1 for d in diag if d != 0)
    return AbelianGroup(rank, torsion)


# ---------------------------------------------------------------------------
# segments and chain types


class ChainType(namedtuple("ChainType", "entries circular", defaults=(False,))):
    """Entries are negated weights; circular types compare up to
    rotation and reflection."""

    __slots__ = ()

    def __str__(self):
        inner = ",".join(str(e) for e in self.entries)
        return f"({inner})" if self.circular else f"[{inner}]"


class Segment(namedtuple("Segment", "vertices chain_type attachments")):
    """A connected component of the graph minus its branching set.

    vertices are in path order (tip first for twigs); attachments holds
    the branching vertex adjacent to each end, or None at a free tip.
    Circular segments have attachments (None, None).
    """

    __slots__ = ()

    @property
    def is_twig(self) -> bool:
        a, b = self.attachments
        return (a is None) != (b is None)


class SegmentReport(namedtuple("SegmentReport", "branching segments")):
    __slots__ = ()


def branching_set(g: WeightedGraph) -> frozenset:
    """Vertices forced outside every chain: branching number >= 3, loop
    carriers, nonzero genus, or nonzero boundary."""
    return frozenset(
        vid for vid, v in g.vertices.items()
        if v.genus or v.boundary or g.loops[vid] or len(g.around[vid]) >= 3
    )


def _entries(g: WeightedGraph, vids) -> tuple:
    return tuple(-g.vertices[x].weight for x in vids)


def _chain_at(g: WeightedGraph, b: frozenset, start: str) -> tuple:
    """The maximal chain through start of g minus the branching set b,
    walked on g's incidence index, as (vertex order, circular).

    One walk in each direction from start.  Each step leaves by an edge
    end other than the one it came in by, so a 2-cycle of parallel edges
    closes.  A cycle comes back as start followed by the cycle from its
    first edge end; a path runs from tip to tip with start somewhere in
    between, its orientation not fixed.
    """
    around = g.around
    ends = [x for x, _ in around[start] if x not in b]
    halves = ([], [])
    for half, first in zip(halves, ends):
        prev, cur = start, first
        while cur != start:
            half.append(cur)
            nxt = [x for x, _ in around[cur] if x not in b]
            nxt.remove(prev)
            if not nxt:
                break
            prev, cur = cur, nxt[0]
        else:
            return [start, *half], True
    return [*reversed(halves[1]), start, *halves[0]], False


def _chains_through(g: WeightedGraph, b: frozenset, starts):
    """Yield (vertex order, circular) once for each maximal chain of the
    graph minus the branching set b through one of the vertices starts,
    each walked once by `_chain_at` and not oriented."""
    seen: set[str] = set()
    for start in starts:
        if start in b or start in seen:
            continue
        order, circular = _chain_at(g, b, start)
        seen.update(order)
        yield order, circular


def _chains(g: WeightedGraph, b: frozenset):
    """Yield (vertex order, circular) for each maximal chain of the graph
    minus the branching set b.

    Chains come in the id order of their least vertex, each walked once
    from that vertex.  A path is oriented from its least tip.  A cycle
    runs from its least vertex toward that vertex's least neighbour,
    which `_chain_at` takes first: edges are in id order, and every other
    vertex of the cycle has a larger id, so the cycle edges at the least
    vertex come in the order of their other ends.
    """
    for order, circular in _chains_through(g, b, g.sorted_ids()):
        if not circular and order[-1] < order[0]:
            order.reverse()
        yield order, circular


def classify_segments(g: WeightedGraph) -> SegmentReport:
    """Split the graph into its branching set and maximal chains.

    Twig chains run tip first; bridge and free chains pick the
    lexicographically smaller of the two traversals; circular chains are
    canonical up to rotation and reflection.  Edge ends are counted, not
    neighbours: a vertex joined to the branching set by two parallel
    edges has two attachments, and two vertices joined by two parallel
    edges form a circular chain.
    """
    around = g.around
    b = branching_set(g)
    segments = []
    for order, circular in _chains(g, b):
        if circular:
            canon = _canonical_cycle(_entries(g, order))
            segments.append(
                Segment(tuple(order), ChainType(canon, circular=True), (None, None))
            )
            continue
        if len(order) == 1:
            outside = sorted(x for x, _ in around[order[0]] if x in b)
            if len(outside) == 0:
                att = [None, None]
            elif len(outside) == 1:
                att = [None, outside[0]]
            else:
                att = outside
        else:
            att = []
            for end in (order[0], order[-1]):
                outside = sorted(x for x, _ in around[end] if x in b)
                att.append(outside[0] if outside else None)
        order, att = _orient_path(g, order, att)
        segments.append(
            Segment(tuple(order), ChainType(_entries(g, order)), tuple(att))
        )
    segments.sort(key=lambda s: s.vertices)
    return SegmentReport(b, tuple(segments))


def _orient_path(g, order, att):
    a0, a1 = att
    if a0 is None and a1 is not None:
        return order, (a0, a1)
    if a1 is None and a0 is not None:
        return list(reversed(order)), (a1, a0)
    fwd = (_entries(g, order), tuple(order))
    rev_order = list(reversed(order))
    rev = (_entries(g, rev_order), tuple(rev_order))
    if rev < fwd:
        return rev_order, (a1, a0)
    return order, (a0, a1)


def _canonical_cycle(entries: tuple) -> tuple:
    n = len(entries)
    best = None
    for seq in (entries, tuple(reversed(entries))):
        for r in range(n):
            cand = seq[r:] + seq[:r]
            if best is None or cand < best:
                best = cand
    return best if best is not None else ()


# ---------------------------------------------------------------------------
# isomorphism and canonical labeling


def _initial_colors(g: WeightedGraph) -> dict:
    around, loops = g.around, g.loops
    return {
        vid: (v.weight, v.genus, v.boundary,
              len(around[vid]) + 2 * len(loops[vid]), loops[vid])
        for vid, v in g.vertices.items()
    }


def isomorphism_key(g: WeightedGraph) -> tuple:
    """A cheap isomorphism invariant: the kind, the vertex and edge
    counts, the sorted initial colours and the number of negative edges.
    Isomorphic graphs have equal keys; graphs with equal keys need not be
    isomorphic."""
    return (g.kind, len(g.vertices), len(g.edges),
            tuple(sorted(_initial_colors(g).values())),
            sum(e.sign < 0 for e in g.edges))


def _refine(g: WeightedGraph, cols: dict) -> dict:
    """Weisfeiler-Leman style color refinement of g until stable, on its
    incidence index.

    Signatures always include the current color, so the partition only
    ever refines; stability is detected by the class count.  A vertex
    alone in its cell gets the signature (color, ()): its color alone
    fixes its rank, since signatures sort by color first.  The input
    colors are replaced by their ranks, and a neighbour's (color, sign)
    pair by the integer 2 * color + (sign > 0); both maps keep order and
    equality, so every round ranks the signatures as before.  A discrete
    colouring is returned at once: another round would renumber it to
    itself.
    """
    ranks = {c: i for i, c in enumerate(sorted(set(cols.values())))}
    cols = {v: ranks[c] for v, c in cols.items()}
    classes = len(ranks)
    n = len(cols)
    while True:
        sizes = Counter(cols.values())
        sig = {}
        for vid, pairs in g.around.items():
            c = cols[vid]
            sig[vid] = (c, ()) if sizes[c] == 1 else (
                c, tuple(sorted([2 * cols[x] + (s > 0) for x, s in pairs])))
        ordered = sorted(set(sig.values()))
        remap = {s: i for i, s in enumerate(ordered)}
        cols = {vid: remap[s] for vid, s in sig.items()}
        if len(ordered) == classes or len(ordered) == n:
            return cols
        classes = len(ordered)


def _edge_multiset(g: WeightedGraph, mapping):
    out = []
    for u, v, s in g.edges:
        a, b = mapping[u], mapping[v]
        if b < a:
            a, b = b, a
        out.append((a, b, s))
    return sorted(out)


def graphs_isomorphic(g: WeightedGraph, h: WeightedGraph):
    """Decorated-isomorphism test by comparing canonical encodings.

    Returns (True, mapping) with mapping a dict g-id -> h-id, or
    (False, None).  Weights, genus, boundary, edge multiplicities and
    literal edge signs must all match; labels are ignored.
    """
    # the key's first three fields, read off the graphs first: they part
    # most pairs of a table of graphs without building any colours
    if ((g.kind, len(g.vertices), len(g.edges))
            != (h.kind, len(h.vertices), len(h.edges))):
        return False, None
    if isomorphism_key(g) != isomorphism_key(h):
        return False, None
    (order_g, enc_g), (order_h, enc_h) = _canonical_search(g), _canonical_search(h)
    if enc_g != enc_h:
        return False, None
    mapping = dict(zip(order_g, order_h))
    # final sanity: full edge multisets agree under the mapping
    idx_h = {vid: i for i, vid in enumerate(sorted(h.vertices))}
    lhs = _edge_multiset(g, {a: idx_h[mapping[a]] for a in mapping})
    rhs = _edge_multiset(h, idx_h)
    if lhs != rhs:
        raise AssertionError("isomorphism witness failed edge check")
    for a, b in mapping.items():
        va, vb = g.vertices[a], h.vertices[b]
        if (va.weight, va.genus, va.boundary) != (vb.weight, vb.genus, vb.boundary):
            raise AssertionError("isomorphism witness failed vertex check")
    return True, mapping


def encode_with_order(g: WeightedGraph, order) -> tuple:
    idx = {vid: i for i, vid in enumerate(order)}
    verts = tuple(
        (g.vertices[v].weight, g.vertices[v].genus, g.vertices[v].boundary)
        for v in order
    )
    return (g.kind, verts, tuple(_edge_multiset(g, idx)))


def _orbit(x, autos) -> set:
    """The orbit of x under the group the automorphisms generate."""
    orbit, stack = {x}, [x]
    while stack:
        y = stack.pop()
        for a in autos:
            if a[y] not in orbit:
                orbit.add(a[y])
                stack.append(a[y])
    return orbit


def canonical_ordering(g: WeightedGraph) -> tuple:
    """A vertex order under which isomorphic graphs, whatever their vertex
    names, get the same `encode_with_order`, and non-isomorphic graphs
    different ones."""
    return _canonical_search(g)[0]


def canonical_encoding(g: WeightedGraph) -> tuple:
    """`encode_with_order` under `canonical_ordering`."""
    return _canonical_search(g)[1]


def _canonical_search(g: WeightedGraph) -> tuple:
    """The canonical order and its encoding, as (order, encoding).

    Individualization-refinement with automorphism pruning (McKay 1981,
    "Practical graph isomorphism"; McKay & Piperno 2014).  A node of the
    search is a stable colouring.  Its children individualize each vertex
    of its first non-singleton cell in turn, in id order, and refine
    again; refinement keeps the cell order, so the individualized vertex
    comes first in its cell.  A discrete colouring is a leaf, and its
    order is the vertices sorted by colour.  The first leaf to reach the
    least encoding wins.

    Two leaves with equal encodings differ by an automorphism, which maps
    the subtree where their paths part onto one already searched, so the
    search goes back to that node.  A child in the orbit of a sibling
    already tried, under the automorphisms found so far that fix the
    individualized prefix, is skipped for the same reason.

    The search recurses once per individualized vertex, so a graph that
    needs more levels than the interpreter's recursion limit allows raises
    OutOfScopeError.
    """
    if not g.vertices:
        return (), encode_with_order(g, ())
    best: dict = {"enc": None, "order": None, "path": None}
    try:
        _search_below(g, best, [], _refine(g, _initial_colors(g)), [])
    except RecursionError:
        raise OutOfScopeError(
            f"canonical labelling of a graph on {len(g.vertices)} vertices "
            "needs a deeper search than the recursion limit allows"
        ) from None
    return best["order"], best["enc"]


def _search_below(g, best, autos, cols, path) -> int:
    """Search below the node that individualized `path`, updating `best`
    and `autos`; return the depth of the node to go on from.

    A module-level function, not a closure that names itself, so a
    search leaves no reference cycle for the garbage collector.
    """
    sizes = Counter(cols.values())
    cell = min((c for c, k in sizes.items() if k > 1), default=None)
    if cell is None:
        order = tuple(sorted(cols, key=cols.__getitem__))
        enc = encode_with_order(g, order)
        if best["enc"] is None or enc < best["enc"]:
            best.update(enc=enc, order=order, path=path)
        elif enc == best["enc"]:
            autos.append(dict(zip(order, best["order"])))
            return next(i for i, (a, b) in enumerate(zip(path, best["path"]))
                        if a != b)
        return len(path)
    tried: list[str] = []
    for x in sorted(v for v in cols if cols[v] == cell):
        fixing = [a for a in autos if all(a[p] == p for p in path)]
        if _orbit(x, fixing).isdisjoint(tried):
            tried.append(x)
            child = _refine(g, {v: (cols[v], v != x) for v in cols})
            back = _search_below(g, best, autos, child, path + [x])
            if back < len(path):
                return back
    return len(path)
