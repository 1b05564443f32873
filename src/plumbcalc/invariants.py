"""Group-theoretic and knot-theoretic fingerprints of the boundary manifolds.

Contents: the fundamental-group-at-infinity presentation and its
abelianization, homomorphism counting up to conjugation into finite
groups given by multiplication tables, the handle-decomposition
bookkeeping (with homology of the handle chain complex), and the 2-bridge
knot data (fraction and Alexander polynomial) of the surgery description.

Conventions:
- Words are tuples of signed 1-based generator indices (+i = generator,
  -i = its inverse), freely reduced.
- Commutators are [a, b] = a b a^-1 b^-1.
- Finite groups are explicit multiplication tables with identity index 0.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import permutations, product

from .graphs import AbelianGroup, DomainError, cokernel

HOM_BUDGET = 10**8


def _require_degrees(d1: int, d2: int) -> None:
    if d1 < 1 or d2 < 1:
        raise DomainError(f"need d1, d2 >= 1, got ({d1}, {d2})")


def free_reduce(word) -> tuple:
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _inv_word(word) -> tuple:
    return tuple(-x for x in reversed(word))


def _commutator(a, b) -> tuple:
    return tuple(a) + tuple(b) + _inv_word(a) + _inv_word(b)


class GroupPresentation(namedtuple("GroupPresentation", "generators relators")):
    """Finitely presented group: generator names plus relator words."""

    __slots__ = ()

    def __new__(cls, generators: tuple, relators: tuple):
        gens = tuple(generators)
        rels = tuple(free_reduce(r) for r in relators)
        if rels and not gens:
            raise DomainError("relators given without generators")
        k = len(gens)
        for r in rels:
            for x in r:
                if x == 0 or abs(x) > k:
                    raise DomainError(f"relator letter {x} out of range 1..{k}")
        return tuple.__new__(cls, (gens, rels))

    def exponent_matrix(self) -> list:
        rows = []
        for r in self.relators:
            row = [0] * len(self.generators)
            for x in r:
                row[abs(x) - 1] += 1 if x > 0 else -1
            rows.append(row)
        return rows


def pi1_presentation(d1: int, d2: int) -> GroupPresentation:
    """Fundamental group at infinity of the (d1, d2) surface.

    <delta1, delta2, lambda | delta1 = [gamma2, lambda^-1],
                              delta2 = [gamma1, lambda],
                              [gamma1, gamma2] = 1>,
    with gamma_j = delta_j^d_j.  Generator indices: 1 = delta1,
    2 = delta2, 3 = lambda.  Each defining equation is stored as the
    relator (left side) * (right side)^-1.
    """
    _require_degrees(d1, d2)
    gamma1 = (1,) * d1
    gamma2 = (2,) * d2
    lam = (3,)
    r1 = (1,) + _inv_word(_commutator(gamma2, _inv_word(lam)))
    r2 = (2,) + _inv_word(_commutator(gamma1, lam))
    r3 = _commutator(gamma1, gamma2)
    return GroupPresentation(("delta1", "delta2", "lambda"), (r1, r2, r3))


def abelianization(p: GroupPresentation) -> AbelianGroup:
    """Z^generators / (span of the relators' exponent rows): the cokernel
    of the transposed exponent matrix, one row per generator."""
    if not p.generators:
        return AbelianGroup(0, ())
    if not p.relators:
        return AbelianGroup(len(p.generators), ())
    return cokernel([list(col) for col in zip(*p.exponent_matrix())])


# -- finite groups as tables ---------------------------------------------------


class FiniteGroupTable(namedtuple("FiniteGroupTable", "order table name inverse")):
    """A finite group given by its multiplication table.

    table[a][b] is the product a*b; the identity has index 0.  The
    axioms are verified on construction, associativity by Light's test
    on a generating set, so downstream counting can trust the table
    blindly.  inverse[a] is the inverse of a, computed from the table;
    an inverse passed in is ignored.
    """

    __slots__ = ()

    def __new__(cls, order: int, table: tuple, name: str = "", inverse: tuple = ()):
        n = order
        if n < 1:
            raise DomainError("group order must be >= 1")
        if n**3 > 10**7:
            raise DomainError(f"refusing to verify a table of order {n}")
        tab = tuple(tuple(row) for row in table)
        if len(tab) != n or any(len(row) != n for row in tab):
            raise DomainError("table shape does not match order")
        for row in tab:
            for x in row:
                if not isinstance(x, int) or not 0 <= x < n:
                    raise DomainError(f"table entry {x!r} out of range")
        for a in range(n):
            if tab[0][a] != a or tab[a][0] != a:
                raise DomainError("index 0 is not an identity")
        inv = [None] * n
        for a in range(n):
            for b in range(n):
                if tab[a][b] == 0:
                    inv[a] = b
        if any(x is None for x in inv):
            raise DomainError("missing inverses")
        gens = _greedy_generators(tab)
        for a in range(n):
            row_a = tab[a]
            for s in gens:
                row_as, row_s = tab[row_a[s]], tab[s]
                for c in range(n):
                    if row_as[c] != row_a[row_s[c]]:
                        raise DomainError(f"associativity fails at ({a},{s},{c})")
        return tuple.__new__(cls, (order, tab, name, tuple(inv)))

    @staticmethod
    def from_json_dict(data: dict) -> "FiniteGroupTable":
        if not isinstance(data, dict):
            raise DomainError("group table must be a JSON object")
        extra = set(data) - {"order", "table", "name"}
        if extra:
            raise DomainError(f"unknown group-table fields {sorted(extra)}")
        if "order" not in data or "table" not in data:
            raise DomainError("group table needs 'order' and 'table'")
        order, table, name = data["order"], data["table"], data.get("name", "")

        def is_int(x):
            return isinstance(x, int) and not isinstance(x, bool)

        if not is_int(order):
            raise DomainError("group order must be an integer")
        if not isinstance(table, list) or not all(
            isinstance(row, list) and all(is_int(x) for x in row) for row in table
        ):
            raise DomainError("group table must be a list of lists of integers")
        if not isinstance(name, str):
            raise DomainError("group name must be a string")
        return FiniteGroupTable(order, tuple(tuple(row) for row in table), name)

    def to_json_dict(self) -> dict:
        out = {"order": self.order, "table": [list(r) for r in self.table]}
        if self.name:
            out["name"] = self.name
        return out


def _greedy_generators(tab: tuple) -> list:
    """Elements s_1, s_2, ... of the table whose left-normed products
    (..((s_i s_j) s_k)..) reach every element: each element that the
    products of the earlier ones miss is taken as the next.

    This is the generating set of Light's associativity test (Clifford and
    Preston 1961, section 1.2): the elements s with (x s) y = x (s y) for
    all x, y are closed under products, so checking (x s) y = x (s y) for
    these s alone proves the whole table associative, in O(n^2 |S|)
    instead of O(n^3).  Index 0 is the empty product.
    """
    gens: list = []
    reached = {0}
    for a in range(len(tab)):
        if a in reached:
            continue
        gens.append(a)
        reached, stack = {0}, [0]
        while stack:
            row = tab[stack.pop()]
            for s in gens:
                if row[s] not in reached:
                    reached.add(row[s])
                    stack.append(row[s])
    return gens


def cyclic_group(n: int) -> FiniteGroupTable:
    tab = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroupTable(n, tab, f"C{n}")


def dihedral_group(n: int) -> FiniteGroupTable:
    """Order 2n: elements s^e r^k with r^n = s^2 = 1, r s = s r^-1.

    Index = e*n + k.  dihedral_group(3) is the symmetric group on 3
    letters.
    """
    if n < 3:
        raise DomainError("dihedral_group needs n >= 3")

    def mul(x, y):
        e1, k1 = divmod(x, n)
        e2, k2 = divmod(y, n)
        k = (k2 + (k1 if e2 == 0 else -k1)) % n
        return ((e1 + e2) % 2) * n + k

    tab = [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]
    return FiniteGroupTable(2 * n, tab, f"D{n}" if n != 3 else "S3")


def dicyclic_group(m: int) -> FiniteGroupTable:
    """Order 4m: a^2m = 1, x^2 = a^m, x a x^-1 = a^-1; index = e*2m + k
    for a^k x^e.  dicyclic_group(2) is the quaternion group Q8."""
    if m < 2:
        raise DomainError("dicyclic_group needs m >= 2")
    n = 2 * m

    def mul(x, y):
        e1, k1 = divmod(x, n)
        e2, k2 = divmod(y, n)
        k = (k2 + k1) % n if e1 == 0 else (k1 - k2) % n
        if e1 == 1 and e2 == 1:
            k = (k + m) % n
        return ((e1 + e2) % 2) * n + k

    tab = [[mul(a, b) for b in range(4 * m)] for a in range(4 * m)]
    return FiniteGroupTable(4 * m, tab, "Q8" if m == 2 else f"Dic{m}")


def alternating4_group() -> FiniteGroupTable:
    elems = sorted(p for p in permutations(range(4)) if _parity(p) == 0)
    idx = {p: i for i, p in enumerate(elems)}

    def mul(a, b):
        pa, pb = elems[a], elems[b]
        return idx[tuple(pa[pb[i]] for i in range(4))]

    tab = [[mul(a, b) for b in range(12)] for a in range(12)]
    return FiniteGroupTable(12, tab, "A4")


def _parity(p) -> int:
    inv = sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )
    return inv % 2


def direct_product(a: FiniteGroupTable, b: FiniteGroupTable) -> FiniteGroupTable:
    n, m = a.order, b.order

    def mul(x, y):
        xa, xb = divmod(x, m)
        ya, yb = divmod(y, m)
        return a.table[xa][ya] * m + b.table[xb][yb]

    tab = [[mul(x, y) for y in range(n * m)] for x in range(n * m)]
    name = f"{a.name}x{b.name}" if a.name and b.name else ""
    return FiniteGroupTable(n * m, tab, name)


def group_catalog() -> dict:
    """All groups of order <= 12, keyed by name: a fresh dict over tables
    that are built and verified once per process and shared, since a
    FiniteGroupTable is immutable.

    Orders 1..12 are completely classified; the catalog has every class:
    cyclic groups, the elementary products, the dihedral groups (D3 is
    named S3), Q8, Dic3 and A4.
    """
    return dict(_catalog())


@cache
def _catalog() -> tuple:
    """The (name, table) pairs of group_catalog.  Each table verifies its
    axioms on construction, so they are built once."""
    cat = {}
    for n in range(1, 13):
        g = cyclic_group(n)
        cat[g.name] = g
    c2, c3, c4, c6 = (cyclic_group(k) for k in (2, 3, 4, 6))
    v4 = direct_product(c2, c2)
    cat["C2xC2"] = v4
    cat["C2xC4"] = direct_product(c2, c4)
    cat["C2xC2xC2"] = direct_product(c2, v4)
    cat["C3xC3"] = direct_product(c3, c3)
    cat["C2xC6"] = direct_product(c2, c6)
    for n in (3, 4, 5, 6):
        g = dihedral_group(n)
        cat[g.name] = g
    cat["Q8"] = dicyclic_group(2)
    cat["Dic3"] = dicyclic_group(3)
    cat["A4"] = alternating4_group()
    return tuple(cat.items())


def count_homs(p: GroupPresentation, G: FiniteGroupTable) -> int:
    """Exact number of homomorphisms from the presented group into G.

    Homomorphisms are closed under phi -> c_g o phi, conjugation by g in
    G, so the search runs up to conjugation.  The first generator's image
    ranges over one representative a per conjugacy class, with weight
    |a^G|; the second's over one representative b per orbit of the
    centraliser C(a) acting by conjugation, with weight |b^C(a)|; any
    further generators range over all of G.  The count is the sum of
    weight times the number of completions that kill every relator.

    This is exact.  Every orbit of G on pairs by simultaneous conjugation
    holds exactly one listed pair (a, b): its first entries form the class
    of one representative a, and the pairs of the orbit that start with a
    are one C(a)-orbit of second entries.  The orbit has
    |G| / |C(a) & C(b)| = |a^G| * |b^C(a)| members, the pair's weight.
    Conjugation by g maps the completions of (a, b) bijectively onto
    those of (g a g^-1, g b g^-1), so every member of the orbit has as
    many completions as (a, b).  For an abelian G every orbit is a single
    element and the search is the plain exhaustive one.  DomainError if
    |G|^k, for k generators, exceeds HOM_BUDGET.
    """
    k = len(p.generators)
    if G.order**k > HOM_BUDGET:
        raise DomainError(
            f"count_homs: {G.order}^{k} evaluations exceed budget {HOM_BUDGET}"
        )
    m = min(k, 2)
    prefixes, rng = _orbit_prefixes(G.table, m), range(G.order)
    tab, inv, relators = G.table, G.inverse, p.relators
    count = 0
    for weight, prefix in prefixes:
        for images in product(*((x,) for x in prefix), *[rng] * (k - m)):
            ok = True
            for rel in relators:
                acc = 0
                for x in rel:
                    g = images[x - 1] if x > 0 else inv[images[-x - 1]]
                    acc = tab[acc][g]
                if acc != 0:
                    ok = False
                    break
            if ok:
                count += weight
    return count


@cache
def _orbit_prefixes(table: tuple, m: int) -> tuple:
    """The (weight, prefix) pairs count_homs runs over for the first m
    generator images: one prefix per orbit of G on G^m by simultaneous
    conjugation, weighted by the orbit's size.

    Each level extends a prefix by one representative per orbit of the
    prefix's joint centraliser, so level 1 lists the conjugacy classes.
    Built once per table, since a catalogue of tables is counted against
    many presentations.  Raises AssertionError unless the weights satisfy
    the class equation, summing to |G|^m.
    """
    n = len(table)
    inv = [row.index(0) for row in table]
    level = [(1, (), range(n))]
    for _ in range(m):
        nxt = []
        for weight, prefix, stab in level:
            seen: set = set()
            for b in range(n):
                if b in seen:
                    continue
                orbit = {table[table[g][b]][inv[g]] for g in stab}
                seen |= orbit
                cent = [g for g in stab if table[g][b] == table[b][g]]
                nxt.append((weight * len(orbit), prefix + (b,), cent))
        level = nxt
    total = sum(w for w, _, _ in level)
    if total != n**m:
        raise AssertionError(f"orbit weights sum to {total}, not {n}^{m}")
    return tuple((w, prefix) for w, prefix, _ in level)


# -- handle bookkeeping --------------------------------------------------------


class HandleData(namedtuple("HandleData", "counts framings runs")):
    """Handle decomposition bookkeeping for the affine surface.

    counts = (# 0-handles, # 1-handles, # 2-handles, # 3-handles).
    framings pairs each 2-handle name with its framing.  runs records,
    per 2-handle, the algebraic run counts of its attaching circle over
    the 1-handles.
    """

    __slots__ = ()

    def euler_characteristic(self) -> int:
        n0, n1, n2, n3 = self.counts
        return n0 - n1 + n2 - n3

    def boundary_2(self) -> list:
        """d2: C2 -> C1; columns follow the 2-handle order of runs."""
        n1 = self.counts[1]
        return [[run[i] for run in self.runs] for i in range(n1)]


def kirby_handle_data(d1: int, d2: int) -> HandleData:
    """One 0-handle, two 1-handles c1/c2, three 2-handles.

    h is 0-framed and runs algebraically zero times over each 1-handle;
    a_j is (-d_j)-framed and runs once over c_j.
    """
    _require_degrees(d1, d2)
    return HandleData(
        counts=(1, 2, 3, 0),
        framings=(("h", 0), ("a1", -d1), ("a2", -d2)),
        runs=((0, 0), (1, 0), (0, 1)),
    )


def chain_complex_homology(h: HandleData) -> tuple:
    """(H0, H1, H2) of the handle chain complex, via one Smith normal form.

    d1: C1 -> C0 vanishes (each 1-handle runs from the 0-handle to
    itself), which the decomposition guarantees; so H0 = Z, H1 is the
    cokernel of d2 and H2 its kernel.
    """
    n0, n1, n2, n3 = h.counts
    if n0 != 1 or n3 != 0:
        raise DomainError("chain_complex_homology expects one 0-handle, no 3-handles")
    h1 = cokernel(h.boundary_2())
    rank = n1 - h1.rank
    return (AbelianGroup(1, ()), h1, AbelianGroup(n2 - rank, ()))


# -- 2-bridge knot invariants ----------------------------------------------------


def two_bridge_fraction(d1: int, d2: int) -> tuple:
    """2-bridge fraction of the knot K_[2d1, 2d2].

    Convention (frozen by the trefoil anchor): the even continued
    fraction expands as p/q = 2*d1 - 1/(2*d2), giving
    (4*d1*d2 - 1, 2*d2).  The numerator is always odd, as a knot
    requires; (1,1) lands in the trefoil's class 3/1 since
    2*1 = -1 mod 3.
    """
    _require_degrees(d1, d2)
    return (4 * d1 * d2 - 1, 2 * d2)


def same_two_bridge_class(a: tuple, b: tuple) -> bool:
    """Unoriented 2-bridge equivalence: p = p' and q' = +-q^{+-1} mod p."""
    p, q = a
    p2, q2 = b
    if p != p2:
        return False
    if p == 0:
        return q % 1 == q2 % 1
    q, q2 = q % p, q2 % p
    cands = {q, (-q) % p}
    if math.gcd(q, p) == 1:
        cands.add(pow(q, -1, p))
        cands.add((-pow(q, -1, p)) % p)
    return q2 in cands


class Laurent:
    """Sparse Laurent polynomial with exact coefficients in the variables
    names: {exponent tuple: coefficient}, zero coefficients dropped.

    int and Fraction act as constants, and coefficients are stored as
    given.  Only polynomials over the same names combine.
    """

    __slots__ = ("names", "terms")

    def __init__(self, names, terms=None):
        self.names = tuple(names)
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @classmethod
    def variables(cls, *names) -> tuple:
        """One polynomial per name, each that variable to the first power."""
        return tuple(
            cls(names, {tuple(int(i == j) for j in range(len(names))): 1})
            for i in range(len(names))
        )

    @property
    def coeffs(self) -> dict:
        """{exponent: coefficient} of a one-variable polynomial."""
        return {e: c for (e,), c in self.terms.items()}

    def _coerce(self, x):
        if isinstance(x, Laurent):
            if x.names != self.names:
                raise DomainError(f"variables {x.names} do not match {self.names}")
            return x
        if isinstance(x, (int, Fraction)):
            return Laurent(self.names, {(0,) * len(self.names): x})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Laurent(self.names, out)

    def __neg__(self):
        return Laurent(self.names, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Laurent(self.names, out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("Laurent powers must be >= 0; use reciprocal()")
        out, square = self._coerce(1), self
        while n:  # repeated squaring: about 2 log2(n) products, not n
            if n & 1:
                out = out * square
            n >>= 1
            if n:
                square = square * square
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.names == other.names and self.terms == other.terms

    def __hash__(self):
        zero = (0,) * len(self.names)
        if self.terms.keys() <= {zero}:  # a constant hashes like its number
            return hash(self.terms.get(zero, 0))
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def reciprocal(self) -> "Laurent":
        """Substitute each variable by its inverse."""
        return Laurent(
            self.names, {tuple(-x for x in e): c for e, c in self.terms.items()}
        )

    def derivative(self, var: str) -> "Laurent":
        """Partial derivative in the variable named var."""
        i = self.names.index(var)
        out: dict = {}
        for e, c in self.terms.items():
            if e[i]:
                d = e[:i] + (e[i] - 1,) + e[i + 1 :]
                out[d] = out.get(d, 0) + c * e[i]
        return Laurent(self.names, out)

    def evaluate(self, *point) -> Fraction:
        if len(point) != len(self.names):
            raise DomainError(f"need {len(self.names)} values, got {len(point)}")
        point = [Fraction(x) for x in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            for x, k in zip(point, e):
                if k < 0 and not x:
                    raise DomainError("cannot evaluate negative powers at 0")
                c *= x**k
            total += c
        return total

    def __str__(self):
        parts = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                v if k == 1 else f"{v}^{k}" for v, k in zip(self.names, e) if k
            )
            body = f"{abs(c)}*{mono}" if mono and abs(c) != 1 else mono or str(abs(c))
            if parts:
                parts.append(("- " if c < 0 else "+ ") + body)
            else:
                parts.append(("-" if c < 0 else "") + body)
        return " ".join(parts) or "0"

    def __repr__(self):
        return f"Laurent({self.names!r}, {self.terms!r})"


def alexander_polynomial(d1: int, d2: int) -> Laurent:
    """Alexander polynomial of K_[2d1, 2d2], symmetric-normalized.

    Computed as det(V - t V^T) from the genus-1 Seifert matrix
    V = [[-d1, 1], [0, -d2]], then multiplied by a power of t so
    Delta(t) = Delta(1/t) and scaled so Delta(1) = 1.  The matrix
    convention is validated by the trefoil anchor at (1,1): t - 1 + 1/t.
    """
    _require_degrees(d1, d2)
    (t,) = Laurent.variables("t")
    v = [[-d1, 1], [0, -d2]]
    a = [[v[i][j] - t * v[j][i] for j in range(2)] for i in range(2)]
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    lo, hi = min(det.coeffs), max(det.coeffs)
    if (lo + hi) % 2:
        raise AssertionError("determinant support cannot be centered")
    det = det * Laurent(t.names, {(-(lo + hi) // 2,): 1})
    if det.evaluate(1) < 0:
        det = -det
    if det != det.reciprocal():
        raise AssertionError("normalized polynomial must be symmetric")
    return det
