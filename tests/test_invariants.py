"""Fundamental-group presentations, finite quotient counts, handle homology,
Alexander polynomials, two-bridge data."""

import pytest
from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from plumbcalc import invariants
from plumbcalc.graphs import AbelianGroup, DomainError
from plumbcalc.invariants import (
    FiniteGroupTable,
    abelianization,
    GroupPresentation,
    Laurent,
    alexander_polynomial,
    alternating4_group,
    chain_complex_homology,
    count_homs,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    direct_product,
    free_reduce,
    group_catalog,
    kirby_handle_data,
    pi1_presentation,
    same_two_bridge_class,
    two_bridge_fraction,
)
from plumbcalc.invariants import _orbit_prefixes

# independently enumerated by hand before being frozen here: images of the
# two meridian generators must land in the commutator subgroup A3 of S3;
# an even image of the longitude-like generator forces both trivial (3 maps),
# an odd one pairs them inversely with one free choice (9 maps)
S3_HOM_COUNT_1_1 = 12


# -- words and presentations ---------------------------------------------------------


def test_free_reduce():
    assert free_reduce((1, 2, -2, -1, 3)) == (3,)
    assert free_reduce((1, -1)) == ()
    assert free_reduce(()) == ()


def test_presentation_shape_for_1_1():
    p = pi1_presentation(1, 1)
    assert len(p.generators) == 3
    assert p.relators == (
        (1, -3, 2, 3, -2),
        (2, 3, 1, -3, -1),
        (1, 2, -1, -2),
    )


def test_relator_lengths_scale_with_degrees():
    for d1, d2 in [(1, 1), (2, 3), (4, 6), (1, 5)]:
        p = pi1_presentation(d1, d2)
        assert [len(r) for r in p.relators] == [
            2 * d2 + 3,
            2 * d1 + 3,
            2 * (d1 + d2),
        ]


def test_presentation_rejects_bad_degrees():
    with pytest.raises(DomainError):
        pi1_presentation(0, 3)
    with pytest.raises(DomainError):
        pi1_presentation(2, -1)


def test_presentation_validates_letters():
    with pytest.raises(DomainError):
        GroupPresentation(("a", "b"), ((1, 3),))  # letter out of range
    with pytest.raises(DomainError):
        GroupPresentation(("a", "b"), ((1, 0),))


def test_abelianization_examples():
    assert abelianization(GroupPresentation(("x",), ((1, 1),))) == AbelianGroup(
        0, (2,)
    )
    assert abelianization(GroupPresentation(("a", "b"), ())) == AbelianGroup(2, ())
    assert abelianization(GroupPresentation((), ())) == AbelianGroup(0, ())
    # fewer or more relators than generators
    assert abelianization(GroupPresentation(("a", "b"), ((1,),))) == AbelianGroup(1, ())
    assert abelianization(GroupPresentation(("a", "b"), ((1, 1),))) == AbelianGroup(
        1, (2,)
    )
    assert abelianization(GroupPresentation(("a",), ((1, 1), (1, 1, 1)))) == (
        AbelianGroup(0, ())
    )
    assert abelianization(
        GroupPresentation(("a", "b", "c"), ((1, 2, -1, -2),))
    ) == AbelianGroup(3, ())


def test_family_abelianization_is_z():
    for d1 in range(1, 7):
        for d2 in range(d1, 7):
            p = pi1_presentation(d1, d2)
            assert abelianization(p) == AbelianGroup(1, ())


# -- finite group tables ---------------------------------------------------------------


def test_catalog_is_complete_through_order_twelve():
    cat = group_catalog()
    assert len(cat) == 24
    counts = {}
    for G in cat.values():
        counts[G.order] = counts.get(G.order, 0) + 1
    assert counts == {
        1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2,
        7: 1, 8: 5, 9: 2, 10: 2, 11: 1, 12: 5,
    }
    for name, G in cat.items():
        assert G.name == name


def test_catalog_is_a_fresh_dict_over_shared_tables():
    first = group_catalog()
    names = list(first)
    del first["S3"]
    first["C2"] = first["C3"]
    again = group_catalog()
    assert list(again) == names
    assert again["C2"].order == 2 and again["S3"].order == 6
    assert group_catalog()["A4"] is again["A4"]  # built once, then shared


def test_table_rejects_broken_axioms():
    # the identity row is fine but 1 has no inverse
    t = [[0, 1], [1, 1]]
    with pytest.raises(DomainError, match="inverse"):
        FiniteGroupTable(2, t)
    # latin-square-ish but non-associative on {0,1,2}
    t = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    u = [row[:] for row in t]
    u[1][1] = 0
    u[1][2] = 2
    u[2][1] = 1  # keep inverses available, break associativity
    u[2][2] = 0
    with pytest.raises(DomainError):
        FiniteGroupTable(3, u)


def _associative_cubic(table) -> bool:
    """The O(n^3) oracle: (a b) c = a (b c) for every triple."""
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n) for b in range(n) for c in range(n)
    )


def _relabelled(G, perm):
    """G with element i renamed perm[i - 1] (i >= 1); the identity stays 0."""
    sigma = (0,) + tuple(perm)
    tab = [[0] * G.order for _ in range(G.order)]
    for a in range(G.order):
        for b in range(G.order):
            tab[sigma[a]][sigma[b]] = sigma[G.table[a][b]]
    return FiniteGroupTable(G.order, tab, G.name)


@st.composite
def corrupted_catalog_tables(draw):
    """A catalogue table with one entry off the identity row and column
    changed to another value."""
    name = draw(st.sampled_from(sorted(n for n, G in group_catalog().items()
                                       if G.order > 1)))
    G = group_catalog()[name]
    a = draw(st.integers(1, G.order - 1))
    b = draw(st.integers(1, G.order - 1))
    v = draw(st.integers(0, G.order - 2))
    tab = [list(row) for row in G.table]
    tab[a][b] = v if v < tab[a][b] else v + 1
    return tab


@st.composite
def unital_magmas(draw):
    """A table of order 2..4 with identity 0 and every other entry free."""
    n = draw(st.integers(2, 4))
    tab = [list(range(n))] + [
        [a] + [draw(st.integers(0, n - 1)) for _ in range(n - 1)]
        for a in range(1, n)
    ]
    return tab


def _light_agrees_with_cubic(tab):
    n = len(tab)
    has_inverses = all(0 in row for row in tab)
    if has_inverses and _associative_cubic(tab):
        assert FiniteGroupTable(n, tab).table == tuple(map(tuple, tab))
        return
    with pytest.raises(DomainError) as err:
        FiniteGroupTable(n, tab)
    if not has_inverses:
        assert str(err.value) == "missing inverses"
        return
    a, s, c = map(int, str(err.value).split("at (")[1].rstrip(")").split(","))
    assert tab[tab[a][s]][c] != tab[a][tab[s][c]]  # the named triple fails


@settings(max_examples=200, deadline=None)
@given(corrupted_catalog_tables())
def test_light_test_agrees_with_cubic_check_on_corrupted_tables(tab):
    _light_agrees_with_cubic(tab)


@settings(max_examples=300, deadline=None)
@given(unital_magmas())
def test_light_test_agrees_with_cubic_check_on_small_magmas(tab):
    _light_agrees_with_cubic(tab)


def test_catalog_tables_pass_the_cubic_check():
    for G in group_catalog().values():
        assert _associative_cubic(G.table)


def test_table_json_round_trip():
    G = dihedral_group(4)
    d = G.to_json_dict()
    assert set(d) == {"order", "table", "name"}
    H = FiniteGroupTable.from_json_dict(d)
    assert H.order == G.order and H.table == G.table


def test_standard_constructions():
    assert cyclic_group(6).order == 6
    assert dihedral_group(3).name == "S3"
    assert dicyclic_group(2).name == "Q8"
    assert alternating4_group().order == 12
    prod = direct_product(cyclic_group(2), cyclic_group(3))
    assert prod.order == 6
    # C2 x C3 is cyclic of order 6: some element has order 6
    orders = set()
    for x in range(6):
        k, y = 1, x
        while y != 0:
            y = prod.table[y][x]
            k += 1
        orders.add(k)
    assert 6 in orders


# -- homomorphism counting ---------------------------------------------------------------


def test_hom_counts_to_cyclic_groups_equal_order():
    # abelianization Z means exactly n maps to Z/n
    p = pi1_presentation(1, 2)
    for n in range(1, 13):
        assert count_homs(p, cyclic_group(n)) == n


def test_hom_count_golden_value_s3():
    p = pi1_presentation(1, 1)
    G = group_catalog()["S3"]
    assert count_homs(p, G) == S3_HOM_COUNT_1_1


def test_hom_count_product_consistency():
    # D6 = C2 x S3, and hom counts multiply over direct factors
    p = pi1_presentation(1, 1)
    cat = group_catalog()
    assert count_homs(p, cat["D6"]) == 2 * S3_HOM_COUNT_1_1
    assert count_homs(p, cat["A4"]) == 36


def test_hom_count_budget(monkeypatch):
    """|G|^k evaluations within HOM_BUDGET are counted; one over raises
    and says how many there would have been."""
    p = pi1_presentation(1, 1)  # three generators
    G = cyclic_group(12)
    monkeypatch.setattr(invariants, "HOM_BUDGET", 12**3)
    assert count_homs(p, G) == 12
    monkeypatch.setattr(invariants, "HOM_BUDGET", 12**3 - 1)
    with pytest.raises(DomainError) as e:
        count_homs(p, G)
    assert str(e.value) == "count_homs: 12^3 evaluations exceed budget 1727"


def _brute_force_count(p, G) -> int:
    """The oracle: try every tuple of generator images."""
    count = 0
    for images in product(range(G.order), repeat=len(p.generators)):
        ok = True
        for rel in p.relators:
            acc = 0
            for x in rel:
                g = images[x - 1] if x > 0 else G.inverse[images[-x - 1]]
                acc = G.table[acc][g]
            ok = ok and acc == 0
        count += ok
    return count


@st.composite
def presentations(draw):
    """0-3 generators and up to 3 relators of length up to 8."""
    k = draw(st.integers(0, 3))
    if k == 0:
        return GroupPresentation((), ())
    letter = st.integers(1, k).flatmap(lambda i: st.sampled_from((i, -i)))
    rels = draw(st.lists(st.lists(letter, max_size=8), max_size=3))
    return GroupPresentation(tuple(f"x{i}" for i in range(k)), tuple(map(tuple, rels)))


def _assert_exact(p, G):
    assert count_homs(p, G) == _brute_force_count(p, G)


@settings(max_examples=150, deadline=None)
@given(presentations(), st.sampled_from(sorted(group_catalog())))
def test_orbit_count_equals_brute_force_on_random_presentations(p, name):
    _assert_exact(p, group_catalog()[name])


@pytest.mark.parametrize("name", sorted(group_catalog()))
def test_orbit_count_equals_brute_force_on_every_catalog_group(name):
    G = group_catalog()[name]
    for p in (pi1_presentation(1, 2), pi1_presentation(2, 3),
              GroupPresentation(("x", "y"), ((1, 2, -1, -2),)),
              GroupPresentation(("x",), ((1, 1, 1, 1),)),
              GroupPresentation((), ())):
        _assert_exact(p, G)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["A4", "Dic3"]), st.data())
def test_orbit_count_on_relabelled_tables(name, data):
    G = group_catalog()[name]
    H = _relabelled(G, data.draw(st.permutations(range(1, G.order))))
    p = data.draw(presentations())
    _assert_exact(p, H)
    assert count_homs(p, H) == count_homs(p, G)
    for d1, d2 in ((1, 1), (2, 3)):
        q = pi1_presentation(d1, d2)
        assert count_homs(q, H) == count_homs(q, G)


def test_orbit_prefixes_follow_the_class_equation():
    classes = {"S3": 3, "D4": 5, "Q8": 5, "D5": 4, "D6": 6, "Dic3": 6, "A4": 4}
    for name, G in group_catalog().items():
        n = G.order
        for m in (0, 1, 2):
            prefixes = _orbit_prefixes(G.table, m)
            assert sum(w for w, _ in prefixes) == n**m
            assert all(len(prefix) == m for _, prefix in prefixes)
        level1 = _orbit_prefixes(G.table, 1)
        assert len(level1) == classes.get(name, n)  # abelian: one per element
        if name not in classes:
            assert _orbit_prefixes(G.table, 2) == tuple(
                (1, ab) for ab in product(range(n), repeat=2))
    # the table is not a group: its "orbits" overlap and overcount
    with pytest.raises(AssertionError, match="orbit weights sum to"):
        _orbit_prefixes(((0, 1, 2), (1, 0, 0), (2, 0, 0)), 1)


@pytest.mark.parametrize("name, ell", [("S3", 3), ("D5", 5)])
def test_dihedral_counts_follow_the_closed_form(name, ell):
    """#Hom(pi_1, D_ell) = 2 ell + (ell^2 - ell) [ell divides 4 d1 d2 - 1]
    for odd primes ell: H_1 = Z gives one map with cyclic image per
    element, and the ell^2 - ell maps onto D_ell exist exactly when ell
    divides the Alexander determinant |Delta(-1)| = 4 d1 d2 - 1."""
    G = group_catalog()[name]
    pairs = [(d1, d2) for d2 in range(1, 13) for d1 in range(1, d2 + 1)]
    assert len(pairs) == 78
    for d1, d2 in pairs:
        divides = (4 * d1 * d2 - 1) % ell == 0
        expected = 2 * ell + (ell**2 - ell) * divides
        assert count_homs(pi1_presentation(d1, d2), G) == expected


# -- handle decomposition ---------------------------------------------------------------


def test_kirby_handle_data_counts_and_framings():
    hd = kirby_handle_data(2, 3)
    assert hd.counts == (1, 2, 3, 0)
    assert hd.framings == (("h", 0), ("a1", -2), ("a2", -3))
    assert hd.euler_characteristic() == 2
    assert hd.boundary_2() == [[0, 1, 0], [0, 0, 1]]


def test_chain_complex_homology_is_that_of_s2():
    for d1, d2 in [(1, 1), (2, 5), (6, 6)]:
        assert chain_complex_homology(kirby_handle_data(d1, d2)) == (
            AbelianGroup(1, ()),
            AbelianGroup(0, ()),
            AbelianGroup(1, ()),
        )


# -- two-bridge data ---------------------------------------------------------------


def test_two_bridge_fractions():
    assert two_bridge_fraction(1, 1) == (3, 2)
    assert two_bridge_fraction(2, 3) == (23, 6)
    assert two_bridge_fraction(3, 2) == (23, 4)


def test_two_bridge_classes():
    assert same_two_bridge_class((3, 2), (3, 1))  # 2*1 = 2 != 1 mod 3; 2 = -1
    assert same_two_bridge_class((23, 6), (23, 4))  # 6*4 = 24 = 1 mod 23
    assert not same_two_bridge_class((23, 6), (23, 2))
    assert not same_two_bridge_class((23, 6), (15, 4))
    assert same_two_bridge_class(
        two_bridge_fraction(2, 3), two_bridge_fraction(3, 2)
    )


# -- Laurent polynomials and Alexander -------------------------------------------------


def test_laurent_arithmetic_and_display():
    p = Laurent(("t",), {(-1,): 1, (0,): -3, (1,): 2})
    q = Laurent(("t",), {(0,): 1, (1,): 1})
    assert (p + q).coeffs == {-1: 1, 0: -2, 1: 3}
    assert (p - p).is_zero()
    assert (p * q).coeffs == {-1: 1, 0: -2, 1: -1, 2: 2}
    assert str(p) == "t^-1 - 3 + 2*t"
    assert p.evaluate(Fraction(1)) == 0
    assert p.reciprocal().coeffs == {1: 1, 0: -3, -1: 2}
    assert (2 * q - q).coeffs == q.coeffs


COEFFS = st.integers(-4, 4) | st.fractions(-3, 3, max_denominator=4)


@st.composite
def laurent_triples(draw):
    """Three polynomials over ("t",) or ("v1", "v2"), int and Fraction
    coefficients mixed, plus a point with nonzero coordinates."""
    names = draw(st.sampled_from([("t",), ("v1", "v2")]))
    exps = st.tuples(*[st.integers(-3, 3)] * len(names))
    polys = [Laurent(names, draw(st.dictionaries(exps, COEFFS, max_size=4)))
             for _ in range(3)]
    nonzero = COEFFS.filter(bool)
    point = draw(st.tuples(*[nonzero] * len(names)))
    return (*polys, point)


@settings(max_examples=60, deadline=None)
@given(laurent_triples(), COEFFS)
def test_laurent_ring_laws(polys, c):
    p, q, r, _ = polys
    assert p + q == q + p and p * q == q * p
    assert (p + q) + r == p + (q + r) and (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + 0 == p and p * 1 == p and (p * 0).is_zero()
    assert (p - q) + q == p and (p - p).is_zero() and -(-p) == p
    assert c + p == p + c and c * p == p * c and c - p == -(p - c)
    assert p ** 3 == p * p * p and p ** 0 == 1
    with pytest.raises(DomainError):
        p ** -1
    assert hash(p * q) == hash(q * p)


def test_laurent_power_by_squaring_equals_repeated_products():
    (t,) = Laurent.variables("t")
    v1, v2 = Laurent.variables("v1", "v2")
    for p in (-3 * t, t.reciprocal() - 3 + 2 * t,
              v1 * v2 - v1.reciprocal() + 2, Fraction(1, 2) * t - Fraction(2, 3)):
        product = Laurent(p.names, {(0,) * len(p.names): 1})
        for n in range(41):
            assert (p ** n).terms == product.terms, n
            product = product * p
        with pytest.raises(DomainError, match=r"^Laurent powers must be >= 0; use reciprocal\(\)$"):
            p ** -1


@settings(max_examples=60, deadline=None)
@given(laurent_triples())
def test_laurent_reciprocal_derivative_and_evaluate(polys):
    p, q, _, point = polys
    assert p.reciprocal().reciprocal() == p
    assert (p * q).reciprocal() == p.reciprocal() * q.reciprocal()
    for var in p.names:
        assert (p * q).derivative(var) == (
            p.derivative(var) * q + p * q.derivative(var))
    assert (p * q).evaluate(*point) == p.evaluate(*point) * q.evaluate(*point)


@settings(max_examples=60, deadline=None)
@given(laurent_triples(), COEFFS)
def test_laurent_equal_values_hash_equal(polys, c):
    """== and hash agree, also between a constant polynomial and the int or
    Fraction it equals, so sets and dict keys can mix them."""
    p, q, _, _ = polys
    const = Laurent(p.names, {(0,) * len(p.names): c})
    for a, b in ((p, q), (p, p * 1), (p - p, 0), (const, c), (p * 0 + c, c)):
        if a == b:
            assert hash(a) == hash(b)
    assert const == c and const in {c} and c in {const}
    assert Laurent(("t",), {(0,): 3}) in {3}
    assert Laurent(("t",), {}) in {0} and Laurent(("t",), {(0,): Fraction(1, 2)}) in {
        Fraction(1, 2)}


def test_laurent_rejects_foreign_operands():
    (t,) = Laurent.variables("t")
    p = 2 * t - 1
    assert (p == "x") is False
    with pytest.raises(TypeError):
        p + "x"
    with pytest.raises(TypeError):
        "x" * p
    v1, _ = Laurent.variables("v1", "v2")
    assert p != v1
    with pytest.raises(DomainError):
        p + v1


def test_alexander_closed_form():
    for d1, d2 in [(1, 1), (2, 2), (3, 5)]:
        n = d1 * d2
        a = alexander_polynomial(d1, d2)
        assert a.coeffs == {-1: n, 0: 1 - 2 * n, 1: n}
        assert a.evaluate(Fraction(1)) == 1
        assert abs(a.evaluate(Fraction(-1))) == 4 * n - 1


def test_alexander_unknots_nothing():
    a = alexander_polynomial(1, 1)
    assert str(a) == "t^-1 - 1 + t"
    assert a == a.reciprocal()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(1, 10))
def test_alexander_is_palindromic(d1, d2):
    a = alexander_polynomial(d1, d2)
    assert a == a.reciprocal()
    p, _ = two_bridge_fraction(d1, d2)
    assert abs(a.evaluate(Fraction(-1))) == p


def test_alexander_rejects_bad_degrees():
    with pytest.raises(DomainError):
        alexander_polynomial(0, 2)


# -- frozen fingerprint table ---------------------------------------------------------


def test_frozen_fingerprints_reproduce():
    import json
    from pathlib import Path

    frozen = json.loads(
        (Path(__file__).parent / "data" / "quotient_fingerprints.json").read_text()
    )
    assert set(frozen) == {"1,1", "1,2", "1,3", "2,2", "2,3", "3,3"}
    catalog = group_catalog()
    for pair in frozen:
        d1, d2 = map(int, pair.split(","))
        p = pi1_presentation(d1, d2)
        row = {name: count_homs(p, G) for name, G in catalog.items()}
        assert row == frozen[pair]
    # quotients through order 12 do not separate (1,2) from (2,3) even
    # though the Alexander determinants 7 and 23 do
    assert frozen["1,2"] == frozen["2,3"]
    assert frozen["1,1"] != frozen["1,3"]
