"""End-to-end acceptance checks, one per shipped contract.

Each check_* function exercises one contract completely and returns a
short detail string (raising AssertionError on any miss).  Run this file
as a script for a PASS/FAIL line per check; under pytest each check is
an ordinary test.  Everything here is exact integer or Fraction
arithmetic, no tolerances anywhere.
"""

import random
from fractions import Fraction

from plumbcalc.divisor import (
    bark,
    blow_down,
    blow_up,
    elementary_flow,
    is_standard,
    snc_minimalize,
    standardize,
)
from plumbcalc.family import (
    FamilyParams,
    build_boundary_graph,
    build_by_blowups,
    picard_check,
    verify_chart,
    verify_volume_form,
)
from plumbcalc.graphs import (
    AbelianGroup,
    Edge,
    Vertex,
    WeightedGraph,
    cokernel,
    graphs_isomorphic,
)
from plumbcalc.invariants import (
    abelianization,
    alexander_polynomial,
    chain_complex_homology,
    count_homs,
    cyclic_group,
    group_catalog,
    kirby_handle_data,
    pi1_presentation,
    same_two_bridge_class,
    two_bridge_fraction,
)
from plumbcalc.plumbing import (
    SeifertData,
    _insert,
    from_divisor_graph,
    h1_from_graph,
    normalize,
    reverse_orientation,
)

MAX_DEGREE = 6
MULTISETS = [
    (d1, d2)
    for d1 in range(1, MAX_DEGREE + 1)
    for d2 in range(d1, MAX_DEGREE + 1)
]
Z = AbelianGroup(1, ())


def chain(*weights):
    vs = [Vertex(f"v{i}", w) for i, w in enumerate(weights)]
    es = [Edge(f"v{i}", f"v{i+1}") for i in range(len(weights) - 1)]
    return WeightedGraph("divisor", vs, es)


def standard_boundary(d1, d2):
    """The standard-form representative of the boundary divisor."""
    return standardize(build_boundary_graph(d1, d2).d_part())[0]


def check_01_family_construction():
    for d1 in range(1, MAX_DEGREE + 1):
        for d2 in range(1, MAX_DEGREE + 1):
            direct = build_boundary_graph(d1, d2)
            by_moves, log = build_by_blowups(FamilyParams.default(d1, d2))
            assert by_moves.graph == direct.graph
            assert graphs_isomorphic(by_moves.graph, direct.graph)[0]
            assert len(log) == d1 + d2
            assert len(direct.d_part().vertices) == d1 + d2 + 2
            assert picard_check(d1, d2)["unimodular"] is True
    return f"{MAX_DEGREE * MAX_DEGREE} degree pairs, all unimodular"


def check_02_standardness():
    for d1, d2 in MULTISETS:
        d_part = build_boundary_graph(d1, d2).d_part()
        expect = (min(d1, d2) >= 2) or (d1 == d2 == 1)
        assert bool(is_standard(d_part).standard) is expect
        if not expect:
            fixed, log = standardize(d_part)
            assert is_standard(fixed).standard
            assert len(log) == 2
    return f"{len(MULTISETS)} multisets, mixed cases repaired in 2 moves"


def check_03_distinctness():
    reps = {pair: standard_boundary(*pair) for pair in MULTISETS}
    pairs = sorted(reps)
    for i, a in enumerate(pairs):
        for b in pairs[i + 1:]:
            assert not graphs_isomorphic(reps[a], reps[b])[0], f"{a} ~ {b}"
    return f"{len(pairs)} standard boundaries pairwise distinct"


def check_04_plumbing_pipeline():
    forms = {}
    for pair in MULTISETS:
        g = from_divisor_graph(build_boundary_graph(*pair).d_part())
        forms[pair] = normalize(g)
    pairs = sorted(forms)
    for i, a in enumerate(pairs):
        for b in pairs[i + 1:]:
            assert not graphs_isomorphic(forms[a].graph, forms[b].graph)[0]
    for pair in pairs:
        if pair == (1, 1):
            continue
        rev = reverse_orientation(forms[pair])
        assert not graphs_isomorphic(forms[pair].graph, rev.graph)[0]
    nf = forms[(1, 1)]
    assert nf.certificate == "seifert_special"
    assert nf.seifert == SeifertData(
        0, 0, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)), 0
    )
    return f"{len(pairs)} normal forms distinct; orientation detected"


def check_05_homology_triangulation():
    oracle = cokernel([[0]])
    assert oracle == Z
    for d1, d2 in MULTISETS:
        via_graph = h1_from_graph(
            from_divisor_graph(build_boundary_graph(d1, d2).d_part())
        )
        via_group = abelianization(pi1_presentation(d1, d2))
        assert via_graph == via_group == oracle == Z
    return f"{len(MULTISETS)} multisets, three computations agree on Z"


def check_06_surface_homology():
    for d1, d2 in MULTISETS:
        hd = kirby_handle_data(d1, d2)
        assert hd.euler_characteristic() == 2
        assert chain_complex_homology(hd) == (Z, AbelianGroup(0, ()), Z)
    return f"{len(MULTISETS)} handle decompositions give (Z, 0, Z), chi 2"


def check_07_bark_property():
    for k in range(1, 13):
        g = chain(*([-2] * k))
        coeffs = bark(g, [f"v{i}" for i in range(k)])
        for i in range(1, k + 1):
            c = coeffs[f"v{i-1}"]
            assert c == Fraction(k + 1 - i, k + 1)
            assert 0 < c < 1
    return "twig lengths 1..12, coefficients (k+1-i)/(k+1) in (0,1)"


def check_08_rewriting_properties():
    rng = random.Random(48315)
    for _ in range(200):
        n = rng.randint(1, 6)
        g = chain(*[rng.randint(-4, 0) for _ in range(n)])
        if rng.random() < 0.5 or n == 1:
            center = f"v{rng.randrange(n)}"
        else:
            i = rng.randrange(n - 1)
            center = Edge(f"v{i}", f"v{i+1}")
        up = blow_up(g, center, new_id="FRESH")
        assert blow_down(up, "FRESH") == g

    for _ in range(200):
        n = rng.randint(2, 7)
        weights = [rng.randint(-5, 0) for _ in range(n)]
        i = rng.randrange(n)
        weights[i] = 0
        g = chain(*weights)
        out = elementary_flow(g, f"v{i}", toward=rng.choice(g.neighbors(f"v{i}")))
        assert len(out.vertices) == n
        assert sum(v.weight for v in out.vertices.values()) == sum(weights)

    perturbed = 0
    for pair in MULTISETS:
        fam = build_boundary_graph(*pair)
        for g in (fam.graph, fam.d_part()):
            m1, _ = snc_minimalize(g)
            m2, log2 = snc_minimalize(m1)
            assert m2 == m1 and not log2
            s1, _ = standardize(g)
            s2, _ = standardize(s1)
            assert graphs_isomorphic(s1, s2)[0]
        base = normalize(from_divisor_graph(fam.d_part()))
        again = normalize(base.graph)
        assert again.graph == base.graph and not again.log
        plumbed = from_divisor_graph(fam.d_part())
        for k in range(20):
            vid = rng.choice(sorted(plumbed.vertices))
            eps = rng.choice([1, -1])
            bumped = _insert(plumbed, vid, eps, f"P{k}")
            assert graphs_isomorphic(normalize(bumped).graph, base.graph)[0]
            perturbed += 1
    return f"200+200 random round trips, {perturbed} perturbations absorbed"


def check_09_knot_invariants():
    assert alexander_polynomial(1, 1).coeffs == {-1: 1, 0: -1, 1: 1}
    for d1 in range(1, 11):
        for d2 in range(d1, 11):
            a = alexander_polynomial(d1, d2)
            assert a.evaluate(Fraction(1)) == 1
            assert a == a.reciprocal()
    assert two_bridge_fraction(1, 1) == (3, 2)
    assert same_two_bridge_class(two_bridge_fraction(1, 1), (3, 1))
    return "55 degree pairs palindromic with det 1; (1,1) is the trefoil"


def check_10_chart_verification():
    rng = random.Random(61409)

    def monic(max_deg=5):
        pre = [
            Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for _ in range(rng.randint(0, max_deg - 1))
        ]
        return tuple(pre) + (Fraction(1),)

    unit = (Fraction(1),)
    for _ in range(20):
        params = FamilyParams(monic(), monic())
        rep = verify_chart("aa", params)
        assert rep.residuals_zero and rep.inverse_ok
        vol = verify_volume_form("aa", params)
        assert vol.extends and vol.sign == 1
    for k in range(20):
        if k % 2 == 0:
            case, params = "al1", FamilyParams(monic(), unit)
        else:
            case, params = "al2", FamilyParams(unit, monic())
        rep = verify_chart(case, params)
        assert rep.residuals_zero and rep.inverse_ok
        vol = verify_volume_form(case, params)
        assert vol.extends and vol.sign == -1
    lc_params = FamilyParams(unit, unit)
    for case, sign in (("lc1", 1), ("lc2", -1)):
        rep = verify_chart(case, lc_params)
        assert rep.residuals_zero and rep.inverse_ok
        vol = verify_volume_form(case, lc_params)
        assert vol.extends and vol.sign == sign
    return "20 aa + 20 al + 2 lc charts verified, volume ratios +-1"


def check_11_quotient_counting():
    for d1, d2 in MULTISETS:
        p = pi1_presentation(d1, d2)
        for n in range(1, 13):
            assert count_homs(p, cyclic_group(n)) == n

    # nonabelian fingerprints are recorded for the record; targets this
    # small cannot separate all the groups
    catalog = group_catalog()
    fingerprints = {}
    for pair in [(1, 1), (1, 2), (2, 2)]:
        p = pi1_presentation(*pair)
        fingerprints[pair] = {name: count_homs(p, G) for name, G in sorted(catalog.items())}
    assert fingerprints[(1, 1)]["S3"] == 12
    return f"cyclic counts exact for {len(MULTISETS)} multisets, n <= 12"


CHECKS = [
    ("family construction", check_01_family_construction),
    ("standardness", check_02_standardness),
    ("distinctness", check_03_distinctness),
    ("plumbing pipeline", check_04_plumbing_pipeline),
    ("homology triangulation", check_05_homology_triangulation),
    ("surface homology", check_06_surface_homology),
    ("bark property", check_07_bark_property),
    ("rewriting properties", check_08_rewriting_properties),
    ("knot invariants", check_09_knot_invariants),
    ("chart verification", check_10_chart_verification),
    ("quotient counting", check_11_quotient_counting),
]


def test_01_family_construction():
    check_01_family_construction()


def test_02_standardness():
    check_02_standardness()


def test_03_distinctness():
    check_03_distinctness()


def test_04_plumbing_pipeline():
    check_04_plumbing_pipeline()


def test_05_homology_triangulation():
    check_05_homology_triangulation()


def test_06_surface_homology():
    check_06_surface_homology()


def test_07_bark_property():
    check_07_bark_property()


def test_08_rewriting_properties():
    check_08_rewriting_properties()


def test_09_knot_invariants():
    check_09_knot_invariants()


def test_10_chart_verification():
    check_10_chart_verification()


def test_11_quotient_counting():
    check_11_quotient_counting()


def main() -> int:
    failures = 0
    for i, (name, fn) in enumerate(CHECKS, 1):
        try:
            detail = fn()
            print(f"PASS  {i:2d} {name}: {detail}")
        except AssertionError as e:
            failures += 1
            print(f"FAIL  {i:2d} {name}: {e}")
    print(f"\n{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
