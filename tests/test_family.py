"""Family builders, Picard checks, and exact coordinate-chart verification."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plumbcalc.divisor import is_standard, standardize
from plumbcalc.family import (
    CHART_CASES,
    FamilyParams,
    V1,
    V1_INV,
    V2,
    V2_INV,
    _poly_at,
    build_boundary_graph,
    build_by_blowups,
    picard_check,
    surface_homology,
    verify_chart,
    verify_volume_form,
)
from plumbcalc.graphs import DomainError, graphs_isomorphic

CHART_REPS = 20


def monic(max_deg=5):
    return st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        min_size=0,
        max_size=max_deg,
    ).map(lambda pre: tuple(pre) + (Fraction(1),))


# -- builders ------------------------------------------------------------------


def test_build_sizes_and_labels():
    fam = build_boundary_graph(2, 3)
    assert len(fam.graph.vertices) == 2 + 3 + 4
    assert len(fam.d_part().vertices) == 2 + 3 + 2
    assert fam.graph.vertices["L1_inf"].label == "L_{1,inf}"
    assert fam.graph.vertices["A2"].label == "A_2"
    # cycle weights (0, 0, -1, -1), twigs all -2, tails -1
    assert fam.graph.vertices["L1_0"].weight == -1
    assert fam.graph.vertices["T2_01"].weight == -2
    assert fam.graph.vertices["A1"].weight == -1


def test_d_part_drops_exactly_the_tails():
    fam = build_boundary_graph(3, 1)
    assert sorted(set(fam.graph.vertices) - set(fam.d_part().vertices)) == [
        "A1",
        "A2",
    ]


def test_degree_validation():
    with pytest.raises(DomainError):
        build_boundary_graph(0, 2)
    with pytest.raises(DomainError):
        FamilyParams.default(1, -1)


def test_build_by_blowups_matches_direct():
    for d1, d2 in [(1, 1), (1, 3), (2, 2), (3, 4)]:
        fam, log = build_by_blowups(FamilyParams.default(d1, d2))
        direct = build_boundary_graph(d1, d2)
        assert len(log) == d1 + d2
        iso, _ = graphs_isomorphic(fam.graph, direct.graph)
        assert iso
        # same ids in this construction, so equality holds too
        assert fam.graph == direct.graph


def test_monic_enforced():
    with pytest.raises(DomainError):
        FamilyParams((Fraction(1), Fraction(2)), (Fraction(1),))


# -- standard forms -------------------------------------------------------------


def test_family_d_part_standard_when_degrees_at_least_two():
    for d1, d2 in [(2, 2), (2, 5), (4, 3), (6, 6)]:
        assert is_standard(build_boundary_graph(d1, d2).d_part()).standard


def test_family_one_one_cycle_is_standard():
    assert is_standard(build_boundary_graph(1, 1).d_part()).standard


@pytest.mark.parametrize("d", range(2, 13))
def test_standardize_repairs_the_mixed_d_parts(d):
    """A mixed D-part, (1, d) or (d, 1), is not standard; `standardize`
    blows down L_{j,0} on the degree-1 side and flows once, to a triangle
    (0, 0, +1) with the [(2)_{d-1}] twig."""
    for d1, d2 in (1, d), (d, 1):
        d_part = build_boundary_graph(d1, d2).d_part()
        assert not is_standard(d_part).standard
        g, log = standardize(d_part)
        assert is_standard(g).standard
        assert [e["move"] for e in log] == ["blowdown", "flow"]
        assert sorted(v.weight for v in g.vertices.values()) == [-2] * (d - 1) + [0, 0, 1]


# -- Picard ---------------------------------------------------------------------


def test_picard_unimodular_with_sign():
    for d1, d2 in [(1, 1), (1, 2), (2, 2), (3, 5), (6, 6)]:
        report = picard_check(d1, d2)
        assert report["unimodular"] is True
        assert report["relations_verified"] is True
        assert report["det"] == (-1) ** (d1 + d2 + 1)
        assert type(report["det"]) is int


def test_surface_homology_is_plane_like():
    out = surface_homology(3, 4)
    assert out["chi"] == 2
    assert str(out["H0"]) == "Z" and str(out["H1"]) == "0" and str(out["H2"]) == "Z"


# -- charts -----------------------------------------------------------------------


def horner(coeffs, arg):
    """The reference evaluation: Horner's rule on whole Laurent values."""
    out = 0 * arg
    for c in reversed(coeffs):
        out = out * arg + c
    return out


POLY_ARGS = [V1, V2, V1_INV, 2 * V1 * V2_INV, V1 + V2, -(V2 + 1) * V1_INV,
             V1 - V1_INV + Fraction(1, 2), (V1 + 1) * (V2 - 1)]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4)
                | st.just(Fraction(0)), max_size=12).map(tuple),
       st.sampled_from(POLY_ARGS))
@example((), V1)
@example((Fraction(0), Fraction(0)), V1 + V2)
@example((Fraction(2), Fraction(0), Fraction(1)), V1 - V1_INV)  # constant cancels
@example((Fraction(1), Fraction(-1)), V1 * V1_INV)  # value 0
def test_poly_at_matches_horner(coeffs, arg):
    """Monomial, multi-term and negative-exponent arguments, coefficient
    tuples empty or holding zeros; terms that cancel leave no entry."""
    value = _poly_at(coeffs, arg)
    assert value == horner(coeffs, arg)
    assert value.names == arg.names and all(value.terms.values())


def test_chart_polynomial_identities():
    # (v1 + v2)(v1 - v2) = v1^2 - v2^2 in the chart polynomial ring
    assert (V1 + V2) * (V1 - V2) == V1 * V1 - V2 * V2
    assert (V1 * V2) * (V1 * V2) == V1 * V1 * V2 * V2


@settings(max_examples=CHART_REPS, deadline=None)
@given(monic(), monic())
def test_chart_aa_random_pairs(p1, p2):
    params = FamilyParams(p1, p2)
    rep = verify_chart("aa", params)
    assert rep.residuals_zero and rep.inverse_ok
    vol = verify_volume_form("aa", params)
    assert vol.extends and vol.sign == 1


@settings(max_examples=CHART_REPS, deadline=None)
@given(monic())
def test_chart_al1_random_with_unit_p2(p1):
    params = FamilyParams(p1, (Fraction(1),))
    rep = verify_chart("al1", params)
    assert rep.residuals_zero and rep.inverse_ok
    vol = verify_volume_form("al1", params)
    assert vol.extends and vol.sign == -1


@settings(max_examples=CHART_REPS, deadline=None)
@given(monic())
def test_chart_al2_random_with_unit_p1(p2):
    params = FamilyParams((Fraction(1),), p2)
    rep = verify_chart("al2", params)
    assert rep.residuals_zero and rep.inverse_ok
    vol = verify_volume_form("al2", params)
    assert vol.extends and vol.sign == -1


def test_chart_lc_cases():
    params = FamilyParams.default(1, 1)
    for case, sign in (("lc1", 1), ("lc2", -1)):
        rep = verify_chart(case, params)
        assert rep.residuals_zero and rep.inverse_ok
        vol = verify_volume_form(case, params)
        assert vol.extends and vol.sign == sign


def test_chart_preconditions():
    with pytest.raises(DomainError):
        verify_chart("al1", FamilyParams.default(2, 2))
    with pytest.raises(DomainError):
        verify_chart("lc1", FamilyParams.default(1, 2))
    with pytest.raises(DomainError):
        verify_chart("zz", FamilyParams.default(1, 1))


def test_chart_case_list_is_frozen():
    assert CHART_CASES == ("aa", "al1", "al2", "lc1", "lc2")
