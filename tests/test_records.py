"""The library's immutable records: fields, equality, hashing, repr and
validation, for every public record type."""

from fractions import Fraction

import pytest

from plumbcalc.divisor import StandardReport, is_standard
from plumbcalc.family import (
    FamilyParams,
    build_boundary_graph,
    verify_chart,
    verify_volume_form,
)
from plumbcalc.graphs import (
    AbelianGroup,
    ChainType,
    DomainError,
    Edge,
    OutOfScopeError,
    Vertex,
    classify_segments,
)
from plumbcalc.invariants import (
    FiniteGroupTable,
    GroupPresentation,
    dihedral_group,
    group_catalog,
    kirby_handle_data,
    pi1_presentation,
)
from plumbcalc.plumbing import (
    NormalReport,
    SeifertData,
    from_divisor_graph,
    is_normal,
    jsj_cut,
    normalize,
)


def _records():
    """One builder per public record type, each with its field names; a
    builder makes a new, equal record on every call."""
    fam = lambda: build_boundary_graph(2, 3)
    plumbed = lambda: from_divisor_graph(fam().d_part())
    segments = lambda: classify_segments(fam().d_part())
    params = lambda: FamilyParams.default(2, 3)
    return {
        "Vertex": (lambda: Vertex("a", -2, 1, 0, "A"),
                   "id weight genus boundary label"),
        "Edge": (lambda: Edge("b", "a", -1), "u v sign"),
        "AbelianGroup": (lambda: AbelianGroup(1, (2, 4)), "rank torsion"),
        "ChainType": (lambda: ChainType((2, 3)), "entries circular"),
        "Segment": (lambda: segments().segments[0],
                    "vertices chain_type attachments"),
        "SegmentReport": (segments, "branching segments"),
        "StandardReport": (lambda: is_standard(fam().d_part()),
                           "standard verdicts branching"),
        "FamilyParams": (params, "p1 p2"),
        "LabeledFamilyGraph": (fam, "graph d1 d2"),
        "ChartReport": (lambda: verify_chart("aa", params()),
                        "case residuals_zero inverse_ok residuals"),
        "VolumeReport": (lambda: verify_volume_form("aa", params()),
                         "case extends sign"),
        "GroupPresentation": (lambda: pi1_presentation(2, 3),
                              "generators relators"),
        "FiniteGroupTable": (lambda: dihedral_group(3),
                             "order table name inverse"),
        "HandleData": (lambda: kirby_handle_data(2, 3), "counts framings runs"),
        "NormalReport": (lambda: is_normal(plumbed()), "ok violations"),
        "SeifertData": (lambda: jsj_cut(plumbed())[0],
                        "base_genus boundary_count exceptional central_weight"),
        "NormalForm": (lambda: normalize(plumbed()),
                       "graph ordering certificate seifert log"),
    }


# records holding a WeightedGraph are not hashable
UNHASHABLE = {"LabeledFamilyGraph", "NormalForm"}


@pytest.mark.parametrize("name", sorted(_records()))
def test_record_fields_are_read_only(name):
    build, fields = _records()[name]
    rec = build()
    assert type(rec).__name__ == name
    for field in fields.split():
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))
    with pytest.raises(AttributeError):
        rec.extra = 1


@pytest.mark.parametrize("name", sorted(_records()))
def test_equal_fields_make_equal_records(name):
    build, _ = _records()[name]
    a, b = build(), build()
    assert a is not b and a == b
    if name not in UNHASHABLE:
        assert hash(a) == hash(b)


def test_record_hash_is_the_hash_of_its_fields():
    assert hash(Vertex("a", -2)) == hash(("a", -2, 0, 0, None))
    assert hash(Vertex("a", -2, 1, 2, "A")) == hash(("a", -2, 1, 2, "A"))
    assert hash(Edge("b", "a", -1)) == hash(("a", "b", -1))
    assert {Vertex("a", -2), Vertex("a", -2)} == {Vertex("a", -2)}


def test_record_repr():
    assert repr(Vertex("a", -2)) == (
        "Vertex(id='a', weight=-2, genus=0, boundary=0, label=None)")
    assert repr(Edge("b", "a", -1)) == "Edge(u='a', v='b', sign=-1)"
    assert repr(ChainType((2, 3))) == "ChainType(entries=(2, 3), circular=False)"


def test_record_fields_positions_and_keywords():
    v = Vertex("a", -2, 1, 2, "A")
    assert (v.id, v.weight, v.genus, v.boundary, v.label) == ("a", -2, 1, 2, "A")
    assert Vertex(id="a", weight=-2, genus=1, boundary=2, label="A") == v
    e = Edge("b", "a")
    assert (e.u, e.v, e.sign) == ("a", "b", 1)
    assert Edge(u="b", v="a", sign=1) == e
    assert FamilyParams(p1=(0, 1), p2=(1,)).p1 == (Fraction(0), Fraction(1))
    p = GroupPresentation(generators=["x"], relators=[(1, -1, 1)])
    assert p.generators == ("x",) and p.relators == ((1,),)
    s3 = group_catalog()["S3"]
    again = FiniteGroupTable(order=s3.order, table=[list(r) for r in s3.table],
                             name=s3.name)
    assert again.table == s3.table and again.inverse == s3.inverse
    assert all(s3.table[a][s3.inverse[a]] == 0 for a in range(s3.order))
    sd = SeifertData(base_genus=0, boundary_count=1, exceptional=["1/2", 0],
                     central_weight=0)
    assert sd.exceptional == (Fraction(0), Fraction(1, 2))
    assert ChainType((2,)).circular is False
    assert AbelianGroup(3).torsion == ()


@pytest.mark.parametrize("make, error, message", [
    (lambda: Edge("a", "b", 0), DomainError, "edge sign must be"),
    (lambda: Vertex("a", -2, genus=-1), OutOfScopeError, "negative genus"),
    (lambda: Vertex("", -2), DomainError, "vertex id must be"),
    (lambda: Vertex("a", -2, boundary=-1), DomainError, "boundary count"),
    # namedtuple's copies go through the same checks
    pytest.param(lambda: Vertex("a", 0)._replace(boundary=-1), DomainError,
                 "boundary count", id="replace-boundary"),
    pytest.param(lambda: Vertex("a", 0)._replace(genus=-2), OutOfScopeError,
                 "negative genus", id="replace-genus"),
    pytest.param(lambda: Vertex("a", 0)._replace(id=""), DomainError,
                 "vertex id must be", id="replace-id"),
    pytest.param(lambda: Vertex._make(("a", 0, 0, -1, None)), DomainError,
                 "boundary count", id="make-boundary"),
    (lambda: FamilyParams((0, 2), (1,)), DomainError, r"p1 must be monic"),
    (lambda: FamilyParams((1,), ()), DomainError, "p2 must have at least one"),
    (lambda: GroupPresentation(("x",), ((2,),)), DomainError,
     r"relator letter 2 out of range 1\.\.1"),
    (lambda: GroupPresentation((), ((1,),)), DomainError,
     "relators given without generators"),
    (lambda: FiniteGroupTable(3, ((0, 1, 2), (1, 0, 0), (2, 0, 0))), DomainError,
     r"associativity fails at \(1,1,2\)"),
    (lambda: FiniteGroupTable(2, ((0, 1), (1, 1))), DomainError, "missing inverses"),
    (lambda: SeifertData(0, 0, (1,), 0), DomainError,
     r"fiber 1 not normalized into \[0,1\)"),
    (lambda: SeifertData(0, -1, (), 0), DomainError, "negative boundary count"),
])
def test_record_validation(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_report_truth_follows_its_verdict():
    assert not StandardReport(False, (), frozenset())
    assert StandardReport(True, (), frozenset())
    assert not NormalReport(False, ("a violation",))
    assert NormalReport(True, ())
    assert bool(is_standard(build_boundary_graph(2, 3).d_part())) is True
