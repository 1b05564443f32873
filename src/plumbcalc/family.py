"""The two-parameter family of boundary divisor graphs and its exact
coordinate-chart checks.

The surface S is carved out of C^4 by

    y_1 x_1^{d_1} = x_2 - phat_1(x_1),    y_2 x_2^{d_2} = x_1 - phat_2(x_2),

where p_j is a monic polynomial of degree d_j - 1 (coefficients stored
ascending, so d_j = len(coeffs)) and phat_j(t) = t^{d_j-1} p_j(1/t) is
its reversal, normalized by phat_j(0) = 1.

The boundary graph lives on a 4-cycle of lines

    L1_inf -- L2_inf -- L1_0 -- L2_0 -- L1_inf

with weights (0, 0, -1, -1) after the d_1 + d_2 blowups, a twig
[(2)_{d_j-1}] hanging off L_{j,0} (vertices T{j}_01 ... adjacent to
L{j}_0 first), and the last exceptional A_j at the twig's far end.  The
A_j are not part of the boundary; d_part() drops them.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import divisor
from .graphs import (
    DomainError,
    Edge,
    Vertex,
    WeightedGraph,
    det_exact,
    intersection_matrix,
)
from .invariants import Laurent, chain_complex_homology, kirby_handle_data


class FamilyParams(namedtuple("FamilyParams", "p1 p2")):
    """Coefficients of p_1 and p_2, ascending, monic; d_j = len."""

    __slots__ = ()

    def __new__(cls, p1: tuple, p2: tuple):
        fields = []
        for name, coeffs in (("p1", p1), ("p2", p2)):
            if not coeffs:
                raise DomainError(f"{name} must have at least one coefficient")
            vals = tuple(Fraction(c) for c in coeffs)
            if vals[-1] != 1:
                raise DomainError(f"{name} must be monic (leading coefficient 1)")
            fields.append(vals)
        return tuple.__new__(cls, fields)

    @property
    def d1(self) -> int:
        return len(self.p1)

    @property
    def d2(self) -> int:
        return len(self.p2)

    @staticmethod
    def default(d1: int, d2: int) -> "FamilyParams":
        if d1 < 1 or d2 < 1:
            raise DomainError("degrees must be >= 1")
        mono = lambda d: tuple([Fraction(0)] * (d - 1) + [Fraction(1)])
        return FamilyParams(mono(d1), mono(d2))

    def phat(self, j: int) -> tuple:
        # ascending coefficients of phat_j = reversal of p_j
        p = self.p1 if j == 1 else self.p2
        return tuple(reversed(p))


class LabeledFamilyGraph(namedtuple("LabeledFamilyGraph", "graph d1 d2")):
    __slots__ = ()

    def d_part(self) -> WeightedGraph:
        """The boundary divisor: the graph without A1 and A2."""
        g = self.graph
        return g.induced(x for x in g.vertices if not x.startswith("A"))


def _exceptionals(j: int, d: int) -> list:
    """(id, label) of the d exceptional curves over L_{j,0}, in blowup
    order: the twig T_{j,1} .. T_{j,d-1}, then A_j."""
    return [(f"T{j}_{i:02d}", f"T_{{{j},{i}}}") for i in range(1, d)] + [(f"A{j}", f"A_{j}")]


def _line_cycle(w0: int) -> tuple[list, list]:
    """Vertices and edges of the 4-cycle of lines, in its order
    L1_inf -- L2_inf -- L1_0 -- L2_0 -- L1_inf; the L_{j,inf} have weight 0
    and the L_{j,0} weight w0."""
    vs = [Vertex(f"L{j}_{end}", w0 if end == "0" else 0, label=f"L_{{{j},{end}}}")
          for end in ("inf", "0") for j in (1, 2)]
    return vs, [Edge(a.id, b.id) for a, b in zip(vs, vs[1:] + vs[:1])]


def build_boundary_graph(d1: int, d2: int) -> LabeledFamilyGraph:
    """Direct description of the blown-up boundary plus the two
    attachment curves A1, A2."""
    if d1 < 1 or d2 < 1:
        raise DomainError("degrees must be >= 1")
    vs, es = _line_cycle(-1)
    for j, d in ((1, d1), (2, d2)):
        prev = f"L{j}_0"
        for vid, label in _exceptionals(j, d):
            vs.append(Vertex(vid, -1 if vid[0] == "A" else -2, label=label))
            es.append(Edge(prev, vid))
            prev = vid
    return LabeledFamilyGraph(WeightedGraph("divisor", vs, es), d1, d2)


def build_by_blowups(params: FamilyParams) -> tuple[LabeledFamilyGraph, list]:
    """Replay the construction: the 4-cycle of lines with all weights 0,
    then d_j outer blowups over L_{j,0} (each after the first sitting on
    the previous exceptional)."""
    g = WeightedGraph("divisor", *_line_cycle(0))
    log: list = []
    labels = {}
    for j, d in ((1, params.d1), (2, params.d2)):
        prev = f"L{j}_0"
        for vid, label in _exceptionals(j, d):
            g = divisor.blow_up(g, prev, log, new_id=vid)
            labels[vid], prev = label, vid
    # blow_up leaves the exceptional vertices unlabelled
    g = g._derive({vid: g.vertices[vid]._replace(label=label)
                   for vid, label in labels.items()})
    return LabeledFamilyGraph(g, params.d1, params.d2), log


# ---------------------------------------------------------------------------
# Picard checks


def picard_check(d1: int, d2: int) -> dict:
    """Unimodularity of the boundary intersection form plus the two
    linear-equivalence relations of the construction.

    R_j = A_j + sum_i T_{j,i} + L_{j,0} - L_{j,inf} pairs to zero with
    every curve; the fiber class C_j = R_j + L_{j,inf} squares to zero
    and meets exactly the two sections L_{3-j,0}, L_{3-j,inf}, once each.
    """
    fam = build_boundary_graph(d1, d2)
    g = fam.graph
    d_det = det_exact(intersection_matrix(fam.d_part()))
    unimodular = abs(d_det) == 1

    def pairing(vec: dict) -> dict:
        """The intersection form applied to {vertex: coefficient}, through
        the incidence index; only nonzero pairings are kept.  A divisor
        graph has no loops."""
        out: dict = {}
        for u, x in vec.items():
            out[u] = out.get(u, 0) + g.vertices[u].weight * x
            for w, s in g.around[u]:
                out[w] = out.get(w, 0) + s * x
        return {vid: y for vid, y in out.items() if y}

    relations_ok = True
    for j, d in ((1, d1), (2, d2)):
        c = dict.fromkeys([*(vid for vid, _ in _exceptionals(j, d)), f"L{j}_0"], 1)
        pc = pairing(c)
        relations_ok &= (not pairing({**c, f"L{j}_inf": -1})
                         and pc == {f"L{3-j}_0": 1, f"L{3-j}_inf": 1}
                         and sum(pc.get(vid, 0) * x for vid, x in c.items()) == 0)

    return {
        "unimodular": unimodular,
        "det": d_det,
        "relations_verified": relations_ok,
    }


def surface_homology(d1: int, d2: int) -> dict:
    """Integral homology of the surface from its handle decomposition."""
    hd = kirby_handle_data(d1, d2)
    h0, h1, h2 = chain_complex_homology(hd)
    chi = hd.euler_characteristic()
    return {"chi": chi, "H0": h0, "H1": h1, "H2": h2}


V1, V2 = Laurent.variables("v1", "v2")
V1_INV, V2_INV = V1.reciprocal(), V2.reciprocal()


def _poly_at(coeffs, arg: Laurent) -> Laurent:
    """Evaluate an ascending-coefficient polynomial at a Laurent value,
    adding every term into one dict of coefficients."""
    out: dict = {}
    power = arg**0
    for c in coeffs:
        for e, x in power.terms.items():
            out[e] = out[e] + x * c if e in out else x * c
        power = power * arg
    return Laurent(arg.names, out)


# ---------------------------------------------------------------------------
# charts


CHART_CASES = ("aa", "al1", "al2", "lc1", "lc2")


def _chart_sigma(case: str, params: FamilyParams) -> dict:
    """The four coordinate images sigma(x1), sigma(x2), sigma(y1),
    sigma(y2) as Laurent polynomials in the chart coordinates v1, v2."""
    if case not in CHART_CASES:
        raise DomainError(f"unknown chart case {case!r}; choose from {CHART_CASES}")
    d = {1: params.d1, 2: params.d2}
    ph = {1: params.phat(1), 2: params.phat(2)}
    v = {1: V1, 2: V2}
    vinv = {1: V1_INV, 2: V2_INV}

    if case == "aa":
        sig = {}
        for j in (1, 2):
            k = 3 - j
            sig[f"x{j}"] = v[j]
            sig[f"y{j}"] = (v[k] - _poly_at(ph[j], v[j])) * vinv[j] ** d[j]
        return sig

    if case in ("al1", "al2"):
        j = int(case[2])
        k = 3 - j
        if d[k] != 1:
            raise DomainError(
                f"chart {case} requires p_{k} = 1 (degree parameter d{k} = 1), "
                f"got d{k} = {d[k]}"
            )
        sig = {
            f"x{j}": v[j],
            f"x{k}": (v[j] - 1) * vinv[k],
            f"y{j}": (v[j] - 1 - _poly_at(ph[j], v[j]) * v[k])
            * (vinv[j] ** d[j] * vinv[k]),
            f"y{k}": v[k],
        }
        return sig

    j = int(case[2])
    k = 3 - j
    if d[1] != 1 or d[2] != 1:
        raise DomainError(
            f"chart {case} requires p_1 = p_2 = 1, got degrees ({d[1]}, {d[2]})"
        )
    return {
        f"x{j}": -(V2 + 1) * V1_INV,
        f"x{k}": -(V1 + V2 + 1) * (V1_INV * V2_INV),
        f"y{j}": (V1 + 1) * V2_INV,
        f"y{k}": V2,
    }


class ChartReport(namedtuple(
        "ChartReport", "case residuals_zero inverse_ok residuals")):
    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "case": self.case,
            "residuals_zero": self.residuals_zero,
            "inverse_ok": self.inverse_ok,
            "residuals": [str(r) for r in self.residuals],
        }


def verify_chart(case: str, params: FamilyParams) -> ChartReport:
    """Substitute the chart's coordinate images into both defining
    equations; the residuals must vanish identically, and the inverse
    expressions must recover the chart coordinates."""
    sig = _chart_sigma(case, params)
    residuals = []
    for j in (1, 2):
        k = 3 - j
        d_j = params.d1 if j == 1 else params.d2
        g_j = (
            sig[f"y{j}"] * sig[f"x{j}"] ** d_j
            - sig[f"x{k}"]
            + _poly_at(params.phat(j), sig[f"x{j}"])
        )
        residuals.append(g_j)
    residuals_zero = all(r.is_zero() for r in residuals)

    if case == "aa":
        inverse_ok = sig["x1"] == V1 and sig["x2"] == V2
    elif case in ("al1", "al2"):
        j = int(case[2])
        k = 3 - j
        inverse_ok = (
            sig[f"x{j}"] == (V1 if j == 1 else V2)
            and sig[f"y{k}"] == (V1 if k == 1 else V2)
        )
    else:
        k = 3 - int(case[2])
        inverse_ok = (sig["y1"] * sig["y2"] - 1) == V1 and sig[f"y{k}"] == V2
    return ChartReport(case, residuals_zero, inverse_ok, tuple(residuals))


class VolumeReport(namedtuple("VolumeReport", "case extends sign")):
    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"case": self.case, "extends": self.extends, "sign": self.sign}


def verify_volume_form(case: str, params: FamilyParams) -> VolumeReport:
    """Check that dx1/x1 ^ dx2/x2 pulls back to +/- dv1/v1 ^ dv2/v2:
    det(Jacobian of (sigma(x1), sigma(x2))) * v1 * v2 must equal
    +/- sigma(x1) * sigma(x2) identically."""
    sig = _chart_sigma(case, params)
    x1, x2 = sig["x1"], sig["x2"]
    det = (x1.derivative("v1") * x2.derivative("v2")
           - x1.derivative("v2") * x2.derivative("v1"))
    lhs = det * V1 * V2
    for sign in (1, -1):
        if lhs == x1 * x2 * sign:
            return VolumeReport(case, True, sign)
    return VolumeReport(case, False, 0)
