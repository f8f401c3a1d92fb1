"""Poincare compactification of a planar polynomial field into local charts.

The plane is identified with the interior of the unit disc and the circle at
infinity is covered by the charts U1/U2 (and their antipodal V-charts, which
carry the same field up to the sign (-1)**(n-1)).  In chart coordinates
(u, v) the line v = 0 is the circle at infinity and is invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .poly import DegreeTooLow, NotDivisible, Poly2, VectorField, X, Y
from .roots import RealRoot, poly_coeffs_in_x, real_roots


class ChartId(str, Enum):
    U1 = "U1"
    U2 = "U2"
    U3 = "U3"
    V1 = "V1"
    V2 = "V2"


@dataclass(frozen=True)
class ChartField:
    """A vector field expressed in one local chart; v = 0 is infinity."""

    chart: ChartId
    field: VectorField
    n_used: int

    def text(self) -> tuple[str, str]:
        return self.field.text(("u", "v"))

    def to_json(self) -> dict:
        u_dot, v_dot = self.text()
        return {"chart": self.chart.value, "n_used": self.n_used, "u_dot": u_dot, "v_dot": v_dot}


@dataclass(frozen=True)
class InfinityEquilibrium:
    chart: ChartId
    u: RealRoot
    multiplicity: int

    def to_json(self) -> dict:
        return {"chart": self.chart.value, "u": self.u.to_json(), "multiplicity": self.multiplicity}


@dataclass(frozen=True)
class InfinityReport:
    equilibria: tuple[InfinityEquilibrium, ...]
    line_of_equilibria: bool
    n_used: int

    def to_json(self) -> dict:
        return {
            "n_used": self.n_used,
            "line_of_equilibria": self.line_of_equilibria,
            "equilibria": [e.to_json() for e in self.equilibria],
        }


def _u1_components(vf: VectorField, n: int) -> tuple[Poly2, Poly2]:
    pd = vf.p.dilate_chart_numerator(n)
    qd = vf.q.dilate_chart_numerator(n)
    return qd - X * pd, -(Y * pd)


def chart_field(vf: VectorField, chart: ChartId, n: int | None = None) -> ChartField:
    """Express vf in a local chart at infinity.

    n defaults to the effective degree of vf, which keeps sub-cubic
    specializations honest (a forced higher n would manufacture a spurious
    line of equilibria); pass n explicitly to reproduce a fixed convention.
    """
    chart = ChartId(chart)
    n_used = vf.effective_degree if n is None else n
    if n_used < vf.effective_degree:
        raise DegreeTooLow(f"n={n_used} below effective degree {vf.effective_degree}")
    if chart in (ChartId.U1, ChartId.V1):
        pu, pv = _u1_components(vf, n_used)
    elif chart in (ChartId.U2, ChartId.V2):
        # U2 is U1 of the field with x and y exchanged
        pu, pv = _u1_components(VectorField(vf.q.swap_vars(), vf.p.swap_vars()), n_used)
    else:
        return ChartField(chart, vf, n_used)
    if chart in (ChartId.V1, ChartId.V2) and (n_used - 1) % 2 == 1:
        pu, pv = -pu, -pv
    return ChartField(chart, VectorField(pu, pv), n_used)


def rescale_infinity_line(cf: ChartField) -> ChartField:
    """Divide both chart components by the common factor v exactly.

    Applies when the circle at infinity is filled with equilibria; the
    reduced field has the same orbits away from v = 0 and its v = 0 dynamics
    is the field induced on the infinity line.
    """
    if not (cf.field.p.monomial_multiple("y", 1) and cf.field.q.monomial_multiple("y", 1)):
        raise NotDivisible("v does not divide both chart components")
    return ChartField(cf.chart, cf.field.divide_monomial("y", 1), cf.n_used)


def jacobian_at(vf: VectorField, point: tuple[Fraction, Fraction]) -> list[list[Fraction]]:
    """Exact Jacobian matrix of (p, q) at a rational point."""
    return vf.jacobian(point)


def infinite_equilibria(vf: VectorField, n: int | None = None) -> InfinityReport:
    """Locate the equilibria on the circle at infinity.

    Roots of the U1 chart's u-equation restricted to v = 0 cover every
    direction except the vertical one, which is checked separately as the
    origin of U2.  When the whole circle consists of equilibria only the
    line flag is set and no isolated points are reported.
    """
    n_used = vf.effective_degree if n is None else n
    u1, u2 = (chart_field(vf, chart, n_used).field for chart in (ChartId.U1, ChartId.U2))
    line = all(comp.monomial_multiple("y", 1) for comp in (u1.p, u1.q, u2.p, u2.q))
    equilibria: list[InfinityEquilibrium] = []
    if not line:
        g1 = poly_coeffs_in_x(u1.p)
        if any(g1):
            for root, mult in real_roots(g1):
                equilibria.append(InfinityEquilibrium(ChartId.U1, root, mult))
        g2 = poly_coeffs_in_x(u2.p)
        if any(g2) and g2[0] == 0:
            mult = next(k for k, c in enumerate(g2) if c != 0)
            equilibria.append(InfinityEquilibrium(ChartId.U2, RealRoot.rational(0), mult))
    return InfinityReport(tuple(equilibria), line, n_used)
