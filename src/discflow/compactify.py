"""Poincare compactification of a planar polynomial field into local charts.

The plane is identified with the interior of the unit disc and the circle at
infinity is covered by the charts U1/U2 (and their antipodal V-charts, which
carry the same field up to the sign (-1)**(n-1)), n the effective degree.  In
chart coordinates (u, v) the line v = 0 is the circle at infinity and is
invariant.  Its equilibria are read off the direction form y*p_n - x*q_n
alone; Jacobians there come from `VectorField.jacobian` of a chart field.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .poly import Poly2, VectorField, X, Y
from .roots import RealRoot, real_roots


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
    # p(1/v, u/v) * v**n and likewise q: the (i, j) term becomes u**j * v**(n-i-j)
    pd, qd = (Poly2({(j, n - i - j): c for (i, j), c in r.terms.items()}) for r in (vf.p, vf.q))
    return qd - X * pd, -(Y * pd)


def chart_field(vf: VectorField, chart: ChartId) -> ChartField:
    """Express vf in a local chart at infinity, dilated by the effective degree
    n of vf, which keeps sub-cubic specializations honest: a higher n would
    multiply both components by a power of v, a spurious line of equilibria."""
    chart = ChartId(chart)
    n = vf.effective_degree
    if chart in (ChartId.U1, ChartId.V1):
        pu, pv = _u1_components(vf, n)
    elif chart in (ChartId.U2, ChartId.V2):
        # U2 is U1 of the field with x and y exchanged
        pu, pv = _u1_components(VectorField(vf.q.swap_vars(), vf.p.swap_vars()), n)
    else:
        return ChartField(chart, vf, n)
    if chart in (ChartId.V1, ChartId.V2) and (n - 1) % 2 == 1:
        pu, pv = -pu, -pv
    return ChartField(chart, VectorField(pu, pv), n)


def infinite_equilibria(vf: VectorField) -> InfinityReport:
    """Locate the equilibria on the circle at infinity.

    They are read off G = `vf.direction_form(n)`, n the effective degree, a
    form of degree n + 1: on v = 0, U1's u' is -G(1, u), whose real roots
    cover every direction but the vertical one, and U2's u' is G(u, 1), whose
    zero at u = 0 is the origin of U2.  G = 0 means the whole circle consists
    of equilibria: only the line flag is set and no isolated points are reported.
    """
    n = vf.effective_degree
    g = vf.direction_form(n)
    equilibria: list[InfinityEquilibrium] = []
    if g:
        for root, mult in real_roots([-g.coefficient(n + 1 - j, j) for j in range(n + 2)]):
            equilibria.append(InfinityEquilibrium(ChartId.U1, root, mult))
        g2 = [g.coefficient(i, n + 1 - i) for i in range(n + 2)]
        if g2[0] == 0:
            mult = next(k for k, c in enumerate(g2) if c != 0)
            equilibria.append(InfinityEquilibrium(ChartId.U2, RealRoot.rational(0), mult))
    return InfinityReport(tuple(equilibria), not g, n)
