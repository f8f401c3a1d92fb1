"""Equilibrium classification from the Jacobian spectrum.

Hyperbolic points are decided from trace/determinant alone; points with
exactly one zero eigenvalue are refined through their center-manifold
reduction; nilpotent and linearly-zero points are only tagged as needing a
blow-up, which is all the global-center analysis requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .desing import linear_change, translate
from .poly import Poly2, VectorField, X, Y

CENTER_MANIFOLD_ORDER = 6


class PointType(str, Enum):
    HYPERBOLIC_SADDLE = "hyperbolic-saddle"
    HYPERBOLIC_NODE = "hyperbolic-node"
    HYPERBOLIC_FOCUS = "hyperbolic-focus"
    LINEAR_CENTER_CANDIDATE = "linear-center-candidate"
    SEMI_HYPERBOLIC = "semi-hyperbolic"
    SEMI_HYPERBOLIC_SADDLE = "semi-hyperbolic-saddle"
    SEMI_HYPERBOLIC_NODE = "semi-hyperbolic-node"
    SEMI_HYPERBOLIC_SADDLE_NODE = "semi-hyperbolic-saddle-node"
    SEMI_HYPERBOLIC_INCONCLUSIVE = "semi-hyperbolic-inconclusive"
    NILPOTENT_NEEDS_BLOWUP = "nilpotent-needs-blowup"
    LINEARLY_ZERO_NEEDS_BLOWUP = "linearly-zero-needs-blowup"


@dataclass(frozen=True)
class EquilibriumClass:
    kind: PointType
    stability: str | None = None

    def to_json(self) -> dict:
        return {"kind": self.kind.value, "stability": self.stability}


def _trace_det(jac) -> tuple[Fraction, Fraction]:
    (a, b), (c, d) = jac
    return Fraction(a) + Fraction(d), Fraction(a) * Fraction(d) - Fraction(b) * Fraction(c)


def classify_from_jacobian(jac) -> EquilibriumClass:
    """Coarse class from trace/det/discriminant; refinement is deferred for
    semi-hyperbolic points and blow-up is required for the degenerate tags."""
    (a, b), (c, d) = jac
    trace, det = _trace_det(jac)
    if det < 0:
        return EquilibriumClass(PointType.HYPERBOLIC_SADDLE)
    if det > 0:
        if trace == 0:
            return EquilibriumClass(PointType.LINEAR_CENTER_CANDIDATE)
        stability = "stable" if trace < 0 else "unstable"
        disc = trace * trace - 4 * det
        if disc < 0:
            return EquilibriumClass(PointType.HYPERBOLIC_FOCUS, stability)
        return EquilibriumClass(PointType.HYPERBOLIC_NODE, stability)
    # det == 0
    if trace != 0:
        return EquilibriumClass(PointType.SEMI_HYPERBOLIC)
    if a == b == c == d == 0:
        return EquilibriumClass(PointType.LINEARLY_ZERO_NEEDS_BLOWUP)
    return EquilibriumClass(PointType.NILPOTENT_NEEDS_BLOWUP)


def _kernel_vector(jac) -> tuple[Fraction, Fraction]:
    """A kernel vector of a singular, nonzero 2x2 matrix."""
    (a, b), (c, d) = jac
    if a != 0 or b != 0:
        return Fraction(b), -Fraction(a)
    return Fraction(d), -Fraction(c)


def _solve_fast_equation(lam: Fraction, a_part: Poly2) -> Poly2:
    """Series x = f(y) with lam*f + a_part(f, y) = 0, truncated at order 6."""
    f = Poly2.zero()
    for _ in range(CENTER_MANIFOLD_ORDER + 2):
        f_next = (a_part.substitute(f, Y) * (Fraction(-1) / lam)).truncated(CENTER_MANIFOLD_ORDER)
        if f_next == f:
            break
        f = f_next
    return f


def refine_semihyperbolic(vf: VectorField, point: tuple) -> EquilibriumClass:
    """Classify an equilibrium with exactly one zero eigenvalue.

    Works in exact eigen-coordinates (the nonzero eigenvalue equals the
    trace, hence is rational).  The center manifold is approximated by
    solving the fast equation as a series in the slow variable; the first
    nonzero coefficient a_m of the reduced slow dynamics decides the class:
    m odd with a_m*lambda < 0 is a saddle, m odd with a_m*lambda > 0 a node,
    m even a saddle-node.  If every coefficient through order 6 vanishes the
    result is reported as inconclusive rather than guessed.
    """
    local = translate(vf, point[0], point[1])
    if not local.is_equilibrium((0, 0)):
        raise ValueError("given point is not an equilibrium")
    jac = local.jacobian((0, 0))
    trace, det = _trace_det(jac)
    if det != 0 or trace == 0:
        raise ValueError("Jacobian must have exactly one zero eigenvalue")
    lam = trace
    identity_shift = [[jac[0][0] - lam, jac[0][1]], [jac[1][0], jac[1][1] - lam]]
    fast = _kernel_vector(identity_shift)
    slow = _kernel_vector(jac)
    aligned = linear_change(local, (fast[0], slow[0], fast[1], slow[1]))
    # aligned now has Jacobian diag(lam, 0); split off the linear fast part
    a_part = aligned.p - X * lam
    f = _solve_fast_equation(lam, a_part)
    g = aligned.q.substitute(f, Y).truncated(CENTER_MANIFOLD_ORDER)
    by_order = sorted((j, c) for (i, j), c in g.terms.items() if i == 0 and c)
    if not by_order:
        return EquilibriumClass(PointType.SEMI_HYPERBOLIC_INCONCLUSIVE)
    m, a_m = by_order[0]
    if m % 2 == 0:
        return EquilibriumClass(PointType.SEMI_HYPERBOLIC_SADDLE_NODE)
    if a_m * lam < 0:
        return EquilibriumClass(PointType.SEMI_HYPERBOLIC_SADDLE)
    return EquilibriumClass(
        PointType.SEMI_HYPERBOLIC_NODE, "unstable" if lam > 0 else "stable"
    )


def classify_point(vf: VectorField, point: tuple) -> EquilibriumClass:
    """Coarse classification at a point, refined when semi-hyperbolic."""
    jac = vf.jacobian(point)
    coarse = classify_from_jacobian(jac)
    if coarse.kind is PointType.SEMI_HYPERBOLIC:
        return refine_semihyperbolic(vf, point)
    return coarse
