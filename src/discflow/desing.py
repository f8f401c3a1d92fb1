"""Blow-up machinery for degenerate equilibria.

Characteristic directions, twists and shears, vertical blow-ups and time
rescalings, composable into auditable chains that record every intermediate
field.  All transforms are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import NotDivisible, Poly2, Scalar, VectorField, X, Y, rat

MAX_CHAIN_DEPTH = 8
SHEAR_CANDIDATES = (1, -1, 2, -2)


@dataclass(frozen=True)
class CharacteristicPoly:
    """The direction form y*p_n - x*q_n of the lowest-order parts, n = order.

    Real linear factors give the characteristic directions at the origin;
    the zero polynomial means every direction is characteristic.
    """

    r: Poly2
    order: int
    vertical_is_characteristic: bool


def characteristic_directions(vf: VectorField) -> CharacteristicPoly:
    """`vf.direction_form` at the field's lowest order; raises ValueError
    if the field does not vanish at the origin."""
    if not vf.is_equilibrium((0, 0)):
        raise ValueError("field does not vanish at the origin")
    n = vf.lowest_order
    r = vf.direction_form(n)
    vertical = r.evaluate(0, 1) == 0
    return CharacteristicPoly(r=r, order=n, vertical_is_characteristic=vertical)


def linear_change(vf: VectorField, m: tuple[Scalar, Scalar, Scalar, Scalar]) -> VectorField:
    """Pull vf back through the invertible change (x, y) = M * (u, v)."""
    m11, m12, m21, m22 = (rat(c) for c in m)
    det = m11 * m22 - m12 * m21
    if det == 0:
        raise ValueError("singular change of variables")
    sx = X * m11 + Y * m12
    sy = X * m21 + Y * m22
    p_new = vf.p.substitute(sx, sy)
    q_new = vf.q.substitute(sx, sy)
    u_dot = p_new * (m22 / det) + q_new * (-m12 / det)
    v_dot = p_new * (-m21 / det) + q_new * (m11 / det)
    return VectorField(u_dot, v_dot)


def twist(vf: VectorField, alpha: Scalar) -> VectorField:
    """Shear the second coordinate: (x, y) = (u, u + alpha*v), alpha != 0."""
    alpha = rat(alpha)
    if alpha == 0:
        raise ValueError("twist parameter must be nonzero")
    return linear_change(vf, (1, 0, 1, alpha))


def shear(vf: VectorField, beta: Scalar) -> VectorField:
    """Shear the first coordinate: (x, y) = (u + beta*v, v), beta != 0.

    beta = -1 moves the vertical direction onto the diagonal, which is the
    move needed before a vertical blow-up when x = 0 is characteristic.
    """
    beta = rat(beta)
    if beta == 0:
        raise ValueError("shear parameter must be nonzero")
    return linear_change(vf, (1, beta, 0, 1))


def translate(vf: VectorField, x0: Scalar, y0: Scalar) -> VectorField:
    """Move the point (x0, y0) to the origin."""
    return VectorField(
        vf.p.substitute(X + rat(x0), Y + rat(y0)),
        vf.q.substitute(X + rat(x0), Y + rat(y0)),
    )


def vertical_blowup(vf: VectorField) -> VectorField:
    """Expand the origin into the line u = 0 via (x, y) = (u, u*v).

    The v-component is (q(u, uv) - v*p(u, uv))/u; the division is exact
    precisely when the origin is an equilibrium, so NotDivisible doubles as
    the signal that the chain was applied in an invalid configuration.
    """
    p_sub = vf.p.substitute(X, X * Y)
    q_sub = vf.q.substitute(X, X * Y)
    v_dot = (q_sub - Y * p_sub).divide_monomial("u", 1)
    return VectorField(p_sub, v_dot)


def time_rescale(vf: VectorField, var: str, k: int) -> VectorField:
    """Divide both components by var**k exactly, reparametrizing time."""
    if k < 1:
        raise ValueError("rescale exponent must be positive")
    return vf.divide_monomial(var, k)


def choose_shear_beta(vf: VectorField) -> Fraction:
    """First shear parameter in SHEAR_CANDIDATES that frees the vertical direction.

    Deterministic search order; raises if none of the candidates works
    (which in particular happens when every direction is characteristic).
    Only the first-coordinate shear can move the vertical direction: the
    second-coordinate twist maps the direction (0, 1) to itself.
    """
    for beta in SHEAR_CANDIDATES:
        sheared = shear(vf, beta)
        if not characteristic_directions(sheared).vertical_is_characteristic:
            return rat(beta)
    raise ValueError("no shear candidate frees the vertical direction")


@dataclass(frozen=True)
class BlowupStep:
    """One chain step; its input is the previous step's output, or the chain's start."""

    kind: str
    args: tuple
    output: VectorField

    def to_json(self, names: tuple[str, str] = ("u", "v")) -> dict:
        p_text, q_text = self.output.text(names)
        return {
            "op": self.kind,
            "args": [str(a) for a in self.args],
            "u_dot": p_text,
            "v_dot": q_text,
        }


@dataclass(frozen=True)
class BlowupChain:
    start: VectorField
    steps: tuple[BlowupStep, ...]

    @property
    def final(self) -> VectorField:
        return self.steps[-1].output if self.steps else self.start

    def to_json(self, names: tuple[str, str] = ("u", "v")) -> dict:
        p_text, q_text = self.start.text(names)
        return {
            "start": {"u_dot": p_text, "v_dot": q_text},
            "steps": [s.to_json(names) for s in self.steps],
        }


# Chain steps by name: the transform and one converter per argument.  A step
# spec is (name, *args); the converted args are recorded and passed on.
STEPS = {
    "blowup": (vertical_blowup, ()),
    "rescale": (time_rescale, (str, int)),
    "twist": (twist, (rat,)),
    "shear": (shear, (rat,)),
    "translate": (translate, (rat, rat)),
}


def apply_step(vf: VectorField, spec: tuple) -> BlowupStep:
    """Run one chain step given as ('blowup',), ('rescale', var, k),
    ('twist', alpha), ('shear', beta) or ('translate', x0, y0); arguments may
    be given as text.  Refusals raise ValueError or NotDivisible."""
    kind, *raw = spec
    if kind not in STEPS:
        raise ValueError(f"unknown chain step {kind!r}")
    transform, converters = STEPS[kind]
    if len(raw) != len(converters):
        raise ValueError(f"step {kind!r} takes {len(converters)} argument(s), got {len(raw)}")
    args = tuple(convert(a) for convert, a in zip(converters, raw))
    return BlowupStep(kind=kind, args=args, output=transform(vf, *args))


def run_chain(vf: VectorField, specs: list[tuple]) -> BlowupChain:
    """Apply a list of step specs, recording every intermediate field."""
    if len(specs) > MAX_CHAIN_DEPTH:
        raise ValueError(f"chain depth {len(specs)} exceeds {MAX_CHAIN_DEPTH}")
    steps: list[BlowupStep] = []
    current = vf
    for spec in specs:
        step = apply_step(current, spec)
        steps.append(step)
        current = step.output
    return BlowupChain(start=vf, steps=tuple(steps))
