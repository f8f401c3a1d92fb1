"""Hand-expanded reference systems for the chart and blow-up fixtures.

Every builder below was expanded by hand from the family definition under
the stated parameter slice and double-checked by independent evaluation at
random rational points.  They intentionally mirror the shapes produced by
the compactification and blow-up pipeline so fixture comparisons are exact
polynomial (and canonical-text) equality.
"""

from __future__ import annotations

from fractions import Fraction

from discflow.poly import Poly2, VectorField, X, Y, rat

U, V = X, Y  # chart-coordinate aliases: first variable u, second v


def C(value) -> Poly2:
    return Poly2.const(rat(value))


def monomial_multiple(p: Poly2, var: str, k: int) -> bool:
    """Whether var**k divides every term of p."""
    axis = "xy".index(var)
    return all(key[axis] >= k for key in p.terms)


def params_triple_slice(a1=0, a2=0, b1=1, b2=0, c1=0):
    """Family parameters on the slice d1 = 3*b1 (b1 != 0), c2 = 0,
    d2 = -b2*d1/b1."""
    from discflow.family import FamilyParams

    b1 = rat(b1)
    if b1 == 0:
        raise ValueError("slice requires b1 != 0")
    d1 = 3 * b1
    d2 = -rat(b2) * d1 / b1
    return FamilyParams.make(a1=a1, a2=a2, b1=b1, b2=b2, c1=c1, d1=d1, d2=d2)


def params_sum_slice(a1=0, a2=0, b1=1, b2=0, c1=0, d1=0):
    """Family parameters with c2 = 0 and d2 = -b2*d1/b1 (b1 != 0)."""
    from discflow.family import FamilyParams

    b1 = rat(b1)
    if b1 == 0:
        raise ValueError("slice requires b1 != 0")
    d2 = -rat(b2) * rat(d1) / b1
    return FamilyParams.make(a1=a1, a2=a2, b1=b1, b2=b2, c1=c1, d1=d1, d2=d2)


def u1_chart_triple_slice(a1, a2, b1, b2, c1) -> VectorField:
    """U1 chart of the d1 = 3*b1 slice, written exactly as hand-expanded."""
    a1, a2, b1, b2, c1 = map(rat, (a1, a2, b1, b2, c1))
    d1 = 3 * b1
    u_dot = (
        C(4 * b1 + c1)
        + C(2 * c1) * U**2
        - C(2 * b2 * d1 / b1) * U * (1 + U**2)
        - C(2 * b2) * (U + U**3)
        - V * (C(a1) * (-1 + 3 * U**2) + V + U * (C(a2) * (-3 + U**2) + U * V))
    )
    v_dot = (
        -V
        * (
            C(b2 * d1 / b1) * (1 + U**2)
            + (
                -C(c1) * U
                + C(b2) * (-1 + 3 * U**2)
                - C(a2) * V
                + (C(2 * a1) + C(a2) * U + V) * U * V
            )
        )
    )
    return VectorField(u_dot, v_dot)


def u2_chart_triple_slice(a1, a2, b1, b2, c1) -> VectorField:
    """U2 chart of the d1 = 3*b1 slice."""
    a1, a2, b1, b2, c1 = map(rat, (a1, a2, b1, b2, c1))
    d1 = 3 * b1
    u_dot = (
        -C(2 * c1) * U**2
        - C(4 * b1 + c1) * U**4
        + C(2 * b2 / b1) * C(b1 + d1) * U * (1 + U**2)
        + C(a2) * V
        - (C(3 * a2) * U + C(a1) * (-3 + U**2)) * U * V
        + (1 + U**2) * V**2
    )
    v_dot = V * (
        C(b2 / b1) * (C(-b1 + d1) + C(3 * b1 + d1) * U**2)
        + C(a1) * V
        - U * (C(c1) + C(4 * b1 + c1) * U**2 + (C(2 * a2) + C(a1) * U) * V - V**2)
    )
    return VectorField(u_dot, v_dot)


def u1_blowup_quarter_slice(c1) -> VectorField:
    """After one vertical blow-up in U1 on the b1 = -c1/4 specialization."""
    c1 = rat(c1)
    return VectorField(
        U**2 * (C(2 * c1) - (1 + U**2) * V**2),
        U * V * (V**2 - C(c1)),
    )


def u1_blowup_rescaled_quarter_slice(c1) -> VectorField:
    c1 = rat(c1)
    return VectorField(
        U * (C(2 * c1) - (1 + U**2) * V**2),
        V * (V**2 - C(c1)),
    )


def u2_blowup_quarter_slice(c1) -> VectorField:
    c1 = rat(c1)
    return VectorField(
        -(U**2) * (C(2 * c1) - (1 + U**2) * V**2),
        -U * V * (V**2 - C(c1)),
    )


def u2_blowup_rescaled_quarter_slice(c1) -> VectorField:
    c1 = rat(c1)
    return VectorField(
        -U * (C(2 * c1) - (1 + U**2) * V**2),
        -V * (V**2 - C(c1)),
    )


def u2_double_blowup_stage0(b1) -> VectorField:
    """c1 = 0, a-coefficients zero: U2 chart after blow-up and rescale."""
    b1 = rat(b1)
    return VectorField(
        -U * (C(4 * b1) * U**2 - V**2 - U**2 * V**2),
        -(V**3),
    )


def u2_double_blowup_sheared(b1) -> VectorField:
    """Stage 0 pushed through the shear that moves the vertical direction
    onto the diagonal."""
    b1 = rat(b1)
    u_dot = -C(4 * b1) * (U - V) ** 3 + V**2 * (
        U + U**3 - 3 * U**2 * V + 3 * U * V**2 - V * (2 + V**2)
    )
    return VectorField(u_dot, -(V**3))


def u2_double_blowup_stage2(b1) -> VectorField:
    """Second vertical blow-up of the sheared system.

    The v-component is written in its factored form; the sign of the
    4*b1*(1-v)^2 block is the one consistent with the equilibria
    (0, (2*b1 +/- sqrt(2*b1))/(2*b1 - 1)) of the rescaled system.
    """
    b1 = rat(b1)
    u_dot = -(U**3) * (
        C(4 * b1)
        - C(12 * b1) * V
        - V**2
        + C(12 * b1) * V**2
        - U**2 * V**2
        + 2 * V**3
        - C(4 * b1) * V**3
        + 3 * U**2 * V**3
        - 3 * U**2 * V**4
        + U**2 * V**5
    )
    v_dot = (
        U**2
        * V
        * (V - 1)
        * (V**2 * (2 + U**2 * (1 - V) ** 2) - C(4 * b1) * (1 - V) ** 2)
    )
    return VectorField(u_dot, v_dot)


def u2_double_blowup_stage3(b1) -> VectorField:
    """Stage 2 with the common factor u^2 removed."""
    stage2 = u2_double_blowup_stage2(b1)
    return VectorField(
        stage2.p.divide_monomial("x", 2),
        stage2.q.divide_monomial("x", 2),
    )


def u1_line_rescaled_opposite_slice(a1, a2, b1, b2) -> VectorField:
    """U1 chart, divided by the common factor v, on the slice c1 = c2 = 0,
    d1 = -b1, d2 = b2 (the slice whose infinity circle is all equilibria)."""
    a1, a2, b1, b2 = map(rat, (a1, a2, b1, b2))
    u_dot = -(C(a1) * (-1 + 3 * U**2) + V + U * (C(a2) * (-3 + U**2) + U * V))
    v_dot = -(
        -C(4 * b1) * U
        + C(2 * b2) * (-1 + U**2)
        - C(a2) * V
        + U * V * (C(2 * a1) + C(a2) * U + V)
    )
    return VectorField(u_dot, v_dot)


def u2_mixed_blowup_rescaled(a1, c1) -> VectorField:
    """b1 = 0 slice (a2 = b2 = d2 = 0): U2 chart after blow-up and rescale."""
    a1, c1 = rat(a1), rat(c1)
    return VectorField(
        U * (-C(c1) * (2 + U**2) + V * (C(3 * a1) - C(a1) * U**2 + V + U**2 * V)),
        V * (C(c1) - V * (C(2 * a1) + V)),
    )


def u2_mixed_translated(a1) -> VectorField:
    """The degenerate double point of the b1 = 0 slice moved to the origin
    (valid on c1 = -a1^2)."""
    a1 = rat(a1)
    return VectorField(
        U * (C(3 * a1**2) * U**2 + (1 + U**2) * V**2 + C(a1) * (V - 3 * U**2 * V)),
        V**2 * (C(a1) - V),
    )


def u2_mixed_second_blowup(a1) -> VectorField:
    a1 = rat(a1)
    return VectorField(
        U**2 * (C(3 * a1**2) * U + (1 + U**2) * U * V**2 + C(a1) * (V - 3 * U**2 * V)),
        -(U**2) * V * (C(3 * a1**2) - C(3 * a1) * U * V + (2 + U**2) * V**2),
    )


def u2_mixed_second_blowup_rescaled(a1) -> VectorField:
    a1 = rat(a1)
    return VectorField(
        C(3 * a1**2) * U + (1 + U**2) * U * V**2 + C(a1) * (V - 3 * U**2 * V),
        -V * (C(3 * a1**2) - C(3 * a1) * U * V + (2 + U**2) * V**2),
    )


def u1_sum_blowup_rescaled(b1, c1) -> VectorField:
    """d1 = -b1-c1 slice with a-coefficients and b2 zero: U1 chart after
    blow-up and rescale."""
    b1, c1 = rat(b1), rat(c1)
    return VectorField(
        U * (C(2 * c1) - (1 + U**2) * V**2),
        C(4 * b1) * V + V**3,
    )


def u2_sum_blowup_rescaled(b1, c1) -> VectorField:
    b1, c1 = rat(b1), rat(c1)
    return VectorField(
        U * (-C(2 * c1) + (1 + U**2) * V**2),
        V * (C(4 * b1 + 2 * c1) - V**2),
    )


def u2_growth_blowup_rescaled(a1, b1, d1) -> VectorField:
    """c1 = 0, b1 + d1 != 0 slice: U2 chart after blow-up and rescale."""
    a1, b1, d1 = rat(a1), rat(b1), rat(d1)
    return VectorField(
        U * (-C(b1 + d1) * U**2 - C(a1) * (-3 + U**2) * V + (1 + U**2) * V**2),
        -V * (C(-3 * b1 + d1) + V * (C(2 * a1) + V)),
    )


def u1_balanced_blowup_rescaled(d1) -> VectorField:
    """b1 = 0, d1 = -c1 slice: U1 chart after blow-up and rescale."""
    d1 = rat(d1)
    return VectorField(
        -U * (C(2 * d1) + (1 + U**2) * V**2),
        V**3,
    )


def u2_balanced_blowup_rescaled(d1) -> VectorField:
    d1 = rat(d1)
    return VectorField(
        U * (C(2 * d1) + (1 + U**2) * V**2),
        -C(2 * d1) * V - V**3,
    )
