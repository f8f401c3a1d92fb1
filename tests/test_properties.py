"""Randomized property suites; runnable standalone via
`pytest tests/test_properties.py`.

CASE_BUDGET documents how many randomized cases each suite contributes; the
acceptance gate asserts the total stays above one thousand.
"""

from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from discflow.compactify import (
    ChartId,
    InfinityEquilibrium,
    InfinityReport,
    chart_field,
    infinite_equilibria,
)
from discflow.desing import linear_change, time_rescale, vertical_blowup
from discflow.classify import classify_from_jacobian
from discflow.family import FamilyParams, build_system, center_cases, global_cases
from discflow.poly import Poly2, VectorField, X, Y
from discflow.roots import RealRoot, poly_coeffs_in_x, real_roots

from reference_systems import monomial_multiple

CASE_BUDGET = {
    "test_ring_laws": 200,
    "test_substitution_roundtrip": 120,
    "test_monomial_division_roundtrip": 120,
    "test_evaluation_homomorphism": 120,
    "test_chart_infinity_invariance": 120,
    "test_chart_compatibility": 60,
    "test_infinity_matches_chart_restriction": 200,
    "test_blowdown_pushforward": 120,
    "test_rescale_direction_preservation": 120,
    "test_classify_invariances": 120,
    "test_oracle_soundness_chain": 120,
}

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def polys(draw, max_terms=4, max_exp=3, allow_constant=True):
    n = draw(st.integers(min_value=0 if allow_constant else 1, max_value=max_terms))
    terms = {}
    for _ in range(n):
        i = draw(st.integers(min_value=0, max_value=max_exp))
        j = draw(st.integers(min_value=0, max_value=max_exp))
        terms[(i, j)] = draw(rationals)
    return Poly2(terms)


@st.composite
def origin_vanishing_fields(draw):
    def strip_low(p):
        return Poly2({k: c for k, c in p.terms.items() if k != (0, 0)})

    p = strip_low(draw(polys()))
    q = strip_low(draw(polys()))
    assume(not (p.is_zero and q.is_zero))
    return VectorField(p, q)


@st.composite
def family_params(draw):
    values = {name: draw(small_rationals) for name in
              ("a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2")}
    return FamilyParams.make(**values)


@settings(max_examples=CASE_BUDGET["test_ring_laws"])
@given(polys(), polys(), polys())
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero


@settings(max_examples=CASE_BUDGET["test_substitution_roundtrip"])
@given(polys(), rationals, rationals, rationals, rationals)
def test_substitution_roundtrip(a, m11, m12, m21, m22):
    det = m11 * m22 - m12 * m21
    assume(det != 0)
    sx = X * m11 + Y * m12
    sy = X * m21 + Y * m22
    inv_sx = X * (m22 / det) + Y * (-m12 / det)
    inv_sy = X * (-m21 / det) + Y * (m11 / det)
    assert a.substitute(sx, sy).substitute(inv_sx, inv_sy) == a


@settings(max_examples=CASE_BUDGET["test_monomial_division_roundtrip"])
@given(polys(), st.sampled_from(["x", "y"]), st.integers(min_value=0, max_value=4))
def test_monomial_division_roundtrip(a, var, k):
    shifted = a * (X if var == "x" else Y) ** k
    assert shifted.divide_monomial(var, k) == a


@settings(max_examples=CASE_BUDGET["test_evaluation_homomorphism"])
@given(polys(), polys(), rationals, rationals)
def test_evaluation_homomorphism(a, b, px, py):
    assert (a * b).evaluate(px, py) == a.evaluate(px, py) * b.evaluate(px, py)
    assert (a + b).evaluate(px, py) == a.evaluate(px, py) + b.evaluate(px, py)


@settings(max_examples=CASE_BUDGET["test_chart_infinity_invariance"])
@given(family_params())
def test_chart_infinity_invariance(params):
    vf = build_system(params)
    for chart in (ChartId.U1, ChartId.U2):
        cf = chart_field(vf, chart)
        assert monomial_multiple(cf.field.q, "y", 1)


@settings(max_examples=CASE_BUDGET["test_chart_compatibility"])
@given(family_params(), rationals, rationals)
def test_chart_compatibility(params, u, v):
    assume(u != 0)
    vf = build_system(params)
    f1 = chart_field(vf, ChartId.U1).field
    f2 = chart_field(vf, ChartId.U2).field
    du, dv = f1.evaluate((u, v))
    # push the U1 vector through (u, v) -> (1/u, v/u)
    wx = -du / u**2
    wy = -v * du / u**2 + dv / u
    gx, gy = f2.evaluate((1 / F(u), F(v) / F(u)))
    assert wx * gy - wy * gx == 0


def chart_restriction_infinity(vf: VectorField) -> InfinityReport:
    """The reference reading of infinity: the U1 and U2 chart fields on v = 0."""
    u1, u2 = (chart_field(vf, chart).field for chart in (ChartId.U1, ChartId.U2))
    line = all(monomial_multiple(comp, "y", 1) for comp in (u1.p, u1.q, u2.p, u2.q))
    equilibria = []
    if not line:
        g1 = poly_coeffs_in_x(u1.p)
        if any(g1):
            for root, mult in real_roots(g1):
                equilibria.append(InfinityEquilibrium(ChartId.U1, root, mult))
        g2 = poly_coeffs_in_x(u2.p)
        if any(g2) and g2[0] == 0:
            mult = next(k for k, c in enumerate(g2) if c != 0)
            equilibria.append(InfinityEquilibrium(ChartId.U2, RealRoot.rational(0), mult))
    return InfinityReport(tuple(equilibria), line, vf.effective_degree)


# factors of the direction form G = y*p_n - x*q_n that each draw kind plants
PLANTED = {
    "line": Poly2(),  # G = 0: the circle at infinity is all equilibria
    "vertical": X**2,  # a repeated zero of G(u, 1) at u = 0, the origin of U2
    "surd": Y**2 - 2 * X**2,  # G(1, u) has the roots +-sqrt(2)
    "cell": Y**3 - Y * X**2 - X**3,  # G(1, u) has the irrational root of u^3 - u - 1
}


def homogeneous(draw, k: int) -> Poly2:
    sparse = st.one_of(st.just(F(0)), rationals)
    return Poly2({(i, k - i): draw(sparse) for i in range(k + 1)})


@st.composite
def infinity_fields(draw):
    """Fields of degree 1-4 with the top parts drawn so that infinity is often
    special: one top part zero, or a planted factor of the direction form."""
    n = draw(st.integers(min_value=1, max_value=4))
    kind = draw(st.sampled_from(["generic", "zero_p", "zero_q", *PLANTED]))
    if kind in ("zero_p", "zero_q"):
        top = homogeneous(draw, n)
        pn, qn = (Poly2(), top) if kind == "zero_p" else (top, Poly2())
    else:
        if kind == "generic":
            g = homogeneous(draw, n + 1)
        else:
            factor = PLANTED[kind]
            assume(factor.degree <= n + 1)
            cofactor = homogeneous(draw, n + 1 - max(factor.degree, 0))
            assume(cofactor)
            g = factor * cofactor
        # every top pair with this G: (g0/y, -(g - g0)/x) plus any (x*h, y*h)
        g0 = Poly2({key: c for key, c in g.terms.items() if key[0] == 0})
        h = homogeneous(draw, n - 1)
        pn = g0.divide_monomial("y", 1) + X * h
        qn = Y * h - (g - g0).divide_monomial("x", 1)
        assert pn * Y - qn * X == g
    assume(pn or qn)
    low = [Poly2({key: c for key, c in draw(polys()).terms.items() if sum(key) < n}) for _ in "pq"]
    return VectorField(pn + low[0], qn + low[1])


@settings(max_examples=CASE_BUDGET["test_infinity_matches_chart_restriction"])
@given(infinity_fields())
def test_infinity_matches_chart_restriction(vf):
    got, want = infinite_equilibria(vf), chart_restriction_infinity(vf)
    assert got == want
    assert got.to_json() == want.to_json()


@settings(max_examples=CASE_BUDGET["test_blowdown_pushforward"])
@given(origin_vanishing_fields(), rationals, rationals)
def test_blowdown_pushforward(vf, u1, v1):
    assume(u1 != 0)
    blown = vertical_blowup(vf)
    wu, wv = blown.evaluate((u1, v1))
    px, qx = vf.evaluate((u1, u1 * v1))
    assert px == wu
    assert qx == v1 * wu + u1 * wv


@settings(max_examples=CASE_BUDGET["test_rescale_direction_preservation"])
@given(origin_vanishing_fields(), st.sampled_from(["x", "y"]), st.integers(min_value=1, max_value=3))
def test_rescale_direction_preservation(base, var, k):
    mono = (X if var == "x" else Y) ** k
    vf = VectorField(base.p * mono, base.q * mono)
    out = time_rescale(vf, var, k)
    cross = vf.p * out.q - vf.q * out.p
    assert cross.is_zero


@settings(max_examples=CASE_BUDGET["test_classify_invariances"])
@given(rationals, rationals, st.fractions(min_value=F(1, 4), max_value=5, max_denominator=6))
def test_classify_invariances(lam, mu, scale):
    jac = [[lam, F(0)], [F(0), mu]]
    swapped = [[mu, F(0)], [F(0), lam]]
    scaled = [[lam * scale, F(0)], [F(0), mu * scale]]
    assert classify_from_jacobian(jac) == classify_from_jacobian(swapped)
    assert classify_from_jacobian(jac) == classify_from_jacobian(scaled)


@st.composite
def global_family_members(draw):
    letter = draw(st.sampled_from("abcdefg"))
    nz = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)
    if letter == "a":
        c1 = -draw(nz)
        return FamilyParams.make(b1=-c1 / 4, c1=c1, d1=-3 * c1 / 4)
    if letter == "b":
        b1 = -draw(nz)
        return FamilyParams.make(b1=b1, d1=3 * b1)
    if letter == "c":
        a1 = draw(small_rationals)
        c1 = -(a1 * a1) - draw(nz)
        return FamilyParams.make(a1=a1, c1=c1)
    if letter == "d":
        return FamilyParams()
    if letter == "e":
        b1 = draw(nz)
        c1 = -2 * b1 - draw(st.fractions(min_value=0, max_value=3, max_denominator=4))
        d1 = -b1 - c1
        assume(d1 != 3 * b1)
        return FamilyParams.make(b1=b1, c1=c1, d1=d1)
    if letter == "f":
        a1 = draw(small_rationals)
        b1 = draw(nz) * draw(st.sampled_from([1, -1]))
        d1 = a1 * a1 + 3 * b1 + draw(nz)
        assume(a1 * a1 + 4 * (b1 + d1) < 0)
        return FamilyParams.make(a1=a1, b1=b1, d1=d1)
    d1 = draw(nz)
    return FamilyParams.make(c1=-d1, d1=d1)


@settings(max_examples=CASE_BUDGET["test_oracle_soundness_chain"])
@given(global_family_members())
def test_oracle_soundness_chain(params):
    report = global_cases(params)
    assert report.is_global
    assert center_cases(params).is_center


def test_case_budget_total():
    assert sum(CASE_BUDGET.values()) >= 1000
