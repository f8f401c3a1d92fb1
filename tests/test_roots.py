import math
from fractions import Fraction as F
from unittest import mock

import hypothesis.strategies as st
import pytest
import sympy
from hypothesis import assume, example, given, settings

from discflow import roots
from discflow.equilibria import _within
from discflow.roots import CELL_BITS, RealRoot, real_roots

X = sympy.Symbol("x")


def test_rational_roots():
    # 2x^2 - 3x + 1 = (2x - 1)(x - 1)
    roots = real_roots([F(1), F(-3), F(2)])
    assert [(r.kind, r.a) for r, m in roots] == [("rational", F(1, 2)), ("rational", F(1))]
    assert all(m == 1 for _, m in roots)


def test_double_root_multiplicity():
    # (x - 2)^2
    roots = real_roots([F(4), F(-4), F(1)])
    assert len(roots) == 1
    root, mult = roots[0]
    assert root.a == 2 and mult == 2


def test_surd_roots():
    # 4u^2 - 2 = 0 -> u = +/- sqrt(1/2)
    roots = real_roots([F(-2), F(0), F(4)])
    assert len(roots) == 2
    vals = sorted(r.approx() for r, _ in roots)
    assert abs(vals[0] + 0.7071067811865476) < 1e-12
    assert abs(vals[1] - 0.7071067811865476) < 1e-12
    assert all(r.kind == "surd" for r, _ in roots)
    # enclosures are genuine
    for r, _ in roots:
        lo, hi = r.lo, r.hi
        assert float(lo) <= r.approx() <= float(hi)


def test_no_real_roots():
    assert real_roots([F(1), F(0), F(1)]) == []


def test_monomial_factor_gives_zero_root():
    # u^2 * (u - 3)
    roots = real_roots([F(0), F(0), F(-3), F(1)])
    assert [(r.a, m) for r, m in roots] == [(F(0), 2), (F(3), 1)]


@pytest.mark.parametrize("scale", [F(1, 10**800), F(10**800)])
def test_zero_root_is_ordered_exactly(scale):
    # x(x^2 - 2s): the surds +-sqrt(2s) round to 0.0 as floats, or are past float range
    roots = real_roots([F(0), -2 * scale, F(0), F(1)])
    assert [(r.kind, r.a, r.b > 0, m) for r, m in roots] == [
        ("surd", 0, False, 1), ("rational", 0, False, 1), ("surd", 0, True, 1)]
    for r, _ in roots[::2]:
        assert ("approx" in r.to_json()) == (scale < 1) and r.to_json()["exact"] == r.exact_str()


def test_high_degree_isolation():
    # (x^2 - 2)(x^2 - 3) = x^4 - 5x^2 + 6: four irrational roots
    roots = real_roots([F(6), F(0), F(-5), F(0), F(1)])
    approx = sorted(r.approx() for r, _ in roots)
    expected = [-(3 ** 0.5), -(2 ** 0.5), 2 ** 0.5, 3 ** 0.5]
    assert len(roots) == 4
    for a, e in zip(approx, expected):
        assert abs(a - e) < 1e-9
    for r, m in roots:
        assert m == 1
        if r.kind == "interval":
            assert r.hi - r.lo <= F(1, 10**12)


def test_high_degree_with_multiplicity():
    # x^3 (x - 1)^2 (x + 2)
    coeffs = [F(0)] * 3 + [F(-2), F(3), F(0), F(-1)]
    # polynomial: x^3 * (x-1)^2 * (x+2) = x^6 - 3x^4 + 2x^3 ... build directly
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly(x**3 * (x - 1) ** 2 * (x + 2), x)
    coeffs = [F(int(c)) for c in reversed(poly.all_coeffs())]
    roots = real_roots(coeffs)
    data = sorted((round(r.approx(), 6), m) for r, m in roots)
    assert data == [(-2.0, 1), (0.0, 3), (1.0, 2)]


def _surd_is_enclosed(coeffs, root):
    """root's bounds hold a sign change of c + b*x + a*x**2 and the float nearest root, which
    approx() is, or approx() raises OverflowError and the bounds lie past float range."""
    c, b, a = coeffs
    lo, hi = root.lo, root.hi
    assert lo < hi and (c + b * lo + a * lo * lo) * (c + b * hi + a * hi * hi) < 0
    try:
        approx = root.approx()
    except OverflowError:
        assert min(abs(lo), abs(hi)) > 2**1023
        return
    assert float(lo) <= approx <= float(hi)
    assert abs(F(approx) - (lo + hi) / 2) <= math.ulp(approx)


@pytest.mark.parametrize("a", [1e-20, 1e-200, 1e-320, 5e-324])
def test_surd_approx_is_the_nearest_float(a):
    # a*x^2 + x + 1: a + b*sqrt(r) summed as floats cancels to 0.0 at the root near -1,
    # -1 - a - 2a^2 - ..., or overflows; only the root near -1/a may be past float range
    (far, _), (near, _) = real_roots([1, 1, a])
    assert far.kind == near.kind == "surd" and near.approx() == -1.0
    lo, hi = near.lo, near.hi
    assert hi - lo < F(1, 2**63) and lo < -1 - F(a) < hi
    for root in (far, near):
        _surd_is_enclosed([1, 1, F(a)], root)
    if a > 1e-300:
        assert far.approx() == float(-1 / F(a))
    else:
        with pytest.raises(OverflowError):
            far.approx()


@settings(max_examples=300)
@given(
    st.lists(st.integers(-10**6, 10**6).filter(bool), min_size=3, max_size=3),
    st.lists(st.integers(-330, 330), min_size=3, max_size=3),
)
def test_surd_bounds_hold_the_root_and_its_float(mantissas, exponents):
    coeffs = [F(m) * F(10) ** e for m, e in zip(mantissas, exponents)]
    for root, _ in real_roots(coeffs):
        if root.kind == "surd":
            _surd_is_enclosed(coeffs, root)


def test_quadratic_roots_linear_and_empty():
    assert real_roots([-4, 2, 0])[0][0].a == 2
    assert real_roots([5, 0, 0]) == []
    with pytest.raises(ValueError):
        real_roots([0, 0, 0])


def test_exact_strings():
    assert RealRoot.rational(F(-3, 2)).exact_str() == "-3/2"
    surd = RealRoot.surd(F(1, 2), F(-1, 4), F(5))
    assert "sqrt(5)" in surd.exact_str()
    assert surd.to_json()["approx"] == pytest.approx(0.5 - 0.25 * 5**0.5)


def _cell(lo, hi):
    """The exponent m of a cell [k, k + 1] / 2**m."""
    width = hi - lo
    assert width.numerator == 1 and width.denominator & (width.denominator - 1) == 0
    assert (lo / width).denominator == 1
    return width.denominator.bit_length() - 1


def test_irrational_root_is_reported_in_its_dyadic_cell():
    # x^3 - 2: the cell [k, k + 1] / 2**40 that holds 2**(1/3), whatever found it
    ((root, mult),) = real_roots([F(-2), F(0), F(0), F(1)])
    assert root.kind == "interval" and mult == 1
    assert _cell(root.lo, root.hi) == 40
    assert root.lo**3 < 2 < root.hi**3
    assert root.approx() == float((root.lo + root.hi) / 2)


def test_rational_roots_of_high_degree_are_exact():
    # (1048583 x - 1)(x - 3)(x^2 - 2): the denominator needs more than 40 bits
    coeffs = [F(1)]
    for factor in ([F(-1), F(1048583)], [F(-3), F(1)], [F(-2), F(0), F(1)]):
        coeffs = [sum(coeffs[i] * factor[k - i] for i in range(len(coeffs)) if 0 <= k - i < len(factor))
                  for k in range(len(coeffs) + len(factor) - 1)]
    roots = real_roots(coeffs)
    assert [r.kind for r, _ in roots] == ["interval", "rational", "interval", "rational"]
    assert roots[1][0].a == F(1, 1048583) and roots[3][0].a == 3


def test_refinement_stops_below_one_over_the_leading_coefficient(monkeypatch):
    # (2**100 + 1) x^3 - 2: a cell narrower than 1 / lc holds one multiple of 1 / lc, the
    # only candidate for a rational root, so the irrational root is refined to bitlen(lc)
    lc, depths, refine = 2**100 + 1, [], roots._refine

    def spy(f, a, e, bits):
        out = refine(f, a, e, bits)
        depths.append(out[1])  # (a, e): the root is irrational
        return out

    monkeypatch.setattr(roots, "_refine", spy)
    ((root, _),) = real_roots([-2, 0, 0, lc])
    assert root.kind == "interval" and root.lo**3 * lc < 2 < root.hi**3 * lc
    assert max(depths) == max(CELL_BITS, lc.bit_length())


@settings(max_examples=150, deadline=None)
@given(
    st.integers(-10**40, 10**40),
    st.integers(1, 10**40),
    st.integers(1, 2),
    st.lists(st.integers(-50, 50), min_size=4, max_size=4).filter(lambda h: h[-1]),
)
def test_a_rational_root_beside_irrational_ones_is_exact(p, q, mult, h):
    # (q x - p)**mult h(x), h an integer cubic with no rational root: p / q is exact (in the
    # square-free quartic, the multiple of 1 / lc in its cell), h's real roots stay in cells
    assume(sympy.Poly(list(reversed(h)), X).is_irreducible)
    coeffs = h
    for _ in range(mult):  # times q x - p
        coeffs = [q * u - p * v for u, v in zip([0] + coeffs, coeffs + [0])]
    found = real_roots(coeffs)
    assert [(r.a, m) for r, m in found if r.kind == "rational"] == [(F(p, q), mult)]
    others = [(r.kind, m) for r, m in found if r.kind != "rational"]
    assert others == [("interval", 1)] * sympy.Poly(list(reversed(h)), X).count_roots()


def test_roots_sharing_a_cell_get_finer_cells():
    # x^2 - 2 and x^2 - (2 + 2**-45): two irrational roots 2**-46.5 apart
    eps = F(1, 2**45)
    coeffs = [F(2) * (2 + eps), F(0), -(4 + eps), F(0), F(1)]
    positive = [r for r, _ in real_roots(coeffs) if r.approx() > 0]
    assert len(positive) == 2 and positive[0].hi <= positive[1].lo
    for root, square in zip(positive, (2, 2 + eps)):
        assert _cell(root.lo, root.hi) > 40
        assert root.lo**2 < square < root.hi**2
    # a rational root within 2**-65 of sqrt(2), inside its 2**-40 cell, pushes that cell finer
    sqrt2 = real_roots([F(-2), F(0), F(1)])[1][0]
    lo, hi = sqrt2.lo, sqrt2.hi  # sqrt(2) to 2**-65
    r = (3 * lo + hi) / 4
    roots = real_roots([2 * r, F(-2), -r, F(1)])  # (x - r)(x^2 - 2)
    (rational,) = [root for root, _ in roots if root.kind == "rational"]
    (root,) = [root for root, _ in roots if root.kind == "interval" and root.lo > 0]
    assert rational.a == r
    assert _cell(root.lo, root.hi) > 40 and not root.lo <= r <= root.hi
    assert root.lo**2 < 2 < root.hi**2


def test_a_cell_shared_past_the_first_width_is_refined():
    # x^7 - 2(1000x - 1)^2: two roots about 5e-14 apart near 1/1000, one near 18.2052
    coeffs = [F(-2), F(4000), F(-2000000), F(0), F(0), F(0), F(0), F(1)]

    def value(x):
        return sum(c * x**k for k, c in enumerate(coeffs))

    roots = [root for root, mult in real_roots(coeffs) if mult == 1 and root.kind == "interval"]
    assert len(roots) == len(real_roots(coeffs)) == 3
    near, nearer, far = roots
    assert _cell(near.lo, near.hi) == _cell(nearer.lo, nearer.hi) == 45 and near.hi <= nearer.lo
    assert near.lo < F(1, 1000) < nearer.hi
    assert _cell(far.lo, far.hi) == 40 and abs(far.approx() - 18.2052) < 1e-4
    for root in roots:
        assert value(root.lo) * value(root.hi) < 0


def test_surd_text_does_not_depend_on_the_scale():
    # x^2 - 1/2 and 2x^2 - 1: the same roots, printed the same way
    half, whole = real_roots([F(-1, 2), 0, 1]), real_roots([-1, 0, 2])
    assert [r.to_json() for r, _ in half] == [r.to_json() for r, _ in whole]
    assert [r.exact_str() for r, _ in half] == ["-1/2*sqrt(2)", "1/2*sqrt(2)"]
    # squares of small primes leave the radicand: x^2 - 12 = (x - 2 sqrt 3)(x + 2 sqrt 3)
    assert [r.exact_str() for r, _ in real_roots([-12, 0, 1])] == ["-2*sqrt(3)", "2*sqrt(3)"]


@settings(max_examples=200)
@given(
    st.lists(st.fractions(-20, 20, max_denominator=12), min_size=1, max_size=3),
    st.fractions(min_value=F(1, 50), max_value=50, max_denominator=50),
    st.integers(min_value=0, max_value=2),
)
def test_roots_are_invariant_under_positive_rescaling(coeffs, scale, shift):
    coeffs = [F(0)] * shift + coeffs
    assume(any(coeffs))
    scaled = [scale * c for c in coeffs]
    expect = [(r.to_json(), m) for r, m in real_roots(coeffs)]
    assert [(r.to_json(), m) for r, m in real_roots(scaled)] == expect


def _sign_is_negative(root):
    """Whether a nonzero root is negative, from its exact form; an interval's cell,
    which holds the root, must lie on one side of 0."""
    if root.kind == "interval":
        assert root.hi <= 0 or root.lo >= 0
        return root.hi <= 0
    a, b = root.a, root.b  # b = 0 for a rational; a + b*sqrt(r) has the sign of the larger square
    return (a if a * a > b * b * root.r else b) < 0


@st.composite
def wide_polynomials(draw):
    """Integer or rational polynomials of degree 1-7, coefficients m * 10**e under a
    common scale 10**E, |E| <= 300, times an optional x**k.  The spread of e is up to
    +-300 on degree <= 2, so roots lie past float range, and +-20 above it; a cubic
    may be squared, so irrational roots come with multiplicity 2."""
    degree, squared = draw(st.integers(1, 7)), draw(st.booleans())
    mantissas = (st.integers(-50, 50).map(F) if draw(st.booleans())
                 else st.fractions(-20, 20, max_denominator=30))
    spread = 300 if degree <= 2 else 20
    scale = F(10) ** draw(st.integers(-300, 300))
    coeffs = [draw(mantissas) * F(10) ** draw(st.integers(-spread, spread)) * scale
              for _ in range(degree + 1)]
    assume(any(coeffs))
    if squared and degree == 3:
        coeffs = [sum(coeffs[i] * coeffs[k - i] for i in range(max(0, k - 3), min(k, 3) + 1))
                  for k in range(7)]
    return [F(0)] * draw(st.integers(0, 3)) + coeffs


@settings(max_examples=300, deadline=None)
@given(wide_polynomials())
# (x^2 + x/10^12 + 1/10^25)^2: the derivative's root -1/(2*10^12) shares a cell with a root
@example([F(1, 10**26), F(1, 5 * 10**12), F(6, 5), F(2 * 10**12), F(10**24), F(0), F(0)])
def test_every_root_carries_its_exact_enclosure(coeffs):
    for root, mult in real_roots(coeffs):
        lo, hi = root.lo, root.hi
        assert lo <= hi
        if root.kind == "rational":
            assert lo == hi == root.a
        else:  # one distinct root in the cell, of multiplicity mult, counted exactly by
            # sympy's Sturm sequences; x**k is divided out, as its root 0 may be lo or hi.
            # (The (mult - 1)-th derivative need not change sign over the cell: a root of
            # it that is no root of coeffs may share the cell.)
            poly = sympy.Poly(coeffs[next(k for k, c in enumerate(coeffs) if c):][::-1], X)
            assert poly.sqf_part().count_roots(lo, hi) == 1
            assert sum(f.count_roots(lo, hi) for f, k in poly.sqf_list()[1] if k == mult) == 1
        try:
            midpoint = float((lo + hi) / 2)
        except OverflowError:
            with pytest.raises(OverflowError):
                root.approx()
        else:
            assert root.approx() == midpoint
        if lo or hi:
            assert (hi <= 0) == _sign_is_negative(root)


@settings(max_examples=300, deadline=None)
@given(wide_polynomials(), st.sampled_from([5e-324, 0.5, 1.0, 1e3, 1e300, math.inf]))
def test_radius_converted_once_reads_as_the_per_call_comparison(coeffs, radius):
    # the enclosure compared with the radius as a Fraction made once per scan reads what a
    # Fraction-float comparison of the enclosure per call reads, and reads no float of the root
    exact = F(radius) if math.isfinite(radius) else radius
    with mock.patch.object(RealRoot, "approx", side_effect=AssertionError("a float was read")):
        for root, _ in real_roots(coeffs):
            assert _within(root, exact) == (root.lo <= radius and -radius <= root.hi)
