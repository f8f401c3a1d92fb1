from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from discflow.roots import RealRoot, quadratic_roots, real_roots


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
        lo, hi = r.bounds()
        assert float(lo) <= r.approx() <= float(hi)


def test_no_real_roots():
    assert real_roots([F(1), F(0), F(1)]) == []


def test_monomial_factor_gives_zero_root():
    # u^2 * (u - 3)
    roots = real_roots([F(0), F(0), F(-3), F(1)])
    assert [(r.a, m) for r, m in roots] == [(F(0), 2), (F(3), 1)]


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


def test_quadratic_roots_linear_and_empty():
    assert quadratic_roots(0, 2, -4)[0][0].a == 2
    assert quadratic_roots(0, 0, 5) == []
    with pytest.raises(ValueError):
        quadratic_roots(0, 0, 0)


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


def test_roots_sharing_a_cell_get_finer_cells():
    # x^2 - 2 and x^2 - (2 + 2**-45): two irrational roots 2**-46.5 apart
    eps = F(1, 2**45)
    coeffs = [F(2) * (2 + eps), F(0), -(4 + eps), F(0), F(1)]
    positive = [r for r, _ in real_roots(coeffs) if r.approx() > 0]
    assert len(positive) == 2 and positive[0].hi <= positive[1].lo
    for root, square in zip(positive, (2, 2 + eps)):
        assert _cell(root.lo, root.hi) > 40
        assert root.lo**2 < square < root.hi**2
    # a rational root 2**-60 from sqrt(2), inside its 2**-40 cell, pushes that cell finer
    lo, hi = real_roots([F(-2), F(0), F(1)])[1][0].bounds()  # sqrt(2) to 2e-18
    r = (3 * lo + hi) / 4
    roots = real_roots([2 * r, F(-2), -r, F(1)])  # (x - r)(x^2 - 2)
    (rational,) = [root for root, _ in roots if root.kind == "rational"]
    (root,) = [root for root, _ in roots if root.kind == "interval" and root.lo > 0]
    assert rational.a == r
    assert _cell(root.lo, root.hi) > 40 and not root.lo <= r <= root.hi
    assert root.lo**2 < 2 < root.hi**2


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
