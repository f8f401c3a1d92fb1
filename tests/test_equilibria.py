"""The exact finite-equilibrium scan: its curve witnesses, its integer kernels
and its integer box check, which must decide every candidate pair exactly as
rational interval bounds do.  sympy's expression layer is the oracle here only."""

import math
import warnings
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
import sympy
from hypothesis import assume, given, settings

from discflow import finite_equilibria as exported
from discflow.equilibria import (
    _box_holds_zero,
    _integer,
    _power_bounds,
    _resultant,
    finite_equilibria,
)
from discflow.family import FamilyParams, build_system, global_cases
from discflow.flow import finite_equilibria as from_flow
from discflow.flow import global_center_verdict
from discflow.poly import Poly2, VectorField, X, Y
from discflow.roots import RealRoot, _divexact, _gcd, _mul, real_roots

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def test_one_scan_behind_every_name():
    assert exported is finite_equilibria and from_flow is finite_equilibria


# -- curves of equilibria ---------------------------------------------------------


@pytest.mark.parametrize(
    "kw, line",
    [
        # p = y(1 - 4x^2), q = x(4x^2 - 1): the lines x = +/-1/2 are equilibria
        (dict(b1=1, c1=2, d1=1), 0.5),
        (dict(b1=F(1, 36), c1=F(1, 18), d1=F(1, 36)), 3.0),
    ],
)
def test_vertical_lines_of_equilibria_refute_globality(kw, line):
    params = FamilyParams.make(**kw)
    vf = build_system(params)
    assert not global_cases(params).is_global
    assert finite_equilibria(vf, math.inf) == [(-line, 0.0), (line, 0.0)]
    verdict = global_center_verdict(params, sample_radii=(0.5,), angles=2)
    assert verdict.tag == "not-global"
    assert verdict.extra_equilibria == ((-line, 0.0), (line, 0.0))
    assert all(vf.is_equilibrium((F(px), F(py))) for px, py in verdict.extra_equilibria)


def test_vertical_line_through_the_origin():
    # the common factor x: the line x = 0 is witnessed off the origin
    vf = VectorField(X * Y, X * (X - 1))
    pts = finite_equilibria(vf)
    assert any(px == 0.0 and py != 0.0 for px, py in pts)
    assert (1.0, 0.0) in pts
    assert all(vf.is_equilibrium((F(px), F(py))) for px, py in pts)


def test_the_line_through_the_origin_within_a_small_radius():
    # x = 0 is a line of equilibria: below radius 1 it is witnessed at (0, radius), never at the origin
    vf = VectorField(X * (Y + 2), X * (X - Y + 3))
    assert finite_equilibria(vf, 0.5) == [(0.0, 0.5)]
    assert finite_equilibria(vf, 0.0) == []
    assert finite_equilibria(vf, 1e3) == finite_equilibria(vf, math.inf) == [(-5.0, -2.0), (0.0, 1.0)]


def test_curve_through_the_origin_is_witnessed_elsewhere():
    # the parabola y = x^2 of equilibria passes through the origin
    g = Y - X * X
    pts = finite_equilibria(VectorField(g * (X + 2), g * (Y + 3)))
    assert pts and all(math.hypot(*pt) > 0 for pt in pts)
    assert any(abs(py - px * px) < 1e-12 for px, py in pts)


def test_a_curve_missing_every_fixed_probe_is_found():
    # the circle of radius 1/2 around (3, 3) meets none of x = 0, ±1/2, ±1, ±2
    g = (X - 3) * (X - 3) + (Y - 3) * (Y - 3) - F(1, 4)
    pts = finite_equilibria(VectorField(g * Y, -g * X))
    assert pts and all(abs(g.evaluate(F(px), F(py))) < 1e-9 for px, py in pts)
    # the same circle squared: the probes run on its square-free part
    assert finite_equilibria(VectorField(g * g * Y, -g * X)) == pts


@pytest.mark.parametrize(
    "vf, want",
    [
        (VectorField(Poly2(), X * Y - 1), [(1.0, 1.0)]),
        (VectorField(X - 1, Poly2()), [(1.0, 0.0)]),
        (VectorField(X * (X - 2) * (Y - 1), Poly2()), [(0.0, 1.0), (1.0, 1.0), (2.0, 0.0)]),
    ],
)
def test_a_zero_component_is_a_common_factor(vf, want):
    # both resultants vanish, so the other component's curve is witnessed,
    # and its points come back sorted like every other result of the scan
    assert finite_equilibria(vf, math.inf) == want


_CIRCLE = (X - 3) * (X - 3) + (Y - 3) * (Y - 3) - F(1, 4)
CURVE_FIELDS = [
    VectorField(_CIRCLE * Y, -_CIRCLE * X),
    build_system(FamilyParams.make(b1=1, c1=2, d1=1)),  # the vertical lines x = +/-1/2
    VectorField(X * Y, X * (X - 1)),  # the vertical line x = 0
    VectorField((Y - X * X) * (X + 2), (Y - X * X) * (Y + 3)),
    VectorField(Poly2(), X * Y - 1),
    VectorField(X * (X - 2) * (Y - 1), Poly2()),
]
family_fields = st.builds(
    lambda values: build_system(FamilyParams.make(**values)),
    st.fixed_dictionaries({name: st.fractions(min_value=-3, max_value=3, max_denominator=3)
                           for name in ("a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2")}))
scales = st.builds(lambda sign, n, d: sign * F(n, d), st.sampled_from([1, -1]),
                   st.integers(1, 10**30), st.integers(1, 10**20))


@settings(max_examples=60)
@given(st.one_of(st.sampled_from(CURVE_FIELDS), family_fields), scales, scales)
def test_the_scan_does_not_depend_on_the_scale_of_p_and_q(vf, lam, mu):
    # p and q are scaled to integer polynomials once; no step may read that scale
    scaled = VectorField(vf.p * Poly2.const(lam), vf.q * Poly2.const(mu))
    for radius in (math.inf, 1e3):
        assert finite_equilibria(scaled, radius) == finite_equilibria(vf, radius)


def _degree(a):
    """Total degree of an integer form from `_integer`; -1 for zero."""
    return max((j + len(row) - 1 for j, row in enumerate(a) if row), default=-1)


def test_resultant_sign_when_the_degrees_differ():
    # degrees 1 and 3 in y: sympy's sign is (-1)**3 times the Sylvester determinant's
    p, q = _integer(2 * X * Y - 1), _integer(Y * Y * Y - X)
    want = [-1, 0, 0, 0, 8]  # 8x^4 - 1 in either order
    assert _resultant(p, q, "y") == want and _resultant(q, p, "y") == want
    p, q = _integer(Y - 1), _integer(Y * Y * Y - 2)
    assert _resultant(p, q, "y") == [1] == _resultant(q, p, "y")


def test_gcd_and_exact_division():
    g = (X - Y * Y) * (2 * X + 1)
    p, q = _integer(g * (Y + 2)), _integer(g * (X * Y - F(3, 5)))
    common = _gcd(p, q)  # g or -g
    assert _degree(common) == 3 and _divexact(_integer(g), common) in ([[1]], [[-1]])
    assert _mul(_divexact(p, common), common) == p and _mul(_divexact(q, common), common) == q
    with pytest.raises(ArithmeticError):
        _divexact(p, _integer(X + 7))


# -- the exact kernels against sympy's expression layer ------------------------------


def _expr_route_roots(coeffs):
    """Real roots the way sympy finds them from an expression: a linear factor
    gives a rational root, and Poly.refine_root narrows every root of another
    irreducible factor until one cell [k, k + 1] / 2**40 holds it."""
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x**k for k, c in enumerate(coeffs))
    out = []
    for factor, mult in sympy.factor_list(expr)[1]:
        factor = sympy.Poly(factor, x)
        if factor.degree() == 1:
            b, a = factor.all_coeffs()
            root = -a / b
            out.append((RealRoot.rational(F(int(root.p), int(root.q))), mult))
            continue
        for (lo, hi), _ in factor.intervals():
            while sympy.floor(lo * 2**40) != sympy.ceiling(hi * 2**40) - 1:
                lo, hi = factor.refine_root(lo, hi, eps=(hi - lo) / 2)
            k = int(sympy.floor(lo * 2**40))
            out.append((RealRoot.interval(F(k, 2**40), F(k + 1, 2**40)), mult))
    return out


def _times(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


@st.composite
def univariate(draw):
    """Degree 3 to 9, nonzero at 0, often with a repeated factor."""
    factor = draw(st.lists(rationals, min_size=2, max_size=3))
    rest = draw(st.lists(rationals, min_size=1, max_size=5))
    coeffs = _times(_times(factor, factor) if draw(st.booleans()) else factor, rest)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    assume(4 <= len(coeffs) <= 10 and coeffs[0] != 0)
    return coeffs


@settings(max_examples=150)
@given(univariate())
def test_real_roots_match_the_expression_route(coeffs):
    assert real_roots(coeffs) == sorted(_expr_route_roots(coeffs), key=lambda r: r[0].approx())


@settings(max_examples=60)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), rationals, max_size=6),
       st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), rationals, max_size=6))
def test_resultants_match_the_expression_route(p_terms, q_terms):
    p, q = Poly2(p_terms), Poly2(q_terms)
    assume(not p.is_zero and not q.is_zero)
    p, q = _integer(p), _integer(q)
    x, y = sympy.symbols("x y")

    def expr(a):
        return sympy.Add(*[c * x**i * y**j for j, row in enumerate(a) for i, c in enumerate(row)])

    for eliminate, keep in ((y, x), (x, y)):
        want = sympy.Poly(sympy.resultant(expr(p), expr(q), eliminate), keep).all_coeffs()
        assert _resultant(p, q, str(eliminate)) == [int(c) for c in reversed(want)]


@settings(max_examples=80)
@given(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), rationals, min_size=1, max_size=4),
       st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), rationals, min_size=1, max_size=4),
       st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), rationals, min_size=1, max_size=3))
def test_a_common_factor_is_a_vanishing_resultant(p_terms, q_terms, g_terms):
    # the scan computes the gcd only when a resultant vanishes
    g = Poly2(g_terms)
    p, q = Poly2(p_terms) * g, Poly2(q_terms) * g
    assume(not p.is_zero and not q.is_zero)
    p, q = _integer(p), _integer(q)
    vanishing = not any(_resultant(p, q, "x")) or not any(_resultant(p, q, "y"))
    assert vanishing == (_degree(_gcd(p, q)) >= 1)


# -- the integer box check -----------------------------------------------------------


def _holds_zero(p, bx, by, degree=3):
    return _box_holds_zero(_integer(p), _power_bounds(bx, degree), _power_bounds(by, degree))


def _pow_range(lo, hi, k):
    if k == 0:
        return F(1), F(1)
    a, b = lo**k, hi**k
    if k % 2 == 1:
        return a, b
    if lo <= 0 <= hi:
        return F(0), max(a, b)
    return min(a, b), max(a, b)


def _poly_box_range(p, bx, by):
    """The exact monomial-wise bounds over Fractions, as the scan once computed them."""
    total_lo = F(0)
    total_hi = F(0)
    for (i, j), c in p.terms.items():
        xlo, xhi = _pow_range(bx[0], bx[1], i)
        ylo, yhi = _pow_range(by[0], by[1], j)
        products = (xlo * ylo, xlo * yhi, xhi * ylo, xhi * yhi)
        total_lo += c * (min(products) if c > 0 else max(products))
        total_hi += c * (max(products) if c > 0 else min(products))
    return total_lo, total_hi


@st.composite
def intervals(draw):
    """A rational interval: 1e-12 wide around a real root, at a huge or tiny
    magnitude, straddling 0, or a single point."""
    kind = draw(st.sampled_from(["root", "magnitude", "straddle", "point"]))
    if kind == "root":
        coeffs = draw(st.lists(rationals, min_size=4, max_size=7))
        assume(any(coeffs[1:]))
        roots = real_roots(coeffs)
        assume(roots)
        root = draw(st.sampled_from(roots))[0]
        return (root.lo, root.hi)
    if kind == "straddle":
        return (-draw(st.fractions(F(1, 10**6), 5)), draw(st.fractions(F(1, 10**6), 5)))
    centre = draw(rationals.filter(bool))
    if kind == "magnitude":
        centre *= F(10) ** draw(st.sampled_from([-320, -200, -40, 40, 100, 150, 200, 320]))
    width = abs(centre) * F(1, 10**12) if kind == "magnitude" else F(0)
    return (centre - width, centre + width)


@settings(max_examples=400)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), rationals, min_size=1, max_size=8),
       intervals(), intervals(), st.booleans())
def test_integer_box_check_matches_the_exact_bounds(terms, bx, by, through_corner):
    p = Poly2({k: c for k, c in terms.items() if sum(k) <= 3})
    if through_corner:  # make p vanish exactly at a corner of the box
        p = p - Poly2.const(p.evaluate(bx[0], by[0]))
    assume(not p.is_zero)
    lo, hi = _poly_box_range(p, bx, by)
    assert _holds_zero(p, bx, by) == (lo <= 0 <= hi)


def test_box_check_rejects_a_plain_miss_and_keeps_a_hit():
    p = X * X - 2  # no zero near x = 1, a zero at sqrt(2)
    root = real_roots([F(-2), F(0), F(1)])[1][0]
    box = (root.lo, root.hi)
    one = (F(1), F(1))
    assert not _holds_zero(p, one, one, 2)
    assert _holds_zero(p, box, one, 2)


def test_huge_magnitudes_decide_exactly():
    # 1e300 * x^3 at x = 1e5 is 1e315, far from 0, and is rejected
    origin = (F(0), F(0))
    assert not _holds_zero(Poly2({(3, 0): F(10) ** 300}), (F(10) ** 5, F(10) ** 5), origin)
    # a 1e400 box: x + 1 has no zero there, x - (1e400 + 1/2) has one
    huge = (F(10) ** 400, F(10) ** 400 + 1)
    assert not _holds_zero(X + 1, huge, origin)
    assert _holds_zero(X - (F(10) ** 400 + F(1, 2)), huge, origin)
    assert not _holds_zero(X * X * X - F(10) ** 1200 * 2, huge, origin)
    assert _holds_zero(X * X * X - (F(10) ** 400 + F(1, 3)) ** 3, huge, origin)


# -- candidate pairs that mix the kinds of root --------------------------------------


def _roots(p, q, eliminate):
    return [r for r, _ in real_roots(_resultant(_integer(p), _integer(q), eliminate))]


def _next_cell(root):
    return (root.hi, 2 * root.hi - root.lo)


def test_an_interval_x_paired_with_a_rational_y():
    # equilibria (1, 3) and (2**(1/3), 1); the pairs (2**(1/3), 3) and (1, 1) are not
    p, q = (X * X * X - 2) * (X - 1), Y - 5 + 2 * X * X * X
    xs, ys = _roots(p, q, "y"), _roots(p, q, "x")
    assert [r.kind for r in xs] == ["rational", "interval"] and [r.kind for r in ys] == ["rational"] * 2
    assert finite_equilibria(VectorField(p, q), math.inf) == [(1.0, 3.0), (xs[1].approx(), 1.0)]
    # the cell beside the cube root's, at y = 1, holds no zero of q
    assert _holds_zero(q, (xs[1].lo, xs[1].hi), (ys[0].lo, ys[0].hi))
    assert not _holds_zero(q, _next_cell(xs[1]), (ys[0].lo, ys[0].hi))


def test_a_surd_x_paired_with_a_cell_y():
    # equilibria (0, 1) and (±sqrt(2), 1 ± sqrt(2)): x from a quadratic, y from a cubic
    p, q = X * (X * X - 2), Y - X - 1
    xs, ys = _roots(p, q, "y"), _roots(p, q, "x")
    assert [r.kind for r in xs] == ["surd", "rational", "surd"]
    assert [r.kind for r in ys] == ["interval", "rational", "interval"]
    got = finite_equilibria(VectorField(p, q), math.inf)
    assert got == [(xs[0].approx(), ys[0].approx()), (0.0, 1.0), (xs[2].approx(), ys[2].approx())]
    # (sqrt(2), 1 - sqrt(2)) is a candidate and no equilibrium; neither is the cell beside 1 + sqrt(2)
    assert not _holds_zero(q, (xs[2].lo, xs[2].hi), (ys[0].lo, ys[0].hi))
    assert _holds_zero(q, (xs[2].lo, xs[2].hi), (ys[2].lo, ys[2].hi))
    assert not _holds_zero(q, (xs[2].lo, xs[2].hi), _next_cell(ys[2]))


# -- the scan and the verdict --------------------------------------------------------


_FAR_LINES = 1 - F(1, 10**700) * X * X  # the lines x = +-10**350
_FAR_CIRCLE = (X - 10**400) ** 2 + Y * Y - 1  # the unit circle around (10**400, 0)
FAR_FIELDS = [
    build_system(FamilyParams.make(d1=F(1, 10**700))),  # the equilibria (+-10**350, 0)
    VectorField(Y * _FAR_LINES, -X * _FAR_LINES * (1 + X * X)),
    VectorField(_FAR_CIRCLE * Y, -_FAR_CIRCLE * X),  # its probe lines lie past float range
]


@pytest.mark.parametrize("vf", FAR_FIELDS)
def test_roots_past_float_range_lie_outside_a_finite_radius(vf):
    # the enclosures place every root past the radius before any float is read
    assert finite_equilibria(vf, 1e3) == []
    with pytest.raises(OverflowError):  # with no radius the points must be read as floats
        finite_equilibria(vf, math.inf)


def test_a_root_past_float_range_of_no_real_equilibrium_reads_no_float():
    # Res_y = (x - 10**400)**2 has a root past float range, but y**2 + 1 > 0: no equilibrium
    assert finite_equilibria(VectorField(Y * Y + 1, X - 10**400), math.inf) == []


def test_the_verdict_names_an_equilibrium_past_float_range():
    with pytest.raises(ValueError, match="an extra finite equilibrium lies beyond float range"):
        global_center_verdict(FamilyParams.make(d1=F(1, 10**700)), sample_radii=(0.5,), angles=2)


@settings(max_examples=40)
@given(st.fixed_dictionaries(
    {name: st.fractions(min_value=-3, max_value=3, max_denominator=3)
     for name in ("a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2")}))
def test_an_extra_equilibrium_is_never_consistent(values):
    params = FamilyParams.make(**values)
    extra = finite_equilibria(build_system(params), math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        verdict = global_center_verdict(params, sample_radii=(0.5,), angles=2)
    assert verdict.extra_equilibria == tuple(extra)
    if extra:
        assert verdict.tag != "global-center-consistent"
