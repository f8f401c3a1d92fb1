"""The exact scan for finite equilibria other than the origin, on which the
global-center verdict hinges.  A common factor of (p, q) is divided out and its
curve sampled; the two elimination resultants give candidate coordinates, and a
pair of them is confirmed by interval bounds of p and q over its box (a point
for rational coordinates; an irrational coordinate's box side is its dyadic
cell or surd enclosure from `roots`), computed exactly in integers.  p and q
are scaled to integer polynomials once, at the start, and the gcd, exact
quotients, resultants, curve probes and box check all run on those forms with
`roots`' kernels; no step depends on their scale.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import reduce

from .poly import Poly2, VectorField
from .roots import RealRoot, _divexact, _gcd, real_roots

_PROBES = tuple(Fraction(v) for v in (0, 1, -1, Fraction(1, 2), -Fraction(1, 2), 2, -2))


# -- exact algebra in Z[x][y] on integer polynomials, see roots' dense kernels


def _integer(h: Poly2) -> list:
    """The integer multiple of h by the lcm of its coefficients' denominators,
    dense in y, each coefficient a dense integer polynomial in x."""
    d = math.lcm(*(c.denominator for c in h.terms.values()))
    a: list = [[] for _ in range(max((j + 1 for _, j in h.terms), default=0))]
    for (i, j), c in sorted(h.terms.items()):
        a[j] += [0] * (i - len(a[j])) + [c.numerator * (d // c.denominator)]
    return a


def _det(m: list[list[int]]) -> int:
    """Determinant of an integer matrix, by Bareiss' fraction-free elimination."""
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return 0
        m[k], m[pivot], sign = m[pivot], m[k], sign if pivot == k else -sign
        for i in range(k + 1, len(m)):
            m[i] = [0] * (k + 1) + [(m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                                    for j in range(k + 1, len(m))]
        prev = m[k][k]
    return sign * m[-1][-1] if m else 1


def _resultant(a: list, b: list, eliminate: str) -> list[int]:
    """The resultant of the integer forms a and b (from `_integer`) eliminating
    'x' or 'y', as integer coefficients in the other variable, lowest first.

    It is sympy's: the Sylvester determinant of the formal degrees n of a and
    m of b in the eliminated variable, times (-1)**(n*m) when n < m (sympy
    swaps a and b then).  It is taken with the other variable at 2**B
    (Kronecker's substitution), 2**(B-1) above the bound ||a||_1**m *
    ||b||_1**n on its coefficients, and read back as signed base-2**B digits.
    """
    if not (a and b):
        return [0]
    if eliminate == "x":
        a, b = (list(itertools.zip_longest(*h, fillvalue=0)) for h in (a, b))
    n, m = len(a) - 1, len(b) - 1
    norm_a, norm_b = (sum(abs(c) for row in h for c in row) for h in (a, b))
    B = (norm_a**m * norm_b**n).bit_length() + 1
    fa, fb = ([sum(c << B * i for i, c in enumerate(row)) for row in reversed(h)] for h in (a, b))
    value = _det([[0] * i + fa + [0] * (m - 1 - i) for i in range(m)]
                 + [[0] * i + fb + [0] * (n - 1 - i) for i in range(n)])
    out, sign = [], (-1) ** (n * m) if n < m else 1
    while value:
        digit = (value + (1 << B - 1)) % (1 << B) - (1 << B - 1)
        out.append(sign * digit)
        value = (value - digit) >> B
    return out or [0]


def _partial_y(g: list) -> list:
    return [[j * c for c in row] for j, row in enumerate(g)][1:]


def _gap_probes(g: list):
    """One rational x in each gap between the real roots of Res_y(g, dg/dy), g
    made square-free, and one beyond each end.  Above a gap the curve g = 0
    has no vertical tangent and no singular point, so it meets every vertical
    line of a gap it has a point above."""
    g = _divexact(g, _gcd(g, _partial_y(g)))
    res = _resultant(g, _partial_y(g), "y")
    roots = [r for r, _ in real_roots(res)] if len(res) > 1 else []
    yield from [r.lo - 1 for r in roots[:1]]
    yield from [(r.hi + s.lo) / 2 for r, s in zip(roots, roots[1:])]
    yield from [r.hi + 1 for r in roots[-1:]]


def _within(root: RealRoot, exact: Fraction | float) -> bool:
    """Whether root's enclosure meets [-exact, exact], exact the radius as a Fraction
    or inf; no float is read."""
    return root.lo <= exact and -exact <= root.hi


def _curve_points(g: list, radius: float, exact: Fraction | float) -> list[tuple[float, float]]:
    """Points of the curve g = 0 (g an integer form); the scan keeps those within the radius.

    A vertical line in the curve, x = c for a real root c of g's content in y,
    gives (c, 0), or (0, min(1, radius)) when c = 0; the rest of the curve gives
    the first non-origin point within the radius on the probe lines x = 0, ±1,
    ±1/2, ±2 or, when none of them meets it, on the lines of `_gap_probes`.
    """
    content = reduce(_gcd, g)  # g's content in y
    lines = [r.approx() for r, _ in real_roots(content) if _within(r, exact)]
    points = [(c, 0.0) if c else (0.0, min(1.0, radius)) for c in lines]
    for x0 in itertools.chain(_PROBES, _gap_probes(g)):
        coeffs = [sum(c * x0**i for i, c in enumerate(row)) for row in g]  # g(x0, y), in y
        roots = real_roots(coeffs) if any(coeffs[1:]) and abs(x0) <= radius else []
        on_line = [(float(x0), r.approx()) for r, _ in roots if _within(r, exact)]
        on_line = [pt for pt in on_line if 0 < math.hypot(*pt) <= radius]
        if on_line:
            return points + on_line[:1]
    return points


# Monomial-wise bounds of a polynomial over a box, in integers: p is scaled by
# the lcm of its coefficients' denominators (`_integer`) and x**k's bounds over
# den**k by den**(degree - k), so every bound is a positive integer multiple of
# the exact rational one and has the same sign.


def _power_bounds(bounds: tuple[Fraction, Fraction], degree: int) -> list[tuple[int, int]]:
    """Integer (lo_k, hi_k), k = 0..degree: x**k * den**degree lies in [lo_k, hi_k]
    for x in bounds = (lo, hi), den their common denominator."""
    lo, hi = bounds
    den = math.lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
    out = [(den**degree, den**degree)]
    for k in range(1, degree + 1):
        u, v, scale = a**k, b**k, den ** (degree - k)
        if k % 2:
            out.append((u * scale, v * scale))
        else:
            out.append((0 if a <= 0 <= b else min(u, v) * scale, max(u, v) * scale))
    return out


def _box_holds_zero(a: list, xp: list, yp: list) -> bool:
    """Whether the monomial-wise bounds of the integer polynomial a (from
    `_integer`) over the box whose powers `_power_bounds` gives as xp and yp
    hold 0."""
    lo = hi = 0
    for j, row in enumerate(a):
        yl, yh = yp[j]
        for i, c in enumerate(row):
            xl, xh = xp[i]
            ps = (c * xl * yl, c * xl * yh, c * xh * yl, c * xh * yh)
            lo, hi = lo + min(ps), hi + max(ps)
    return lo <= 0 <= hi


def finite_equilibria(vf: VectorField, radius: float = 1e3) -> list[tuple[float, float]]:
    """All real non-origin equilibria with |(x, y)| <= radius, found exactly.

    Candidate coordinates come from the two elimination resultants of
    (p, q), kept by their exact enclosures [lo, hi]; each candidate pair is
    confirmed by bounding p and q over the (<= 1e-12 wide) box of those
    enclosures in exact integer interval arithmetic, which for a rational
    pair is exact evaluation at the point.  A float is read only for a point
    the scan returns.  A common factor of the two components (a curve of
    equilibria) is divided out and witnessed by sample points on the curve.
    radius may be math.inf.
    """
    p, q = _integer(vf.p), _integer(vf.q)
    exact = Fraction(radius) if math.isfinite(radius) else radius  # read by `_within`
    found: list[tuple[float, float]] = []
    rx, ry = _resultant(p, q, "y"), _resultant(p, q, "x")
    if not any(rx) or not any(ry):  # a common factor of positive degree in x or in y
        g = _gcd(p, q)
        found = _curve_points(g, radius, exact)
        p, q = _divexact(p, g), _divexact(q, g)
        rx, ry = _resultant(p, q, "y"), _resultant(p, q, "x")
    # a resultant is still 0 only where p or q is the zero polynomial
    xs, ys = ([r for r, _ in real_roots(h) if _within(r, exact)] if any(h) else [] for h in (rx, ry))
    x_degree, y_degree = max(len(row) for h in (p, q) for row in h) - 1, max(len(p), len(q)) - 1
    y_powers = [_power_bounds((r.lo, r.hi), y_degree) for r in ys]
    for rx_root in xs:
        xp = _power_bounds((rx_root.lo, rx_root.hi), x_degree)
        for ry_root, yp in zip(ys, y_powers):
            if all(_box_holds_zero(a, xp, yp) for a in (p, q)):
                found.append((rx_root.approx(), ry_root.approx()))
    deduped: list[tuple[float, float]] = []
    for pt in sorted(pt for pt in found if 0 < math.hypot(*pt) <= radius):
        if all(math.hypot(pt[0] - o[0], pt[1] - o[1]) >= 1e-9 for o in deduped):
            deduped.append(pt)
    return deduped
