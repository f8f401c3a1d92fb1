"""The exact scan for finite equilibria other than the origin, on which the
global-center verdict hinges.  A common factor of (p, q) is divided out and its
curve sampled; the two elimination resultants give candidate coordinates, and a
pair of them is confirmed by interval bounds of p and q over its box (a point
for rational coordinates; an irrational coordinate's box side is its dyadic
cell or surd enclosure from `roots`), computed exactly in integers.  The gcd,
exact quotient and resultants run on integer polynomials with `roots`' kernels.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import reduce

from .poly import Poly2, VectorField
from .roots import _divexact, _gcd as _int_gcd, poly_coeffs_in_x, real_roots

_PROBES = tuple(Fraction(v) for v in (0, 1, -1, Fraction(1, 2), -Fraction(1, 2), 2, -2))


# -- exact algebra in Q[x][y] on integer polynomials, see roots' dense kernels


def _integer(h: Poly2, outer: str = "y") -> tuple[list, int]:
    """(a, d) with a = d * h, a dense polynomial in the outer variable whose
    coefficients are integer polynomials in the other one."""
    d = math.lcm(*(c.denominator for c in h.terms.values()))
    terms = sorted(((j, i) if outer == "y" else (i, j), c) for (i, j), c in h.terms.items())
    a: list = [[] for _ in range(terms[-1][0][0] + 1 if terms else 0)]
    for (o, i), c in terms:
        a[o] += [0] * (i - len(a[o])) + [c.numerator * (d // c.denominator)]
    return a, d


def _poly2(a: list, scale: Fraction = Fraction(1)) -> Poly2:
    return Poly2({(i, j): c * scale for j, row in enumerate(a) for i, c in enumerate(row)})


def _gcd(p: Poly2, q: Poly2) -> Poly2:
    return _poly2(_int_gcd(_integer(p)[0], _integer(q)[0]))


def _exquo(h: Poly2, g: Poly2) -> Poly2:
    """h / g for g dividing h: by Gauss's lemma the primitive integer multiple
    of g divides the integer multiple of h in Z[x, y]."""
    (a, da), (b, db) = _integer(h), _integer(g)
    content = math.gcd(*(c for row in b for c in row))
    return _poly2(_divexact(a, [[c // content for c in row] for row in b]), Fraction(db, da * content))


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


def _resultant(p: Poly2, q: Poly2, eliminate: str) -> list[Fraction]:
    """The resultant eliminating 'x' or 'y', as coefficients in the other, lowest first.

    It is sympy's: the Sylvester determinant of the formal degrees n of p and
    m of q in the eliminated variable, times (-1)**(n*m) when n < m (sympy
    swaps p and q then).  It is taken with the other variable at 2**B
    (Kronecker's substitution), 2**(B-1) above the bound ||p||_1**m *
    ||q||_1**n on its coefficients, and read back as signed base-2**B digits.
    """
    if p.is_zero or q.is_zero:
        return [Fraction(0)]
    (a, da), (b, db) = _integer(p, eliminate), _integer(q, eliminate)
    n, m = len(a) - 1, len(b) - 1
    norm_a, norm_b = (sum(abs(c) for row in h for c in row) for h in (a, b))
    B = (norm_a**m * norm_b**n).bit_length() + 1
    fa, fb = ([sum(c << B * i for i, c in enumerate(row)) for row in reversed(h)] for h in (a, b))
    value = _det([[0] * i + fa + [0] * (m - 1 - i) for i in range(m)]
                 + [[0] * i + fb + [0] * (n - 1 - i) for i in range(n)])
    out, scale = [], Fraction((-1) ** (n * m) if n < m else 1, da**m * db**n)
    while value:
        digit = (value + (1 << B - 1)) % (1 << B) - (1 << B - 1)
        out.append(digit * scale)
        value = (value - digit) >> B
    return out or [Fraction(0)]


def _gap_probes(g: Poly2):
    """One rational x in each gap between the real roots of Res_y(g, dg/dy), g
    made square-free, and one beyond each end.  Above a gap the curve g = 0
    has no vertical tangent and no singular point, so it meets every vertical
    line of a gap it has a point above."""
    g = _exquo(g, _gcd(g, g.partial("y")))
    res = _resultant(g, g.partial("y"), "y")
    bounds = [r.bounds() for r, _ in real_roots(res)] if len(res) > 1 else []
    yield from [lo - 1 for lo, _ in bounds[:1]]
    yield from [(hi + lo) / 2 for (_, hi), (lo, _) in zip(bounds, bounds[1:])]
    yield from [hi + 1 for _, hi in bounds[-1:]]


def _curve_points(g: Poly2, radius: float) -> list[tuple[float, float]]:
    """Points of the curve g = 0 within the radius, the origin left out.

    A vertical line in the curve, x = c for a real root c of g's content in y,
    gives (c, 0), or (0, 1) when c = 0; the rest of the curve gives the first
    point found on the probe lines x = 0, ±1, ±1/2, ±2 or, when none of them
    meets it, on the lines of `_gap_probes`.
    """
    content = reduce(_int_gcd, _integer(g)[0])  # in x, of g's coefficients in y
    lines = [r.approx() for r, _ in real_roots(content)]
    points = [(c, 0.0) if c else (0.0, 1.0) for c in lines]
    for x0 in itertools.chain(_PROBES, _gap_probes(g)):
        coeffs = poly_coeffs_in_x(g.swap_vars(), x0)  # g(x0, y), in y
        on_line = [(float(x0), r.approx()) for r, _ in real_roots(coeffs)] if any(coeffs[1:]) else []
        on_line = [pt for pt in on_line if 0 < math.hypot(*pt) <= radius]
        if on_line:
            points.append(on_line[0])
            break
    return [pt for pt in points if math.hypot(*pt) <= radius]


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
    (p, q); each candidate pair is confirmed by bounding p and q over the
    (<= 1e-12 wide) box of its coordinates' `bounds()` in exact integer
    interval arithmetic, which for a rational pair is exact evaluation at
    the point.  A common factor of the two components (a curve of
    equilibria) is divided out and witnessed by sample points on the curve.
    radius may be math.inf.
    """
    p, q = vf.p, vf.q
    found: list[tuple[float, float]] = []
    rx, ry = _resultant(p, q, "y"), _resultant(p, q, "x")
    if not any(rx) or not any(ry):  # a common factor of positive degree in x or in y
        g = _gcd(p, q)
        found = _curve_points(g, radius)
        p, q = _exquo(p, g), _exquo(q, g)
        rx, ry = _resultant(p, q, "y"), _resultant(p, q, "x")
    if len(rx) == 1 or len(ry) == 1 or not any(rx) or not any(ry):
        return sorted(set(found))
    xs = [r for r, _ in real_roots(rx) if abs(r.approx()) <= radius]
    ys = [r for r, _ in real_roots(ry) if abs(r.approx()) <= radius]
    degree = max(p.degree, q.degree)
    polys = (_integer(p)[0], _integer(q)[0])
    y_powers = [_power_bounds(r.bounds(), degree) for r in ys]
    for rx_root in xs:
        xp = _power_bounds(rx_root.bounds(), degree)
        for ry_root, yp in zip(ys, y_powers):
            if all(_box_holds_zero(a, xp, yp) for a in polys):
                found.append((rx_root.approx(), ry_root.approx()))
    deduped: list[tuple[float, float]] = []
    for pt in sorted(pt for pt in found if 0 < math.hypot(*pt) <= radius):
        if all(math.hypot(pt[0] - o[0], pt[1] - o[1]) >= 1e-9 for o in deduped):
            deduped.append(pt)
    return deduped
