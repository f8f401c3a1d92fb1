"""The exact scan for finite equilibria other than the origin, on which the
global-center verdict hinges.  A common factor of (p, q) is divided out and its
curve sampled; the two elimination resultants give candidate coordinates, and a
pair of them is confirmed by exact evaluation or exact interval bounds over its
box, unless a float enclosure of those bounds already excludes 0.  sympy is
reached through the bridge in `roots`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

from .poly import Poly2, VectorField
from .roots import from_sympy, poly_coeffs_in_x, real_roots, to_sympy

_PROBES = tuple(Fraction(v) for v in (0, 1, -1, Fraction(1, 2), -Fraction(1, 2), 2, -2))


def _gcd(p: Poly2, q: Poly2) -> Poly2:
    return Poly2(from_sympy(to_sympy(p.terms).gcd(to_sympy(q.terms))))


def _resultant(p: Poly2, q: Poly2, eliminate: str) -> list[Fraction]:
    """The resultant eliminating 'x' or 'y', as coefficients in the other, lowest first."""
    swap = eliminate == "y"
    return from_sympy(to_sympy(p.terms, swap).resultant(to_sympy(q.terms, swap)))


def _curve_points(g: Poly2, radius: float) -> list[tuple[float, float]]:
    """Points of the curve g = 0 within the radius, the origin left out.

    A vertical line in the curve, x = c for a real root c of g's content in y,
    gives (c, 0), or (0, 1) when c = 0; the rest of the curve gives the first
    point found on the probe lines x = 0, ±1, ±1/2, ±2.
    """
    rows: dict[int, dict] = {}
    for (i, j), c in g.terms.items():
        rows.setdefault(j, {})[(i, 0)] = c
    content = reduce(_gcd, map(Poly2, rows.values()))
    lines = [r.approx() for r, _ in real_roots(poly_coeffs_in_x(content))]
    points = [(c, 0.0) if c else (0.0, 1.0) for c in lines]
    for x0 in _PROBES:
        coeffs = poly_coeffs_in_x(g.swap_vars(), x0)  # g(x0, y), in y
        on_line = [(float(x0), r.approx()) for r, _ in real_roots(coeffs)] if any(coeffs[1:]) else []
        on_line = [pt for pt in on_line if 0 < math.hypot(*pt) <= radius]
        if on_line:
            points.append(on_line[0])
            break
    return [pt for pt in points if math.hypot(*pt) <= radius]


# Monomial-wise bounds of a polynomial over a box, in interval arithmetic: exact
# on Fractions, or with outward=True enclosing the exact bounds in floats, where
# every input is correctly rounded and every operation rounded outward by one
# ulp.  A float overflow raises OverflowError and decides nothing.


def _round_out(lo: float, hi: float) -> tuple[float, float]:
    lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    if math.isinf(lo) or math.isinf(hi):
        raise OverflowError("float enclosure overflows")
    return lo, hi


def _mul(a: tuple, b: tuple, outward: bool) -> tuple:
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])  # finite, so never nan
    return _round_out(min(ps), max(ps)) if outward else (min(ps), max(ps))


def _powers(bounds, degree: int, outward: bool = False) -> list[tuple] | None:
    """Bounds of x**k over x in bounds = (lo, hi), for k = 0..degree; None on overflow."""
    try:
        lo, hi = (_round_out(float(v), float(v)) if outward else (v, v) for v in bounds)
        a = b = (1, 1)
        out = [a]
        for k in range(1, degree + 1):
            a, b = _mul(a, lo, outward), _mul(b, hi, outward)
            both = (min(a[0], b[0]), max(a[1], b[1]))
            out.append((a[0], b[1]) if k % 2 else (0, both[1]) if lo[0] <= 0 <= hi[1] else both)
        return out
    except OverflowError:  # only floats overflow
        return None


def _box_range(p: Poly2, xp: list, yp: list, outward: bool = False) -> tuple:
    """Bounds of p over the box whose coordinates' powers _powers bounds by xp and yp."""
    lo = hi = 0
    for (i, j), c in p.terms.items():
        c = _round_out(float(c), float(c)) if outward else (c, c)
        m = _mul(_mul(xp[i], yp[j], outward), c, outward)
        lo, hi = _round_out(lo + m[0], hi + m[1]) if outward else (lo + m[0], hi + m[1])
    return lo, hi


def _float_rejects(polys, xp, yp) -> bool:
    """True when floats show that one of polys has no zero in the box of xp and yp."""
    if xp is None or yp is None:
        return False
    try:
        return any(lo > 0 or hi < 0 for lo, hi in (_box_range(h, xp, yp, True) for h in polys))
    except OverflowError:
        return False


def finite_equilibria(vf: VectorField, radius: float = 1e3) -> list[tuple[float, float]]:
    """All real non-origin equilibria with |(x, y)| <= radius, found exactly.

    Candidate coordinates come from the two elimination resultants of
    (p, q); each candidate pair is confirmed either by exact rational
    evaluation or by bounding p and q over the (<= 1e-12 wide) enclosing
    box with exact interval arithmetic.  A common factor of the two
    components (a curve of equilibria) is divided out and witnessed by
    sample points on the curve.  radius may be math.inf.
    """
    p, q = vf.p, vf.q
    if p.is_zero or q.is_zero:
        return _curve_points(q if p.is_zero else p, radius)
    found: list[tuple[float, float]] = []
    rx, ry = _resultant(p, q, "y"), _resultant(p, q, "x")
    if not any(rx) or not any(ry):  # a common factor of positive degree in x or in y
        g = _gcd(p, q)
        found = _curve_points(g, radius)
        p, q = (Poly2(from_sympy(to_sympy(h.terms).exquo(to_sympy(g.terms)))) for h in (p, q))
        rx, ry = _resultant(p, q, "y"), _resultant(p, q, "x")
    if len(rx) == 1 or len(ry) == 1 or not any(rx) or not any(ry):
        return sorted(set(found))
    xs = [r for r, _ in real_roots(rx) if abs(r.approx()) <= radius]
    ys = [r for r, _ in real_roots(ry) if abs(r.approx()) <= radius]
    degree = max(p.degree, q.degree)
    y_floats = [_powers(r.bounds(), degree, outward=True) for r in ys]
    for rx_root in xs:
        bx = rx_root.bounds()
        x_floats = _powers(bx, degree, outward=True)
        for ry_root, y_float in zip(ys, y_floats):
            if rx_root.kind == "rational" and ry_root.kind == "rational":
                if rx_root.a == 0 and ry_root.a == 0:
                    continue
                if p.evaluate(rx_root.a, ry_root.a) == 0 and q.evaluate(rx_root.a, ry_root.a) == 0:
                    found.append((float(rx_root.a), float(ry_root.a)))
                continue
            if _float_rejects((p, q), x_floats, y_float):
                continue
            xp, yp = _powers(bx, degree), _powers(ry_root.bounds(), degree)
            (p_lo, p_hi), (q_lo, q_hi) = _box_range(p, xp, yp), _box_range(q, xp, yp)
            if p_lo <= 0 <= p_hi and q_lo <= 0 <= q_hi:
                found.append((rx_root.approx(), ry_root.approx()))
    deduped: list[tuple[float, float]] = []
    for pt in sorted(pt for pt in found if 0 < math.hypot(*pt) <= radius):
        if all(math.hypot(pt[0] - o[0], pt[1] - o[1]) >= 1e-9 for o in deduped):
            deduped.append(pt)
    return deduped
