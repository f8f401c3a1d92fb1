"""Real roots of univariate rational polynomials, exact where possible.

Roots of linear and quadratic factors are kept in closed form (a rational, or
a quadratic surd p + q*sqrt(r)); anything of higher degree is isolated into a
rational interval of width at most 1e-12.  Both forms share the `RealRoot`
carrier so downstream code can print an exact string or take a float
approximation without caring which case it got.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

INTERVAL_WIDTH = Fraction(1, 10**12)


def _sqrt_exact(value: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if value < 0:
        raise ValueError("negative radicand")
    n, d = value.numerator, value.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class RealRoot:
    """Exact-or-interval real algebraic number.

    kind 'rational':  value == a
    kind 'surd':      value == a + b*sqrt(r) with r > 0 not a perfect square
    kind 'interval':  value lies in [lo, hi], hi - lo <= 1e-12
    """

    kind: str
    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)
    r: Fraction = Fraction(0)
    lo: Fraction = Fraction(0)
    hi: Fraction = Fraction(0)

    @classmethod
    def rational(cls, value) -> "RealRoot":
        return cls(kind="rational", a=Fraction(value))

    @classmethod
    def surd(cls, a, b, r) -> "RealRoot":
        return cls(kind="surd", a=Fraction(a), b=Fraction(b), r=Fraction(r))

    @classmethod
    def interval(cls, lo, hi) -> "RealRoot":
        return cls(kind="interval", lo=Fraction(lo), hi=Fraction(hi))

    @property
    def is_exact(self) -> bool:
        return self.kind != "interval"

    def approx(self) -> float:
        if self.kind == "rational":
            return float(self.a)
        if self.kind == "surd":
            return float(self.a) + float(self.b) * math.sqrt(float(self.r))
        return float((self.lo + self.hi) / 2)

    def bounds(self) -> tuple[Fraction, Fraction]:
        """Rational enclosure; exact kinds may return a degenerate interval."""
        if self.kind == "rational":
            return self.a, self.a
        if self.kind == "interval":
            return self.lo, self.hi
        # rational enclosure of sqrt(r) to ~1e-15 via integer isqrt
        scale = 10**18
        num = self.r.numerator * scale * scale
        root_lo = Fraction(math.isqrt(num // self.r.denominator), scale)
        root_hi = root_lo + Fraction(2, scale)
        lo = self.a + min(self.b * root_lo, self.b * root_hi)
        hi = self.a + max(self.b * root_lo, self.b * root_hi)
        return lo, hi

    def exact_str(self) -> str:
        if self.kind == "rational":
            return str(self.a)
        if self.kind == "surd":
            sqrt_part = f"sqrt({self.r})"
            if self.b == 1:
                tail = sqrt_part
            elif self.b == -1:
                tail = f"-{sqrt_part}"
            else:
                tail = f"{self.b}*{sqrt_part}"
            if self.a == 0:
                return tail
            sign = "+" if self.b > 0 else "-"
            mag = tail.lstrip("-")
            return f"{self.a} {sign} {mag}"
        return f"[{self.lo}, {self.hi}]"

    def to_json(self):
        if self.kind == "interval":
            return {"interval": [str(self.lo), str(self.hi)], "approx": self.approx()}
        return {"exact": self.exact_str(), "approx": self.approx()}

    def __repr__(self) -> str:
        return f"RealRoot({self.exact_str()})"


def _quadratic_roots(c0: Fraction, c1: Fraction, c2: Fraction) -> list[tuple[RealRoot, int]]:
    """Real roots of c2*x^2 + c1*x + c0 with c2 != 0, with multiplicities."""
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return []
    if disc == 0:
        return [(RealRoot.rational(-c1 / (2 * c2)), 2)]
    s = _sqrt_exact(disc)
    if s is not None:
        r1 = (-c1 - s) / (2 * c2)
        r2 = (-c1 + s) / (2 * c2)
        roots = sorted([r1, r2])
        return [(RealRoot.rational(v), 1) for v in roots]
    a = -c1 / (2 * c2)
    b = Fraction(1, 1) / (2 * c2)
    out = [RealRoot.surd(a, -abs(b), disc), RealRoot.surd(a, abs(b), disc)]
    return [(root, 1) for root in out]


def quadratic_roots(a, b, c) -> list[tuple[RealRoot, int]]:
    """Real roots of a*x^2 + b*x + c (a may be zero), sorted ascending."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a == 0:
        if b == 0:
            if c == 0:
                raise ValueError("zero polynomial has no isolated roots")
            return []
        return [(RealRoot.rational(-c / b), 1)]
    return _quadratic_roots(c, b, a)


def _isolate_high_degree(coeffs: list[Fraction]) -> list[tuple[RealRoot, int]]:
    import sympy

    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x**k for k, c in enumerate(coeffs))
    poly = sympy.Poly(expr, x)
    out: list[tuple[RealRoot, int]] = []
    eps = sympy.Rational(INTERVAL_WIDTH.numerator, INTERVAL_WIDTH.denominator)
    for (lo, hi), mult in poly.intervals(eps=eps, sqf=False):
        lo_f = Fraction(lo.p, lo.q)
        hi_f = Fraction(hi.p, hi.q)
        if lo_f == hi_f:
            out.append((RealRoot.rational(lo_f), mult))
        else:
            out.append((RealRoot.interval(lo_f, hi_f), mult))
    return out


def real_roots(coeffs: list[Fraction]) -> list[tuple[RealRoot, int]]:
    """All real roots, with multiplicities, of sum(coeffs[k] * x^k).

    Exact rationals and quadratic surds whenever the nonconstant part (after
    stripping a monomial factor) has degree <= 2; isolating intervals of width
    <= 1e-12 otherwise.  Roots are sorted by their value.
    """
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("zero polynomial has no isolated roots")
    out: list[tuple[RealRoot, int]] = []
    shift = 0
    while coeffs[0] == 0:
        coeffs.pop(0)
        shift += 1
    if shift:
        out.append((RealRoot.rational(0), shift))
    degree = len(coeffs) - 1
    if degree == 0:
        pass
    elif degree == 1:
        out.append((RealRoot.rational(-coeffs[0] / coeffs[1]), 1))
    elif degree == 2:
        out.extend(_quadratic_roots(coeffs[0], coeffs[1], coeffs[2]))
    else:
        out.extend(_isolate_high_degree(coeffs))
    out.sort(key=lambda pair: pair[0].approx())
    return out


def poly_coeffs_in_x(p, at_y=Fraction(0)) -> list[Fraction]:
    """Coefficient list in x of a Poly2 with y frozen at a rational value."""
    at_y = Fraction(at_y)
    if not p.terms:
        return []
    coeffs = [Fraction(0)] * (max(i for i, _ in p.terms) + 1)
    for (i, j), c in p.terms.items():
        coeffs[i] += c * at_y**j
    return coeffs
