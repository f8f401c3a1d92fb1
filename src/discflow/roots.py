"""Real roots of univariate rational polynomials, exact where possible.

Roots of linear and quadratic factors are kept in closed form (a rational, or
a quadratic surd p + q*sqrt(r)); anything of higher degree is isolated into a
rational interval of width at most 1e-12.  Both forms share the `RealRoot`
carrier so downstream code can print an exact string or take a float
approximation without caring which case it got.  This module is also the one
bridge to sympy, which the isolation and the equilibrium scan use.
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
            mag = f"sqrt({self.r})" if abs(self.b) == 1 else f"{abs(self.b)}*sqrt({self.r})"
            sign = "+" if self.b > 0 else "-"
            if self.a == 0:
                return mag if self.b > 0 else f"-{mag}"
            return f"{self.a} {sign} {mag}"
        return f"[{self.lo}, {self.hi}]"

    def to_json(self):
        if self.kind == "interval":
            return {"interval": [str(self.lo), str(self.hi)], "approx": self.approx()}
        return {"exact": self.exact_str(), "approx": self.approx()}

    def __repr__(self) -> str:
        return f"RealRoot({self.exact_str()})"


def quadratic_roots(a, b, c) -> list[tuple[RealRoot, int]]:
    """Real roots of a*x^2 + b*x + c (a may be zero), with multiplicities, sorted ascending."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a == 0:
        if b == 0:
            if c == 0:
                raise ValueError("zero polynomial has no isolated roots")
            return []
        return [(RealRoot.rational(-c / b), 1)]
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    if disc == 0:
        return [(RealRoot.rational(-b / (2 * a)), 2)]
    s = _sqrt_exact(disc)
    if s is not None:
        return [(RealRoot.rational(v), 1) for v in sorted([(-b - s) / (2 * a), (-b + s) / (2 * a)])]
    mid, half = -b / (2 * a), abs(Fraction(1, 1) / (2 * a))
    return [(RealRoot.surd(mid, -half, disc), 1), (RealRoot.surd(mid, half, disc), 1)]


def _isolate_high_degree(coeffs: list[Fraction]) -> list[tuple[RealRoot, int]]:
    poly, out = to_sympy(coeffs), []
    eps = poly.domain(INTERVAL_WIDTH.numerator, INTERVAL_WIDTH.denominator)
    for (lo, hi), mult in poly.intervals(eps=eps, sqf=False):
        lo, hi = Fraction(int(lo.p), int(lo.q)), Fraction(int(hi.p), int(hi.q))
        out.append((RealRoot.rational(lo) if lo == hi else RealRoot.interval(lo, hi), mult))
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
    if len(coeffs) > 3:
        out.extend(_isolate_high_degree(coeffs))
    else:  # degree <= 2: closed forms
        out.extend(quadratic_roots(*reversed(coeffs + [Fraction(0)] * (3 - len(coeffs)))))
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


# -- the sympy bridge: Fractions in, sympy Poly objects over QQ built straight
# from them, Fractions out; no sympy expression is built or parsed.


def to_sympy(rep, swap: bool = False):
    """rep as a sympy Poly over QQ: a coefficient list (lowest first) in x, or a
    Poly2 term map {(i, j): c} in (x, y), or in (y, x) when swap is set, so
    that a resultant eliminates y."""
    import sympy
    from sympy.abc import x, y

    qq = sympy.QQ
    if isinstance(rep, list):
        return sympy.Poly.from_list([qq(c.numerator, c.denominator) for c in reversed(rep)], x, domain=qq)
    terms = {(j, i) if swap else (i, j): qq(c.numerator, c.denominator) for (i, j), c in rep.items()}
    return sympy.Poly.from_dict(terms, *((y, x) if swap else (x, y)), domain=qq)


def from_sympy(poly):
    """A sympy Poly read back as Fractions: its coefficient list (lowest first)
    when it has one generator, else its term map {(i, j): c}."""
    if len(poly.gens) == 1:
        return [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    return {m: Fraction(int(c.p), int(c.q)) for m, c in poly.terms()}
