"""Real roots of univariate rational polynomials, exact where possible.

The input is scaled once to a primitive integer polynomial.  Roots of linear
and quadratic factors are kept in closed form (a rational, or a quadratic surd
p + q*sqrt(r)); anything of higher degree goes through integer kernels: Yun's
square-free decomposition, then Descartes' rule of signs with bisection and
exact signs at dyadic points.  A rational root is the one multiple of 1/|lc|
(lc a factor's leading coefficient) in a cell narrower than 1/|lc|, so one
exact sign there tells a `rational` root; an irrational one is reported as its
dyadic cell [k, k + 1] / 2**40 (2**-40 < 1e-12), halved until no other root
lies in it, so its endpoints depend on the root alone and `approx()`, the
midpoint, is an exact float for |root| < 2**12.  Every kind shares the
`RealRoot` carrier and its exact enclosure [lo, hi] (a rational's is the point,
a surd's its cell), so downstream code reads a float, a bound or a sign off lo
and hi without caring which case it got.  Input is a plain coefficient list,
lowest first; the dense integer kernels also serve the equilibrium scan's
Z[x][y], and no bivariate format is read here.
"""

from __future__ import annotations

import math
from contextlib import suppress
from fractions import Fraction
from functools import reduce
from typing import NamedTuple

CELL_BITS = 40  # an irrational root's cell is [k, k + 1] / 2**40, 2**-40 < 1e-12


class RealRoot(NamedTuple):
    """Exact-or-interval real algebraic number, with its exact enclosure [lo, hi].

    kind 'rational':  value == a == lo == hi
    kind 'surd':      value == a + b*sqrt(r) with r > 0 not a perfect square,
                      strictly inside its cell [lo, hi] (see `_cell`)
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
        value = Fraction(value)
        return cls(kind="rational", a=value, lo=value, hi=value)

    @classmethod
    def surd(cls, a, b, r) -> "RealRoot":
        a, b, r = Fraction(a), Fraction(b), Fraction(r)
        return cls("surd", a, b, r, *_cell(a, b, r))

    @classmethod
    def interval(cls, lo, hi) -> "RealRoot":
        return cls(kind="interval", lo=Fraction(lo), hi=Fraction(hi))

    def approx(self) -> float:
        """The enclosure's midpoint, rounded once: the root itself for a rational, the
        float nearest it for a surd; OverflowError past float range.  One correctly
        rounded division of integers, (lo.n*hi.d + hi.n*lo.d) / (2*lo.d*hi.d)."""
        (a, b), (c, d) = self.lo.as_integer_ratio(), self.hi.as_integer_ratio()
        return (a * d + c * b) / (2 * b * d)

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
        out = {"interval": [str(self.lo), str(self.hi)]} if self.kind == "interval" else {
            "exact": self.exact_str()}
        with suppress(OverflowError):
            out["approx"] = self.approx()
        return out

    def __repr__(self) -> str:
        return f"RealRoot({self.exact_str()})"


def _cell(a: Fraction, b: Fraction, r: Fraction) -> tuple[Fraction, Fraction]:
    """The cell [k, k + 1] / 2**e that holds a + b*sqrt(r) strictly inside, no wider
    than 2**-64 nor than 2**-64 of the root, so no float's rounding boundary lies
    inside it and it never holds 0.  In integers the root is (p + q*sqrt(n)) / m;
    when p and q have opposite signs its conjugate form (p**2 - q**2*n) / (p - q*sqrt(n))
    bounds its size from below with no cancellation."""
    d = math.lcm(a.denominator, b.denominator)
    p, q = a.numerator * (d // a.denominator) * r.denominator, b.numerator * (d // b.denominator)
    n, m = r.numerator * r.denominator, d * r.denominator
    if p * q < 0:
        top, bottom = abs(p * p - q * q * n), abs(p) + abs(q) * (math.isqrt(n) + 1)
    else:
        top, bottom = abs(p) + abs(q) * math.isqrt(n), 1
    # |root| >= top / (bottom * m) > 2**(top.bit_length() - 1 - (bottom * m).bit_length())
    e = 64 + max(0, 1 - top.bit_length() + (bottom * m).bit_length())
    root = math.isqrt(q * q * n << 2 * e)  # floor(|q| * sqrt(n) * 2**e); n is no square
    k = ((p << e) + (root if q > 0 else -root - 1)) // m
    return Fraction(k, 2**e), Fraction(k + 1, 2**e)


# -- dense integer polynomials: coefficient lists, lowest first, whose entries are
# ints or, one variable down, such lists; [] is zero.  The same kernels serve
# Z[x] here and Z[x][y] in the equilibrium scan.


def _add(a, b):
    if isinstance(a, int):
        return a + b
    out = [_add(u, v) for u, v in zip(a, b)] + a[len(b):] + b[len(a):]
    while out and not out[-1]:
        out.pop()
    return out


def _neg(a):
    return -a if isinstance(a, int) else [_neg(u) for u in a]


def _mul(a, b):
    if isinstance(a, int):
        return a * b
    out = [type(a[0])()] * (len(a) + len(b) - 1) if a and b else []
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] = _add(out[i + j], _mul(u, v))
    return out


def _cancel(a: list, c, b: list) -> list:
    """a - c * X**k * b, k = len(a) - len(b): a with its leading term cancelled."""
    return _add(a, [type(c)()] * (len(a) - len(b)) + [_neg(_mul(c, v)) for v in b])


def _divexact(a, b):
    """a / b when b divides a; ArithmeticError otherwise."""
    if isinstance(a, int):
        q, r = divmod(a, b)
    elif len(a) < len(b):
        q, r = [], a
    else:  # the quotient's top term, then the rest of it
        c = _divexact(a[-1], b[-1])
        return _add(_divexact(_cancel(a, c, b), b), [type(c)()] * (len(a) - len(b)) + [c])
    if r:
        raise ArithmeticError("inexact division")
    return q


def _gcd(a, b):
    """gcd in Z, or in Z[x] or Z[x][y] by primitive pseudo-remainder sequences."""
    if isinstance(a, int):
        return math.gcd(a, b)
    if not (a and b):
        return a or b
    content = _gcd(reduce(_gcd, a), reduce(_gcd, b))
    a, b = sorted((_primitive(a), _primitive(b)), key=len, reverse=True)
    while b:
        while len(a) >= len(b):  # a pseudo-remainder: lc(b)**k * a mod b
            a = _cancel([_mul(b[-1], u) for u in a], a[-1], b)
        a, b = b, _primitive(a)
    return [_mul(content, u) for u in a]


def _primitive(a: list) -> list:
    content = reduce(_gcd, a, type(a[0])()) if a else 0
    return [_divexact(u, content) for u in a]


def _squarefree(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's decomposition of a primitive f: pairwise coprime square-free g with
    multiplicities k, f = +-prod g**k, constant g left out."""
    a = _gcd(f, _deriv(f))
    b, c, out = _divexact(f, a), _divexact(_deriv(f), a), []
    while len(b) > 1:
        d = _add(c, _neg(_deriv(b)))
        out.append(_gcd(b, d))
        b, c = _divexact(b, out[-1]), _divexact(d, out[-1])
    return [(g, k) for k, g in enumerate(out, 1) if len(g) > 1]


def _deriv(f: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(f)][1:]


# -- real roots of square-free integer polynomials (Collins-Akritas): Descartes'
# rule of signs with bisection, then bisection on exact signs at dyadic points.


def _sign(f: list[int], a: int, d: int) -> int:
    """Sign of f(a / d), d > 0, from d**n f(a / d) by Horner's scheme."""
    value, dk = 0, 1
    for c in reversed(f):
        value, dk = value * a + c * dk, dk * d
    return (value > 0) - (value < 0)


def _shift1(a: list[int]) -> list[int]:
    """a(x + 1)."""
    a = list(a)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _isolate(f: list[int], bits: int) -> list:
    """The real roots of square-free f: a Fraction for a rational one, else
    (a, e), e >= bits, for the one root in (a / 2**e, (a + 1) / 2**e)."""
    top = f[-1].bit_length()  # Fujiwara's bound: every |root| < 2**b
    b = max(0, 1 + max(-((top - c.bit_length() - 1) // i) for i, c in enumerate(reversed(f[:-1]), 1)))
    out = []
    for s in (1, -1):  # a root t of g in (0, 1) is the root s * (c + t) / 2**e of f
        todo = [([c * s**i << b * i for i, c in enumerate(f)], 0, -b)]
        while todo:
            g, c, e = todo.pop()
            signs = [a > 0 for a in _shift1(g[::-1]) if a]  # (0, 1) -> (0, inf)
            changes = sum(u != v for u, v in zip(signs, signs[1:]))
            if changes == 1:
                out.append(_refine(f, c if s > 0 else -c - 1, e, bits))
            elif changes > 1:
                left = [a << (len(g) - 1 - i) for i, a in enumerate(g)]  # 2**n g(x / 2)
                right = _shift1(left)  # 2**n g((x + 1) / 2)
                if not right[0]:
                    out.append(s * (2 * c + 1) * Fraction(2) ** -(e + 1))
                todo += [(left, 2 * c, e + 1), (right, 2 * c + 1, e + 1)]
    return out


def _refine(f: list[int], a: int, e: int, bits: int):
    """Bisect (a / 2**e, (a + 1) / 2**e) around f's one root in it until
    e >= bits; the root itself when a midpoint is one, or when it is rational.
    A rational root of f is a multiple of 1 / |lc(f)|, and once 2**-e < 1 / |lc(f)|
    the cell holds at most one: the first above its left end, n / |lc(f)|."""
    def sign(g, a, e):
        return _sign(g, a << max(-e, 0), 1 << max(e, 0))

    side = sign(f, a, e) or sign(_deriv(f), a, e)  # f's sign just above a / 2**e
    while e < bits:
        a, e = 2 * a, e + 1
        mid = sign(f, a + 1, e)
        if not mid:
            return (a + 1) * Fraction(2) ** -e
        a += mid == side
    lc = abs(f[-1])
    n = (a * lc >> e) + 1
    return Fraction(n, lc) if n << e < (a + 1) * lc and not _sign(f, n, lc) else (a, e)


def _closed_form(f: list[int]) -> list[tuple[RealRoot, int]]:
    """The real roots of primitive f of degree <= 2, f(0) != 0, in closed form, ascending."""
    if len(f) < 3:
        return [(RealRoot.rational(Fraction(-f[0], f[1])), 1)] if len(f) == 2 else []
    c, b, a = f
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    if disc == 0:
        return [(RealRoot.rational(Fraction(-b, 2 * a)), 2)]
    s = math.isqrt(disc)
    if s * s == disc:
        roots = sorted([Fraction(-b - s, 2 * a), Fraction(-b + s, 2 * a)])
        return [(RealRoot.rational(v), 1) for v in roots]
    k = 1  # disc = k^2 * r: divide out the squares of small primes
    for p in range(2, 64):
        while disc % (p * p) == 0:
            disc, k = disc // (p * p), k * p
    mid, half = Fraction(-b, 2 * a), abs(Fraction(k, 2 * a))
    return [(RealRoot.surd(mid, -half, disc), 1), (RealRoot.surd(mid, half, disc), 1)]


def _isolate_high_degree(f: list[int]) -> list[tuple[RealRoot, int]]:
    """Rational roots exactly, the others in their dyadic cells (see the module docstring)."""
    exact, cells = [], []  # (value, mult); [g, a, e, mult]
    for g, mult in _squarefree(f):
        bits = max(CELL_BITS, g[-1].bit_length())  # 2**-bits < 1 / |lc|, see _refine
        for root in [Fraction(-g[0], g[1])] if len(g) == 2 else _isolate(g, bits):
            if isinstance(root, Fraction):
                exact.append((root, mult))
            else:
                cells.append([g, *root, mult])

    def cell(r, m):  # k for r's cell [k, k + 1] / 2**m
        if r[2] < m:
            r[1:3] = _refine(r[0], r[1], r[2], m)
        return r[1] >> (r[2] - m)

    out = [(RealRoot.rational(x), mult) for x, mult in exact]
    for r in cells:  # the 2**-CELL_BITS cell, halved while it holds another root
        m = CELL_BITS
        while any(cell(t, m) == cell(r, m) for t in cells if t is not r) or any(
                cell(r, m) <= x * 2**m <= cell(r, m) + 1 for x, _ in exact):
            m += 1
        k = cell(r, m)
        out.append((RealRoot.interval(Fraction(k, 2**m), Fraction(k + 1, 2**m)), r[3]))
    return out


def real_roots(coeffs: list[Fraction]) -> list[tuple[RealRoot, int]]:
    """All real roots, with multiplicities, of sum(coeffs[k] * x^k).

    Exact rationals and quadratic surds whenever the nonconstant part (after
    stripping a monomial factor) has degree <= 2; otherwise exact rationals
    and dyadic cells of width <= 2**-40 (see the module docstring).  Roots are
    sorted by their value.
    """
    coeffs = [Fraction(c) for c in coeffs]
    d = math.lcm(*(c.denominator for c in coeffs))
    f = [c.numerator * (d // c.denominator) for c in coeffs]
    while f and not f[-1]:
        f.pop()
    if not f:
        raise ValueError("zero polynomial has no isolated roots")
    shift = next(k for k, c in enumerate(f) if c)
    f = _primitive(f[shift:])  # one integer form, so a surd's text does not depend on the scale
    if len(f) > 3:  # rationals and cells that hold no other root: their bounds order them
        out = sorted(_isolate_high_degree(f), key=lambda pair: (pair[0].lo, pair[0].hi))
    else:  # degree <= 2: closed forms, in order
        out = _closed_form(f)
    if shift:  # 0 is no root of the rest, and no enclosure holds it: it goes after hi <= 0
        out.insert(sum(root.hi <= 0 for root, _ in out), (RealRoot.rational(0), shift))
    return out
