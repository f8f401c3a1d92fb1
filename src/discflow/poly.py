"""Exact bivariate polynomial arithmetic over the rationals.

Every coefficient is a `fractions.Fraction`; only `evaluate_float`, a float
view for numerics, ever rounds.  Polynomials are sparse maps from exponent
pairs to coefficients and are treated as immutable values, so they can be
shared freely across threads.  A `VectorField` is the NamedTuple (p, q), which
refuses two zero components when it is made.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, NamedTuple, Union

Scalar = Union[int, str, Fraction]


class NotDivisible(ArithmeticError):
    """An exact division left a nonzero remainder."""


def rat(value: Scalar) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        try:
            return Fraction(value)
        except ZeroDivisionError as exc:
            raise ValueError(f"{value!r} has a zero denominator") from exc
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _var_index(var: str) -> int:
    if var in ("x", "u"):
        return 0
    if var in ("y", "v"):
        return 1
    raise ValueError(f"unknown variable {var!r}; expected 'x', 'y', 'u' or 'v'")


class Poly2:
    """Sparse polynomial in two variables with Fraction coefficients.

    The term map never stores a zero coefficient, so equality of term maps is
    equality of polynomials.  degree() of the zero polynomial is the sentinel
    value -1.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Scalar] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent in {(i, j)}")
                c = rat(c)
                if c:
                    clean[(int(i), int(j))] = c
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly2":
        return cls()

    @classmethod
    def const(cls, c: Scalar) -> "Poly2":
        return cls({(0, 0): rat(c)})

    # -- basic structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(i + j for i, j in self.terms)

    @property
    def lowest_order(self) -> int:
        """Minimal total degree of a nonzero term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return min(i + j for i, j in self.terms)

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.terms.get((i, j), Fraction(0))

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly2) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Poly2":
        if isinstance(other, Poly2):
            return other
        return Poly2.const(other)

    def __add__(self, other) -> "Poly2":
        other = self._coerce(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + c
        return Poly2(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly2":
        return Poly2({key: -c for key, c in self.terms.items()})

    def __sub__(self, other) -> "Poly2":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly2":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Poly2":
        other = self._coerce(other)
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return Poly2(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly2":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly2.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- calculus and substitution ------------------------------------------

    def partial(self, var: str) -> "Poly2":
        """Formal partial derivative with respect to 'x' or 'y'."""
        axis = _var_index(var)
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in self.terms.items():
            e = (i, j)[axis]
            if e == 0:
                continue
            key = (i - 1, j) if axis == 0 else (i, j - 1)
            out[key] = out.get(key, Fraction(0)) + c * e
        return Poly2(out)

    def substitute(self, sx: "Poly2", sy: "Poly2") -> "Poly2":
        """Return self(sx, sy), expanded and normalized."""
        px: dict[int, Poly2] = {0: Poly2.const(1)}
        py: dict[int, Poly2] = {0: Poly2.const(1)}

        def power(cache, base, k):
            if k not in cache:
                cache[k] = power(cache, base, k - 1) * base
            return cache[k]

        out = Poly2.zero()
        for (i, j), c in self.terms.items():
            out = out + power(px, sx, i) * power(py, sy, j) * c
        return out

    def swap_vars(self) -> "Poly2":
        return Poly2({(j, i): c for (i, j), c in self.terms.items()})

    def homogeneous_part(self, k: int) -> "Poly2":
        """Sum of all terms of total degree exactly k."""
        return Poly2({key: c for key, c in self.terms.items() if key[0] + key[1] == k})

    def truncated(self, max_degree: int) -> "Poly2":
        return Poly2({key: c for key, c in self.terms.items() if key[0] + key[1] <= max_degree})

    def divide_monomial(self, var: str, k: int) -> "Poly2":
        """Exact quotient by var**k; raises NotDivisible on any remainder."""
        if k == 0:
            return self
        axis, (a, b) = _var_index(var), ("x", "y") if var in ("x", "y") else ("u", "v")
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in self.terms.items():
            e = (i, j)[axis]
            if e < k:
                raise NotDivisible(f"term {a}^{i}*{b}^{j} is not divisible by {var}^{k}")
            out[(i - k, j) if axis == 0 else (i, j - k)] = c
        return Poly2(out)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, x: Scalar, y: Scalar) -> Fraction:
        x = rat(x)
        y = rat(y)
        total = Fraction(0)
        for (i, j), c in self.terms.items():
            total += c * x**i * y**j
        return total

    def evaluate_float(self, x: float, y: float) -> float:
        # powers as products: a float product overflows to inf, where x**3 raises
        return sum(math.prod((float(c), *[x] * i, *[y] * j)) for (i, j), c in self.terms.items())

    # -- canonical text -----------------------------------------------------

    def text(self, names: tuple[str, str] = ("x", "y")) -> str:
        """Canonical text form: terms by (total degree desc, first-exponent desc)."""
        if not self.terms:
            return "0"
        nx, ny = names
        keys = sorted(self.terms, key=lambda key: (-(key[0] + key[1]), -key[0]))
        pieces: list[str] = []
        for idx, (i, j) in enumerate(keys):
            c = self.terms[(i, j)]
            mono = "*".join(
                part
                for part in (
                    nx if i == 1 else (f"{nx}^{i}" if i else ""),
                    ny if j == 1 else (f"{ny}^{j}" if j else ""),
                )
                if part
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if idx == 0:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(pieces)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Poly2({self.text()})"


class _Components(NamedTuple):
    p: Poly2
    q: Poly2


class VectorField(_Components):
    """A planar polynomial vector field (p, q) with exact coefficients."""

    __slots__ = ()

    def __new__(cls, p: Poly2, q: Poly2) -> "VectorField":
        if p.is_zero and q.is_zero:
            raise ValueError("vector field components must not both be zero")
        return super().__new__(cls, p, q)

    @property
    def effective_degree(self) -> int:
        return max(self.p.degree, self.q.degree)

    @property
    def lowest_order(self) -> int:
        orders = [c.lowest_order for c in (self.p, self.q) if not c.is_zero]
        return min(orders)

    def direction_form(self, k: int) -> Poly2:
        """y*p_k - x*q_k from the degree-k parts.  Its real linear factors give
        the characteristic directions at the origin when k = lowest_order, and
        the directions of the equilibria at infinity when k = effective_degree."""
        return self.p.homogeneous_part(k) * Y - self.q.homogeneous_part(k) * X

    def evaluate(self, point: tuple[Scalar, Scalar]) -> tuple[Fraction, Fraction]:
        x, y = point
        return self.p.evaluate(x, y), self.q.evaluate(x, y)

    def is_equilibrium(self, point: tuple[Scalar, Scalar]) -> bool:
        return self.evaluate(point) == (0, 0)

    def jacobian(self, point: tuple[Scalar, Scalar]) -> list[list[Fraction]]:
        x, y = point
        return [
            [self.p.partial("x").evaluate(x, y), self.p.partial("y").evaluate(x, y)],
            [self.q.partial("x").evaluate(x, y), self.q.partial("y").evaluate(x, y)],
        ]

    def divide_monomial(self, var: str, k: int) -> "VectorField":
        return VectorField(self.p.divide_monomial(var, k), self.q.divide_monomial(var, k))

    def text(self, names: tuple[str, str] = ("x", "y")) -> tuple[str, str]:
        return self.p.text(names), self.q.text(names)

    def __repr__(self) -> str:
        px, qx = self.text()
        return f"VectorField(p={px}, q={qx})"


X = Poly2({(1, 0): 1})
Y = Poly2({(0, 1): 1})

