"""The eight-parameter cubic family and its center / global-center oracles.

The family is the real system of `build_system`, as the README writes it out,
with the complex coefficients A3..A6 = a1+i*a2, ..., d1+i*d2.  It is not quite
i*dw/dt = w - A3*conj(w)^2 - A4*w^3 - A5*w^2*conj(w) - A6*w*conj(w)^2 with
w = x + i*y: its x' is that equation's expansion minus (b1 - c1 + d1)*y^3
(b1 = 1 alone gives a conj(w)^3 term, which no member of the equation has, and
statement (b) of `global_cases` holds for the real system only).  So a first
integral is derived from `build_system`'s field (`hamiltonian`); only the
center invariants (F, G, Im(A4*A6)) are products of A3..A6 as Gaussian
rationals.  Each global statement but (d) is one predicate: the hypotheses of
a reduced normal form (aa1..aa4, bb5, bb7), then its remaining conditions.
All decisions are exact over the rationals: the oracles return every matching
condition set, since the sets genuinely overlap (the zero vector satisfies all
of them).  Parameters and reports are NamedTuples, so they unpack, compare and
hash as the plain tuples of their fields.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import NamedTuple

from .poly import Poly2, Scalar, VectorField, rat

PARAM_NAMES = ("a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2")


class NotConserved(ValueError):
    """No polynomial first integral: a nonzero Lie derivative or divergence."""


class FamilyParams(NamedTuple):
    a1: Fraction = Fraction(0)
    a2: Fraction = Fraction(0)
    b1: Fraction = Fraction(0)
    b2: Fraction = Fraction(0)
    c1: Fraction = Fraction(0)
    c2: Fraction = Fraction(0)
    d1: Fraction = Fraction(0)
    d2: Fraction = Fraction(0)

    @classmethod
    def make(cls, **kwargs: Scalar) -> "FamilyParams":
        unknown = set(kwargs) - set(PARAM_NAMES)
        if unknown:
            raise ValueError(f"unknown parameters {sorted(unknown)}")
        return cls(**{k: rat(v) for k, v in kwargs.items()})

    @classmethod
    def from_json(cls, text: str) -> "FamilyParams":
        data = json.loads(text, parse_int=str)  # past the digit limit, an int is refused by name
        if not isinstance(data, dict):
            raise ValueError("parameter file must contain a JSON object")
        return cls.make(**{k: _parse_rational(k, v) for k, v in data.items()})

    def to_json(self) -> dict:
        return {name: str(getattr(self, name)) for name in PARAM_NAMES}

    def as_tuple(self) -> tuple[Fraction, ...]:
        return tuple(self)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.as_tuple())


def _parse_rational(name: str, value) -> Fraction:
    if not isinstance(value, str):
        raise ValueError(f"parameter value {value!r} is not an exact rational")
    try:
        r = rat(value)
        str(r)  # a value such as 1e5000 parses, but has more digits than str() prints
    except ValueError as exc:  # Python's int/str digit limit, or a malformed value
        if "Exceeds the limit" not in str(exc):
            raise
        raise ValueError(f"{name} has more than {sys.get_int_max_str_digits()} digits") from None
    return r


def from_complex(a3: tuple, a4: tuple, a5: tuple, a6: tuple) -> FamilyParams:
    """Unpack the complex coefficients A3..A6 into real parameters."""
    return FamilyParams.make(
        a1=a3[0], a2=a3[1], b1=a4[0], b2=a4[1],
        c1=a5[0], c2=a5[1], d1=a6[0], d2=a6[1],
    )


def build_system(params: FamilyParams) -> VectorField:
    """The real cubic system attached to the parameters."""
    a1, a2, b1, b2, c1, c2, d1, d2 = params.as_tuple()
    p = Poly2({
        (0, 1): 1,
        (1, 1): 2 * a1,
        (2, 0): -a2,
        (0, 2): a2,
        (3, 0): -(b2 + c2 + d2),
        (2, 1): -(3 * b1 + c1 - d1),
        (1, 2): 3 * b2 - c2 - d2,
    })
    q = Poly2({
        (1, 0): -1,
        (2, 0): a1,
        (0, 2): -a1,
        (1, 1): 2 * a2,
        (3, 0): b1 + c1 + d1,
        (2, 1): -(3 * b2 + c2 - d2),
        (1, 2): -3 * b1 + c1 + d1,
        (0, 3): b2 - c2 + d2,
    })
    return VectorField(p, q)


def _im_product(*factors: tuple[Fraction, Fraction]) -> Fraction:
    """Im of the product of Gaussian rationals, each given as (re, im)."""
    re, im = factors[0]
    for a, b in factors[1:]:
        re, im = re * a - im * b, re * b + im * a
    return im


def f_invariant(params: FamilyParams) -> Fraction:
    """F = Im(conj(A3)^2 * A6^3)."""
    a3, a6 = (params.a1, -params.a2), (params.d1, params.d2)
    return _im_product(a3, a3, a6, a6, a6)


def g_invariant(params: FamilyParams) -> Fraction:
    """G = Im(conj(A3)^2 * conj(A4)^3)."""
    a3, a4 = (params.a1, -params.a2), (params.b1, -params.b2)
    return _im_product(a3, a3, a4, a4, a4)


class CenterReport(NamedTuple):
    matching_cases: tuple[str, ...]
    f_value: Fraction
    g_value: Fraction

    @property
    def is_center(self) -> bool:
        return bool(self.matching_cases)

    def to_json(self) -> dict:
        return {
            "cases": list(self.matching_cases),
            "F": str(self.f_value),
            "G": str(self.g_value),
        }


class GlobalReport(NamedTuple):
    matching_statements: tuple[str, ...]

    @property
    def is_global(self) -> bool:
        return bool(self.matching_statements)

    def to_json(self) -> dict:
        return {"statements": list(self.matching_statements)}


def center_cases(params: FamilyParams) -> CenterReport:
    """Every condition set under which the origin is a center."""
    a1, a2, b1, b2, c1, c2, d1, d2 = params.as_tuple()
    f_val = f_invariant(params)
    g_val = g_invariant(params)
    cases = []
    cross = _im_product((b1, b2), (d1, d2))  # Im(A4*A6)
    if c2 == 0 and cross == 0 and 3 * b1 - d1 == 0:
        cases.append("i")
    if c2 == 0 and cross == 0 and f_val == 0:
        cases.append("ii")
    if c1 == 0 and c2 == 0 and b2 - d2 == 0 and b1 + d1 == 0:
        cases.append("iii")
    if c2 == 0 and d1 == 0 and d2 == 0 and g_val == 0:
        cases.append("iv")
    return CenterReport(tuple(cases), f_val, g_val)


# each global statement as one predicate: but for (d), the zero vector, the hypotheses
# of the reduced normal form named in the comment, then the conditions left beyond them
_STATEMENTS = {
    "a": lambda p: (p.a1 == p.a2 == p.b2 == p.c2 == p.d2 == 0  # aa1
                    and p.d1 == 3 * p.b1 and p.c1 == -4 * p.b1 and p.c1 < 0),
    "b": lambda p: (p.a1 == p.a2 == p.b2 == p.c1 == p.c2 == p.d2 == 0  # aa2
                    and p.d1 == 3 * p.b1 and p.b1 < 0),
    "c": lambda p: (p.a2 == p.b1 == p.b2 == p.c2 == p.d1 == p.d2 == 0  # aa3
                    and p.a1 * p.a1 + p.c1 < 0),
    "d": FamilyParams.is_zero,
    "e": lambda p: (p.a1 == p.a2 == p.b2 == p.c2 == p.d2 == 0 and p.d1 == -p.b1 - p.c1  # aa4
                    and p.d1 != 3 * p.b1 and 2 * p.b1 + p.c1 <= 0 and p.b1 > 0),
    "f": lambda p: (p.a2 == p.b2 == p.c1 == p.c2 == p.d2 == 0  # bb5
                    and p.b1 != 0 and p.a1 * p.a1 + 3 * p.b1 - p.d1 < 0
                    and p.a1 * p.a1 + 4 * (p.b1 + p.d1) < 0),
    "g": lambda p: (p.a1 == p.a2 == p.b1 == p.b2 == p.c2 == p.d2 == 0  # bb7
                    and p.d1 == -p.c1 and p.d1 > 0),
}


def global_cases(params: FamilyParams) -> GlobalReport:
    """Every condition set under which the center is global.

    Inequality strictness is transcribed literally: the boundary 2*b1+c1 = 0
    in statement (e) is allowed, everything in (f) is strict.
    """
    return GlobalReport(tuple(name for name, holds in _STATEMENTS.items() if holds(params)))


# -- exact first integrals ------------------------------------------------------


def lie_derivative(h: Poly2, vf: VectorField) -> Poly2:
    return h.partial("x") * vf.p + h.partial("y") * vf.q


def hamiltonian(vf: VectorField) -> Poly2:
    """The H with dH/dy = p, dH/dx = -q and H(0, 0) = 0.

    H is the integral of p in y minus the integral of q(x, 0) in x; it exists
    exactly when the divergence dp/dx + dq/dy is zero, else NotConserved.
    """
    if not (vf.p.partial("x") + vf.q.partial("y")).is_zero:
        raise NotConserved("the field has nonzero divergence, so no Hamiltonian")
    return Poly2({
        **{(i, j + 1): c / (j + 1) for (i, j), c in vf.p.terms.items()},
        **{(i + 1, 0): -c / (i + 1) for (i, j), c in vf.q.terms.items() if j == 0},
    })

