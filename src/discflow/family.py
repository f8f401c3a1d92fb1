"""The eight-parameter cubic family and its center / global-center oracles.

The family is the real system of `build_system`, as the README writes it out,
with the complex coefficients A3..A6 = a1+i*a2, ..., d1+i*d2.  It is not quite
i*dw/dt = w - A3*conj(w)^2 - A4*w^3 - A5*w^2*conj(w) - A6*w*conj(w)^2 with
w = x + i*y: its x' is that equation's expansion minus (b1 - c1 + d1)*y^3
(b1 = 1 alone gives a conj(w)^3 term, which no member of the equation has, and
statement (b) of `global_cases` holds for the real system only).  So every
per-regime object here, normal form or first integral, is derived from
`build_system`; only the center invariants (F, G, Im(A4*A6)) are products of
A3..A6 as Gaussian rationals.  All decisions are exact over the rationals: the
oracles return every matching condition set, since the sets genuinely overlap
(the zero vector satisfies all of them).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .poly import Poly2, Scalar, VectorField, rat

PARAM_NAMES = ("a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2")


class HypothesesViolated(ValueError):
    """Parameters do not satisfy a normal form's reduction hypotheses."""


class NotConserved(ValueError):
    """No polynomial first integral: a nonzero Lie derivative or divergence."""


@dataclass(frozen=True)
class FamilyParams:
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
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("parameter file must contain a JSON object")
        params = cls.make(**{k: _parse_rational(v) for k, v in data.items()})
        params.to_json()  # raises ValueError on a value with more digits than str() prints
        return params

    def to_json(self) -> dict:
        return {name: str(getattr(self, name)) for name in PARAM_NAMES}

    def as_tuple(self) -> tuple[Fraction, ...]:
        return tuple(getattr(self, name) for name in PARAM_NAMES)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.as_tuple())


def _parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise ValueError(f"parameter value {value!r} is not a rational")
    if isinstance(value, (int, str)):
        return rat(value)
    raise ValueError(f"parameter value {value!r} is not an exact rational")


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


@dataclass(frozen=True)
class CenterReport:
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


@dataclass(frozen=True)
class GlobalReport:
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


# each reduced normal form's hypotheses, as text and as a test of the parameters
_NORMAL_FORMS = {
    "aa1": ("a1=a2=b2=c2=d2=0, d1=3*b1, c1=-4*b1",
            lambda p: p.a1 == p.a2 == p.b2 == p.c2 == p.d2 == 0
            and p.d1 == 3 * p.b1 and p.c1 == -4 * p.b1),
    "aa2": ("a1=a2=b2=c1=c2=d2=0, d1=3*b1",
            lambda p: p.a1 == p.a2 == p.b2 == p.c1 == p.c2 == p.d2 == 0 and p.d1 == 3 * p.b1),
    "aa3": ("a2=b1=b2=c2=d1=d2=0", lambda p: p.a2 == p.b1 == p.b2 == p.c2 == p.d1 == p.d2 == 0),
    "aa4": ("a1=a2=b2=c2=d2=0, d1=-b1-c1",
            lambda p: p.a1 == p.a2 == p.b2 == p.c2 == p.d2 == 0 and p.d1 == -p.b1 - p.c1),
    "bb5": ("a2=b2=c1=c2=d2=0", lambda p: p.a2 == p.b2 == p.c1 == p.c2 == p.d2 == 0),
    "bb7": ("a1=a2=b1=b2=c2=d2=0, d1=-c1",
            lambda p: p.a1 == p.a2 == p.b1 == p.b2 == p.c2 == p.d2 == 0 and p.d1 == -p.c1),
}


# each global statement as (normal form, the conditions left beyond its
# hypotheses); (d), the zero vector, has no normal form of its own
_STATEMENTS = {
    "a": ("aa1", lambda p: p.c1 < 0),
    "b": ("aa2", lambda p: p.b1 < 0),
    "c": ("aa3", lambda p: p.a1 * p.a1 + p.c1 < 0),
    "d": (None, FamilyParams.is_zero),
    "e": ("aa4", lambda p: p.d1 != 3 * p.b1 and 2 * p.b1 + p.c1 <= 0 and p.b1 > 0),
    "f": ("bb5", lambda p: p.b1 != 0 and p.a1 * p.a1 + 3 * p.b1 - p.d1 < 0
          and p.a1 * p.a1 + 4 * (p.b1 + p.d1) < 0),
    "g": ("bb7", lambda p: p.d1 > 0),
}


def global_cases(params: FamilyParams) -> GlobalReport:
    """Every condition set under which the center is global.

    Inequality strictness is transcribed literally: the boundary 2*b1+c1 = 0
    in statement (e) is allowed, everything in (f) is strict.
    """
    return GlobalReport(tuple(
        name for name, (form, rest) in _STATEMENTS.items()
        if (form is None or _NORMAL_FORMS[form][1](params)) and rest(params)
    ))


def normal_form(tag: str, params: FamilyParams) -> VectorField:
    """The family's field on one reduced regime, once its hypotheses hold."""
    if tag not in _NORMAL_FORMS:
        raise ValueError(f"unknown normal form tag {tag!r}")
    hypotheses, holds = _NORMAL_FORMS[tag]
    if not holds(params):
        raise HypothesesViolated(f"normal form {tag} requires {hypotheses}")
    return build_system(params)


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


def conserved_quantity(tag: str, params: FamilyParams) -> Poly2:
    """The first integral of a Hamiltonian normal form, aa1..aa3."""
    if tag not in ("aa1", "aa2", "aa3"):
        raise ValueError(f"no first integral for normal form {tag!r}")
    return hamiltonian(normal_form(tag, params))
