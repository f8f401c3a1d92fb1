"""The eight-parameter cubic family and its center / global-center oracles.

In complex notation the family is i*dw/dt = w - A3*conj(w)^2 - A4*w^3
- A5*w^2*conj(w) - A6*w*conj(w)^2 with A3..A6 = a1+i*a2, ..., d1+i*d2.  All
decisions below are exact over the rationals: the oracles return every
matching condition set, since the sets genuinely overlap (the zero vector
satisfies all of them).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .poly import Poly2, Scalar, VectorField, rat

PARAM_NAMES = ("a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2")


class HypothesesViolated(ValueError):
    """Parameters do not satisfy a normal form's reduction hypotheses."""


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
        return cls.make(**{k: _parse_rational(v) for k, v in data.items()})

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


def f_invariant(params: FamilyParams) -> Fraction:
    a1, a2 = params.a1, params.a2
    d1, d2 = params.d1, params.d2
    return (
        a2**2 * d2**3
        - 3 * a2**2 * d2 * d1**2
        + 6 * a2 * a1 * d2**2 * d1
        - 2 * a2 * a1 * d1**3
        - a1**2 * d2**3
        + 3 * a1**2 * d2 * d1**2
    )


def g_invariant(params: FamilyParams) -> Fraction:
    a1, a2 = params.a1, params.a2
    b1, b2 = params.b1, params.b2
    return (
        -(a2**2) * b2**3
        + 3 * a2**2 * b2 * b1**2
        + 6 * a2 * a1 * b2**2 * b1
        - 2 * a2 * a1 * b1**3
        + a1**2 * b2**3
        - 3 * a1**2 * b2 * b1**2
    )


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
    cross = b2 * d1 + d2 * b1
    if c2 == 0 and cross == 0 and 3 * b1 - d1 == 0:
        cases.append("i")
    if c2 == 0 and cross == 0 and f_val == 0:
        cases.append("ii")
    if c1 == 0 and c2 == 0 and b2 - d2 == 0 and b1 + d1 == 0:
        cases.append("iii")
    if c2 == 0 and d1 == 0 and d2 == 0 and g_val == 0:
        cases.append("iv")
    return CenterReport(tuple(cases), f_val, g_val)


def global_cases(params: FamilyParams) -> GlobalReport:
    """Every condition set under which the center is global.

    Inequality strictness is transcribed literally: the boundary 2*b1+c1 = 0
    in statement (e) is allowed, everything in (f) is strict.
    """
    a1, a2, b1, b2, c1, c2, d1, d2 = params.as_tuple()
    statements = []
    if (a1 == a2 == b2 == c2 == d2 == 0 and d1 == 3 * b1
            and 4 * b1 == -c1 and c1 < 0):
        statements.append("a")
    if a1 == a2 == b2 == c1 == c2 == d2 == 0 and d1 == 3 * b1 and b1 < 0:
        statements.append("b")
    if a2 == b1 == b2 == c2 == d1 == d2 == 0 and a1 * a1 + c1 < 0:
        statements.append("c")
    if params.is_zero():
        statements.append("d")
    if (a1 == a2 == b2 == c2 == d2 == 0 and d1 == -b1 - c1 and d1 != 3 * b1
            and 2 * b1 + c1 <= 0 and b1 > 0):
        statements.append("e")
    if (a2 == b2 == c1 == c2 == d2 == 0 and b1 != 0
            and a1 * a1 + 3 * b1 - d1 < 0 and a1 * a1 + 4 * (b1 + d1) < 0):
        statements.append("f")
    if a1 == a2 == b1 == b2 == c2 == d2 == 0 and d1 == -c1 and d1 > 0:
        statements.append("g")
    return GlobalReport(tuple(statements))


def _require(condition: bool, tag: str, what: str) -> None:
    if not condition:
        raise HypothesesViolated(f"normal form {tag} requires {what}")


def normal_form(tag: str, params: FamilyParams) -> VectorField:
    """Reduced system for one of the coefficient regimes.

    The returned field is asserted equal to build_system(params), so the
    registry cannot drift from the family construction.
    """
    a1, a2, b1, b2, c1, c2, d1, d2 = params.as_tuple()
    zero = Poly2.zero()
    if tag == "aa1":
        _require(a1 == a2 == b2 == c2 == d2 == 0, tag, "a1=a2=b2=c2=d2=0")
        _require(d1 == 3 * b1 and 4 * b1 == -c1, tag, "d1=3*b1 and b1=-c1/4")
        p = Poly2({(0, 1): 1, (2, 1): -c1})
        q = Poly2({(1, 0): -1, (1, 2): c1})
    elif tag == "aa2":
        _require(a1 == a2 == b2 == c1 == c2 == d2 == 0, tag, "a1=a2=b2=c1=c2=d2=0")
        _require(d1 == 3 * b1, tag, "d1=3*b1")
        p = Poly2({(0, 1): 1})
        q = Poly2({(1, 0): -1, (3, 0): 4 * b1})
    elif tag == "aa3":
        _require(a2 == b1 == b2 == c2 == d1 == d2 == 0, tag, "a2=b1=b2=c2=d1=d2=0")
        p = Poly2({(0, 1): 1, (1, 1): 2 * a1, (2, 1): -c1})
        q = Poly2({(1, 0): -1, (2, 0): a1, (0, 2): -a1, (3, 0): c1, (1, 2): c1})
    elif tag == "aa4":
        _require(a1 == a2 == b2 == c2 == d2 == 0, tag, "a1=a2=b2=c2=d2=0")
        _require(d1 == -b1 - c1, tag, "d1=-b1-c1")
        p = Poly2({(0, 1): 1, (2, 1): -(4 * b1 + 2 * c1)})
        q = Poly2({(1, 0): -1, (1, 2): -4 * b1})
    elif tag == "bb5":
        _require(a2 == b2 == c1 == c2 == d2 == 0, tag, "a2=b2=c1=c2=d2=0")
        p = Poly2({(0, 1): 1, (1, 1): 2 * a1, (2, 1): -(3 * b1 - d1)})
        q = Poly2({
            (1, 0): -1, (2, 0): a1, (0, 2): -a1,
            (3, 0): b1 + d1, (1, 2): d1 - 3 * b1,
        })
    elif tag == "bb7":
        _require(a1 == a2 == b1 == b2 == c2 == d2 == 0, tag, "a1=a2=b1=b2=c2=d2=0")
        _require(d1 == -c1, tag, "d1=-c1")
        p = Poly2({(0, 1): 1, (2, 1): -2 * c1})
        q = Poly2({(1, 0): -1})
    else:
        raise ValueError(f"unknown normal form tag {tag!r}")
    reduced = VectorField(p if not p.is_zero else zero, q)
    full = build_system(params)
    if reduced != full:
        raise HypothesesViolated(f"normal form {tag} disagrees with the family construction")
    return reduced
