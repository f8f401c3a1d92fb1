import json
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given

from discflow.family import (
    FamilyParams,
    NotConserved,
    build_system,
    center_cases,
    f_invariant,
    from_complex,
    g_invariant,
    global_cases,
    hamiltonian,
    lie_derivative,
)
from discflow.poly import Poly2, VectorField, X, Y

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


class TestParams:
    def test_make_and_json_roundtrip(self):
        p = FamilyParams.make(a1="1/2", b1=-2, d1="3/4")
        text = json.dumps(p.to_json())
        assert FamilyParams.from_json(text) == p

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            FamilyParams.make(zz=1)
        with pytest.raises(ValueError):
            FamilyParams.from_json('{"a9": "1"}')

    def test_float_value_rejected(self):
        with pytest.raises(ValueError):
            FamilyParams.from_json('{"a1": 0.5}')

    def test_from_complex(self):
        p = from_complex((1, 2), (0, 1), (0, 0), (F(1, 3), 0))
        assert (p.a1, p.a2, p.b1, p.b2) == (1, 2, 0, 1)
        assert (p.c1, p.c2, p.d1, p.d2) == (0, 0, F(1, 3), 0)
        assert from_complex((0, 0), (0, 0), (0, 0), (0, 0)).is_zero()


class TestBuildSystem:
    def test_all_zero_is_linear_center(self):
        assert build_system(FamilyParams()) == VectorField(Y, -X)

    def test_quarter_slice_example(self):
        # b1 = 1, c1 = -4, d1 = 3: x' = y + 4x^2 y, y' = -x - 4x y^2
        p = FamilyParams.make(b1=1, c1=-4, d1=3)
        assert build_system(p) == VectorField(
            Y + 4 * X**2 * Y, -X - 4 * X * Y**2
        )

    def test_cubic_restoring_example(self):
        # b1 = -1, d1 = -3: x' = y, y' = -x - 4x^3
        p = FamilyParams.make(b1=-1, d1=-3)
        assert build_system(p) == VectorField(Y, -X - 4 * X**3)

    def test_full_generic_coefficients(self):
        p = FamilyParams.make(a1=1, a2=2, b1=3, b2=4, c1=5, c2=6, d1=7, d2=8)
        vf = build_system(p)
        assert vf.p.coefficient(3, 0) == -(4 + 6 + 8)
        assert vf.p.coefficient(2, 1) == -(9 + 5 - 7)
        assert vf.p.coefficient(1, 2) == 12 - 6 - 8
        assert vf.q.coefficient(3, 0) == 3 + 5 + 7
        assert vf.q.coefficient(2, 1) == -(12 + 6 - 8)
        assert vf.q.coefficient(1, 2) == -9 + 5 + 7
        assert vf.q.coefficient(0, 3) == 4 - 6 + 8


class TestCenterCases:
    def test_all_zero_matches_everything(self):
        report = center_cases(FamilyParams())
        assert report.matching_cases == ("i", "ii", "iii", "iv")
        assert report.f_value == 0 and report.g_value == 0

    def test_c2_nonzero_blocks_all(self):
        for kwargs in ({"c2": 1}, {"c2": 1, "b1": 2, "d1": 6}):
            assert center_cases(FamilyParams.make(**kwargs)).matching_cases == ()

    def test_triple_slice_membership(self):
        # d1 = 3*b1 vector also matches the F = 0 set when F vanishes
        p = FamilyParams.make(b1=1, c1=-4, d1=3)
        cases = center_cases(p).matching_cases
        assert "i" in cases and "ii" in cases

    def test_f_and_g_values(self):
        p = FamilyParams.make(a1=1, a2=2, d1=3, d2=F(1, 2))
        expected_f = (
            4 * F(1, 8)
            - 12 * F(1, 2) * 9
            + 12 * F(1, 4) * 3
            - 4 * 27
            - F(1, 8)
            + 3 * F(1, 2) * 9
        )
        assert f_invariant(p) == expected_f
        q = FamilyParams.make(a1=1, a2=2, b1=3, b2=F(1, 2))
        assert g_invariant(q) == (
            -4 * F(1, 8)
            + 12 * F(1, 2) * 9
            + 12 * F(1, 4) * 3
            - 4 * 27
            + F(1, 8)
            - 3 * F(1, 2) * 9
        )

    def test_f_vanishes_without_a_coefficients(self):
        p = FamilyParams.make(d1=2, d2=5)
        assert f_invariant(p) == 0

    def test_g_vanishes_without_mixed_terms(self):
        p = FamilyParams.make(a1=7, b1=5)  # b2 = 0 and a2 = 0
        assert g_invariant(p) == 0

    def test_opposite_slice(self):
        p = FamilyParams.make(b1=2, b2=-1, d1=-2, d2=-1)
        assert "iii" in center_cases(p).matching_cases


class TestGlobalCases:
    def test_examples_per_statement(self):
        assert global_cases(FamilyParams.make(b1=1, c1=-4, d1=3)).matching_statements == ("a",)
        assert global_cases(FamilyParams.make(b1=-1, d1=-3)).matching_statements == ("b",)
        assert global_cases(FamilyParams.make(a1=1, c1=-2)).matching_statements == ("c",)
        assert global_cases(FamilyParams()).matching_statements == ("d",)
        assert global_cases(FamilyParams.make(b1=1, c1=-3, d1=2)).matching_statements == ("e",)
        assert global_cases(FamilyParams.make(a1=1, b1=-2)).matching_statements == ("f",)
        assert global_cases(FamilyParams.make(c1=-1, d1=1)).matching_statements == ("g",)

    def test_boundary_strictness(self):
        # 2*b1 + c1 <= 0 allows the boundary in (e)
        assert "e" in global_cases(FamilyParams.make(b1=1, c1=-2, d1=1)).matching_statements
        # but c1 < 0 in (a) is strict
        assert global_cases(FamilyParams.make(b1=0, c1=0, d1=0)).matching_statements == ("d",)
        # (f) inequalities are strict: boundary a1^2 + 4*(b1+d1) = 0 fails
        p = FamilyParams.make(a1=2, b1=-1)
        assert (2 * 2 + 4 * (-1 + 0)) == 0
        assert "f" not in global_cases(p).matching_statements

    def test_non_members(self):
        assert global_cases(FamilyParams.make(b1=1, c1=-4, d1=3, a2=1)).matching_statements == ()
        assert global_cases(FamilyParams.make(c1=-1, d1=2)).matching_statements == ()
        # (e) excludes d1 = 3*b1 (that parameter line belongs to (a))
        p = FamilyParams.make(b1=1, c1=-4, d1=3)
        assert "e" not in global_cases(p).matching_statements

    def test_globals_are_centers(self):
        for kwargs in (
            {"b1": 1, "c1": -4, "d1": 3},
            {"b1": -1, "d1": -3},
            {"a1": 1, "c1": -2},
            {},
            {"b1": 1, "c1": -3, "d1": 2},
            {"a1": 1, "b1": -2},
            {"c1": -1, "d1": 1},
        ):
            p = FamilyParams.make(**kwargs)
            assert global_cases(p).is_global
            assert center_cases(p).is_center


# each reduced normal form written out from the paper, as a field of its free
# parameters: build_system must equal it wherever the form's hypotheses hold
NORMAL_FORMS = {
    "aa1": lambda p: VectorField(Y + 4 * p.b1 * X**2 * Y, -X - 4 * p.b1 * X * Y**2),
    "aa2": lambda p: VectorField(Y, -X + 4 * p.b1 * X**3),
    "aa3": lambda p: VectorField(
        Y + 2 * p.a1 * X * Y - p.c1 * X**2 * Y,
        -X + p.a1 * (X**2 - Y**2) + p.c1 * (X**3 + X * Y**2),
    ),
    "aa4": lambda p: VectorField(Y - (4 * p.b1 + 2 * p.c1) * X**2 * Y, -X - 4 * p.b1 * X * Y**2),
    "bb5": lambda p: VectorField(
        Y + 2 * p.a1 * X * Y - (3 * p.b1 - p.d1) * X**2 * Y,
        -X + p.a1 * (X**2 - Y**2) + (p.b1 + p.d1) * X**3 + (p.d1 - 3 * p.b1) * X * Y**2,
    ),
    "bb7": lambda p: VectorField(Y - 2 * p.c1 * X**2 * Y, -X),
}

# each global statement but (d): members inside it, and the parameters that its
# normal form's hypotheses fix, each shifted alone by 1/2 in the test
HYPOTHESES = {
    "a": ([{"b1": 1, "c1": -4, "d1": 3}, {"b1": F(1, 2), "c1": -2, "d1": F(3, 2)}],
          ("a1", "a2", "b2", "c2", "d2", "d1", "c1")),
    "b": ([{"b1": -1, "d1": -3}, {"b1": F(-2, 3), "d1": -2}],
          ("a1", "a2", "b2", "c1", "c2", "d2", "d1")),
    "c": ([{"a1": 1, "c1": -2}, {"a1": F(3, 5), "c1": F(-7, 2)}],
          ("a2", "b1", "b2", "c2", "d1", "d2")),
    "e": ([{"b1": 1, "c1": -3, "d1": 2}, {"b1": F(5, 4), "c1": -3, "d1": F(7, 4)}],
          ("a1", "a2", "b2", "c2", "d2", "d1")),
    "f": ([{"b1": -1, "d1": -2}, {"a1": F(-1, 2), "b1": -2, "d1": F(9, 7)}],
          ("a2", "b2", "c1", "c2", "d2")),
    "g": ([{"c1": F(-1, 5), "d1": F(1, 5)}, {"c1": F(-3, 8), "d1": F(3, 8)}],
          ("a1", "a2", "b1", "b2", "c2", "d2", "c1")),
}


class TestNormalForms:
    def test_aa1(self):
        p = FamilyParams.make(b1=1, c1=-4, d1=3)
        assert build_system(p) == VectorField(Y + 4 * X**2 * Y, -X - 4 * X * Y**2)

    def test_aa2(self):
        p = FamilyParams.make(b1=-1, d1=-3)
        assert build_system(p) == VectorField(Y, -X - 4 * X**3)

    def test_aa3(self):
        p = FamilyParams.make(a1=1, c1=-2)
        assert build_system(p) == VectorField(
            Y + 2 * X * Y + 2 * X**2 * Y,
            -X + X**2 - Y**2 - 2 * X**3 - 2 * X * Y**2,
        )

    def test_aa4_cancellation(self):
        p = FamilyParams.make(b1=1, c1=-2, d1=1)
        assert build_system(p) == VectorField(Y, -X - 4 * X * Y**2)

    def test_bb5(self):
        p = FamilyParams.make(a1=1, b1=-2)
        assert build_system(p) == VectorField(
            Y + 2 * X * Y + 6 * X**2 * Y,
            -X + X**2 - Y**2 - 2 * X**3 + 6 * X * Y**2,
        )

    def test_bb7(self):
        p = FamilyParams.make(c1=-1, d1=1)
        assert build_system(p) == VectorField(Y + 2 * X**2 * Y, -X)

    def test_hypotheses_enforced(self):
        # each hypothesis of each statement is needed: a dropped conjunct lets its shift through
        for letter, (members, fixed) in HYPOTHESES.items():
            for kwargs in members:
                p = FamilyParams.make(**kwargs)
                assert letter in global_cases(p).matching_statements
                for name in fixed:  # the shift breaks one hypothesis and no other condition
                    off = p._replace(**{name: getattr(p, name) + F(1, 2)})
                    assert letter not in global_cases(off).matching_statements, (letter, kwargs, name)
                # every statement but (d) lies on a normal form with a2 = 0
                off = p._replace(a2=F(1))
                assert global_cases(off).matching_statements == (), (letter, kwargs)

    @pytest.mark.parametrize(
        "tag,kwargs",
        [
            ("aa1", {"b1": F(1, 2), "c1": -2, "d1": F(3, 2)}),
            ("aa2", {"b1": F(-2, 3), "d1": -2}),
            ("aa3", {"a1": F(3, 5), "c1": F(-7, 2)}),
            ("aa4", {"b1": F(5, 4), "c1": -3, "d1": F(7, 4)}),
            ("bb5", {"a1": F(-1, 2), "b1": 2, "d1": F(9, 7)}),
            ("bb7", {"c1": F(-3, 8), "d1": F(3, 8)}),
        ],
    )
    def test_normal_form_equals_family(self, tag, kwargs):
        p = FamilyParams.make(**kwargs)
        assert build_system(p) == NORMAL_FORMS[tag](p)


def _cmul(u, v):
    """Product of complex polynomials given as (re, im) pairs of Poly2."""
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


class TestComplexForm:
    @given(st.tuples(*[rationals] * 8))
    def test_build_system_is_complex_expansion_less_y_cubed(self, values):
        # w' = -i*w + i*(A3*conj(w)^2 + A4*w^3 + A5*w^2*conj(w) + A6*w*conj(w)^2)
        p = FamilyParams(*values)
        w, wb = (X, Y), (X, -Y)
        a3, a4, a5, a6 = ((Poly2.const(values[k]), Poly2.const(values[k + 1])) for k in range(0, 8, 2))
        terms = [
            _cmul(a3, _cmul(wb, wb)),
            _cmul(a4, _cmul(w, _cmul(w, w))),
            _cmul(a5, _cmul(w, _cmul(w, wb))),
            _cmul(a6, _cmul(w, _cmul(wb, wb))),
        ]
        re = sum((t[0] for t in terms), Poly2.zero())
        im = sum((t[1] for t in terms), Poly2.zero())
        expansion = VectorField(Y - im, -X + re)
        assert build_system(p) == VectorField(expansion.p - (p.b1 - p.c1 + p.d1) * Y**3, expansion.q)


def _f_expanded(p):
    a1, a2, d1, d2 = p.a1, p.a2, p.d1, p.d2
    return (a2**2 * d2**3 - 3 * a2**2 * d2 * d1**2 + 6 * a2 * a1 * d2**2 * d1
            - 2 * a2 * a1 * d1**3 - a1**2 * d2**3 + 3 * a1**2 * d2 * d1**2)


def _g_expanded(p):
    a1, a2, b1, b2 = p.a1, p.a2, p.b1, p.b2
    return (-(a2**2) * b2**3 + 3 * a2**2 * b2 * b1**2 + 6 * a2 * a1 * b2**2 * b1
            - 2 * a2 * a1 * b1**3 + a1**2 * b2**3 - 3 * a1**2 * b2 * b1**2)


@given(st.tuples(*[rationals] * 8))
def test_invariants_equal_their_expansions(values):
    p = FamilyParams(*values)
    assert f_invariant(p) == _f_expanded(p)
    assert g_invariant(p) == _g_expanded(p)


HALF = F(1, 2)


class TestHamiltonian:
    @given(rationals, rationals, rationals, rationals, rationals)
    def test_divergence_free_stratum(self, a1, a2, b1, b2, c1):
        p = FamilyParams(a1, a2, b1, b2, c1, F(0), 3 * b1, -3 * b2)
        vf = build_system(p)
        h = hamiltonian(vf)
        assert lie_derivative(h, vf).is_zero
        assert h.partial("y") == vf.p and h.partial("x") == -vf.q
        assert h.homogeneous_part(2) == HALF * (X**2 + Y**2)
        assert h.coefficient(0, 0) == 0

    def test_nonzero_divergence_refused(self):
        with pytest.raises(NotConserved):
            hamiltonian(build_system(FamilyParams.make(c2=1)))
        with pytest.raises(NotConserved):
            hamiltonian(build_system(FamilyParams.make(b1=1, c2=F(-1, 3), d1=3)))

    @pytest.mark.parametrize(
        "tag,kwargs,expected",
        [
            ("aa1", {"b1": 1, "c1": -4, "d1": 3}, HALF * (X**2 + Y**2) + 2 * X**2 * Y**2),
            ("aa2", {"b1": -1, "d1": -3}, HALF * (X**2 + Y**2) + X**4),
            ("aa3", {"a1": 1, "c1": -2},
             HALF * (X**2 + Y**2) - F(1, 3) * X**3 + HALF * X**4 + X * Y**2 + X**2 * Y**2),
            ("aa3", {"a1": F(-2, 3), "c1": F(-5, 4)},
             HALF * (X**2 + Y**2) + F(2, 9) * X**3 + F(5, 16) * X**4 - F(2, 3) * X * Y**2
             + F(5, 8) * X**2 * Y**2),
        ],
    )
    def test_catalogued_integrals(self, tag, kwargs, expected):
        p = FamilyParams.make(**kwargs)
        assert build_system(p) == NORMAL_FORMS[tag](p)
        assert hamiltonian(build_system(p)) == expected

    def test_outside_regime_refused(self):
        # d1 != 3*b1: x' = y - 2x^2 y, y' = -x + 2x^3 - 2xy^2 has divergence -8xy
        vf = build_system(FamilyParams.make(b1=1, d1=1))
        assert vf.p.partial("x") + vf.q.partial("y") == -8 * X * Y
        with pytest.raises(NotConserved):
            hamiltonian(vf)
