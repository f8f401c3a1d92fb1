import re
from fractions import Fraction as F

import pytest

from discflow.classify import classify_from_jacobian
from discflow.compactify import chart_field, infinite_equilibria
from discflow.desing import characteristic_directions, run_chain
from discflow.family import FamilyParams, build_system, center_cases, global_cases
from discflow.poly import NotDivisible, Poly2, VectorField, X, Y
from discflow.roots import RealRoot


def test_zero_degree_sentinel():
    assert Poly2.zero().degree == -1
    assert Poly2.zero().lowest_order == -1
    assert Poly2.const(3).degree == 0
    assert (X**2 * Y).degree == 3


def test_no_zero_coefficients_stored():
    p = Poly2({(2, 0): 1, (0, 1): 0})
    assert (2, 0) in p.terms and (0, 1) not in p.terms
    q = (X**2 - 1) + (1 - X**2)
    assert q.is_zero and q.terms == {}


def test_partial_derivative():
    assert (X**2 * Y).partial("x") == 2 * X * Y
    assert (X**2 * Y).partial("y") == X**2
    assert Poly2.const(5).partial("x").is_zero


def test_add_mul_basics():
    assert (X + Y) * (X - Y) == X**2 - Y**2
    assert (X**2 - 1) + (1 - X**2) == Poly2.zero()
    p = 2 * X - Y + F(1, 2)
    assert p.coefficient(0, 0) == F(1, 2)


def test_substitute_expansion():
    # y^2 - x^2 under (x, x*v) -> x^2 (v^2 - 1)
    out = (Y**2 - X**2).substitute(X, X * Y)
    assert out == X**2 * Y**2 - X**2
    assert Y.substitute(X, X * Y) == X * Y


def test_substitute_cubic_example():
    c1 = F(3, 7)
    p = Y**3 - c1 * X**2 * Y
    out = p.substitute(X, X * Y)
    assert out == X**3 * Y**3 - c1 * X**3 * Y


def test_homogeneous_part():
    p = Y + X**3
    assert p.homogeneous_part(1) == Y
    assert p.homogeneous_part(3) == X**3
    assert p.homogeneous_part(2).is_zero


def test_divide_monomial():
    p = X**2 * (2 * Poly2.const(F(5)) - Y**2)
    assert p.divide_monomial("x", 1) == X * (10 - Y**2)
    q = X**3 * Y + X**2 * Y**2
    assert q.divide_monomial("x", 2) == X * Y + Y**2
    with pytest.raises(NotDivisible):
        (X + Y).divide_monomial("x", 1)


@pytest.mark.parametrize(
    ("var", "k", "message"),
    [
        ("x", 2, "term x^1*y^2 is not divisible by x^2"),
        ("y", 3, "term x^1*y^2 is not divisible by y^3"),
        ("u", 3, "term u^1*v^2 is not divisible by u^3"),
        ("v", 4, "term u^1*v^2 is not divisible by v^4"),
    ],
)
def test_refused_division_names_the_variable_given(var, k, message):
    # the chart names u, v are the CLI's; the term is written in the same letters
    with pytest.raises(NotDivisible, match=f"^{re.escape(message)}$"):
        (X * Y**2).divide_monomial(var, k)


@pytest.mark.parametrize("var", ["z", 0, 1])
def test_unknown_variable_lists_the_four_names(var):
    with pytest.raises(ValueError, match=f"^unknown variable {var!r}; expected 'x', 'y', 'u' or 'v'$"):
        X.partial(var)
    with pytest.raises(ValueError, match="expected 'x', 'y', 'u' or 'v'"):
        X.divide_monomial(var, 1)


def test_canonical_text():
    p = 4 * X**2 * Y - Y + Poly2.const(F(1, 2)) - X * Y**2
    # sorted by total degree desc then first exponent desc
    assert p.text() == "4*x^2*y - x*y^2 - y + 1/2"
    assert Poly2.zero().text() == "0"
    assert (X - X).text() == "0"
    assert (-X).text(("u", "v")) == "-u"
    assert (F(3, 4) * Y**2).text() == "3/4*y^2"


def test_evaluate_exact_and_float():
    p = X**2 * Y - F(1, 3) * Y
    assert p.evaluate(F(2), F(3)) == 12 - 1
    assert abs(p.evaluate_float(2.0, 3.0) - 11.0) < 1e-12


def test_evaluate_float_overflows_to_inf():
    # a float power would raise OverflowError; products overflow to inf
    assert (X**3 - Y**3).evaluate_float(1e200, 0.0) == float("inf")
    assert (X * Y**2).evaluate_float(-1e200, 1e200) == float("-inf")


def test_vector_field_invariants():
    vf = VectorField(Y, -X)
    assert vf.effective_degree == 1
    assert vf.is_equilibrium((0, 0))
    assert vf.jacobian((0, 0)) == [[0, 1], [-1, 0]]
    with pytest.raises(ValueError, match="^vector field components must not both be zero$"):
        VectorField(Poly2.zero(), Poly2.zero())
    assert VectorField(Poly2.zero(), Y).p.is_zero


def _exact_values():
    params = FamilyParams.make(b1=-1, c1=4, d1=-3)
    vf = build_system(params)
    infinity = infinite_equilibria(vf)
    chain = run_chain(chart_field(vf, "U2").field, [("blowup",)])
    return [
        params, center_cases(params), global_cases(params), vf, RealRoot.surd(1, 2, 3),
        chart_field(vf, "U1"), infinity.equilibria[0], infinity,
        characteristic_directions(VectorField(Y, -X)), chain.steps[0], chain,
        classify_from_jacobian([[0, 1], [-1, 0]]),
    ]


@pytest.mark.parametrize("value", _exact_values(), ids=lambda v: type(v).__name__)
def test_exact_values_are_field_tuples(value):
    fields = tuple(getattr(value, name) for name in value._fields)
    assert tuple(value) == fields and value == fields and hash(value) == hash(fields)
    assert type(value)(*fields) == value
    for name in (value._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_vector_field_direction_form():
    vf = VectorField(Y + X**3, -X + Y**2)
    # y*p_k - x*q_k from the parts of degree k only
    assert vf.direction_form(vf.lowest_order) == X**2 + Y**2
    assert vf.direction_form(2) == -X * Y**2
    assert vf.direction_form(vf.effective_degree) == X**3 * Y
    assert vf.direction_form(0).is_zero


def test_swap_vars():
    p = X**2 * Y - 3 * Y**3
    assert p.swap_vars() == Y**2 * X - 3 * X**3
