from fractions import Fraction as F

import pytest

from discflow.compactify import ChartId, chart_field, infinite_equilibria
from discflow.desing import time_rescale
from discflow.family import FamilyParams, build_system
from discflow.poly import NotDivisible, Poly2, VectorField, X, Y

from reference_systems import (
    monomial_multiple,
    params_sum_slice,
    params_triple_slice,
    u1_chart_triple_slice,
    u1_line_rescaled_opposite_slice,
    u2_chart_triple_slice,
)

LINEAR_CENTER = VectorField(Y, -X)


class TestChartField:
    def test_linear_center_u1(self):
        cf = chart_field(LINEAR_CENTER, ChartId.U1)
        assert cf.n_used == 1
        assert cf.field == VectorField(-1 - X**2, -X * Y)

    def test_pure_cubic_u1(self):
        # x' = y, y' = -x + 4*b1*x^3
        b1 = F(-2)
        vf = VectorField(Y, -X + 4 * b1 * X**3)
        cf = chart_field(vf, ChartId.U1)
        assert cf.field.p == Poly2.const(4 * b1) - Y**2 - X**2 * Y**2
        assert cf.field.q == -X * Y**3

    @pytest.mark.parametrize(
        "a1,a2,b1,b2,c1",
        [
            (1, -2, 3, F(1, 2), -1),
            (0, 0, 1, 0, -4),
            (F(1, 3), 1, -2, 2, F(5, 7)),
            (0, 1, F(1, 2), -1, 0),
        ],
    )
    def test_u1_u2_match_hand_expansion(self, a1, a2, b1, b2, c1):
        params = params_triple_slice(a1=a1, a2=a2, b1=b1, b2=b2, c1=c1)
        vf = build_system(params)
        u1 = chart_field(vf, ChartId.U1)
        u2 = chart_field(vf, ChartId.U2)
        assert u1.field == u1_chart_triple_slice(a1, a2, b1, b2, c1)
        assert u2.field == u2_chart_triple_slice(a1, a2, b1, b2, c1)

    def test_dilate_chart_numerator(self):
        # U1 is (qd - u*pd, -v*pd), pd and qd the dilations p(1/v, u/v)*v^n, q(...)*v^n
        b1 = F(2, 3)
        cf = chart_field(VectorField(Y, -X + 4 * b1 * X**3), ChartId.U1)
        pd, qd = X * Y**2, -(Y**2) + Poly2.const(4 * b1)  # y and -x + 4*b1*x^3 at n = 3
        assert cf.n_used == 3
        assert cf.field == VectorField(qd - X * pd, -(Y * pd))
        cf = chart_field(VectorField(Poly2.const(1), Poly2.zero()), ChartId.U1)
        assert cf.n_used == 0
        assert cf.field == VectorField(-X, -Y)  # pd = 1 at n = 0

    def test_u3_is_identity(self):
        vf = build_system(params_triple_slice(b1=1, c1=-4))
        assert chart_field(vf, ChartId.U3).field == vf

    def test_v_chart_sign_even_degree(self):
        # quadratic field: V charts flip sign
        vf = VectorField(Y + X * Y, -X + X**2)
        u1 = chart_field(vf, ChartId.U1)
        v1 = chart_field(vf, ChartId.V1)
        assert v1.field == VectorField(-u1.field.p, -u1.field.q)

    def test_v_chart_sign_odd_degree(self):
        vf = build_system(params_triple_slice(b1=1, c1=-4))
        assert chart_field(vf, ChartId.V1).field == chart_field(vf, ChartId.U1).field
        assert chart_field(vf, ChartId.V2).field == chart_field(vf, ChartId.U2).field

    def test_infinity_line_invariant(self):
        for chart in (ChartId.U1, ChartId.U2):
            cf = chart_field(build_system(params_triple_slice(a1=1, a2=2, b1=3, b2=4, c1=5)), chart)
            assert monomial_multiple(cf.field.q, "y", 1)


class TestInfiniteEquilibria:
    def test_linear_center_has_none(self):
        report = infinite_equilibria(LINEAR_CENTER)
        assert report.equilibria == ()
        assert not report.line_of_equilibria

    def test_symmetric_pair_and_vertical_point(self):
        # b1 = -1, c1 = 2: u-roots at +/- sqrt((-4*b1-c1)/(2*c1)) = +/- sqrt(1/2)
        params = params_triple_slice(b1=-1, c1=2)
        report = infinite_equilibria(build_system(params))
        assert not report.line_of_equilibria
        u1_roots = [e for e in report.equilibria if e.chart is ChartId.U1]
        u2_roots = [e for e in report.equilibria if e.chart is ChartId.U2]
        assert len(u1_roots) == 2 and len(u2_roots) == 1
        vals = sorted(e.u.approx() for e in u1_roots)
        assert vals[0] == pytest.approx(-((0.5) ** 0.5), abs=1e-12)
        assert vals[1] == pytest.approx((0.5) ** 0.5, abs=1e-12)
        assert all(e.u.kind != "interval" for e in u1_roots)
        assert u2_roots[0].u.a == 0

    def test_line_of_equilibria(self):
        # c1 = c2 = 0, d1 = -b1, d2 = b2 with the cubic part present
        params = FamilyParams.make(b2=1, d2=1)
        report = infinite_equilibria(build_system(params))
        assert report.line_of_equilibria
        assert report.equilibria == ()

    def test_json_shape(self):
        report = infinite_equilibria(build_system(params_triple_slice(b1=-1, c1=2)))
        data = report.to_json()
        assert data["line_of_equilibria"] is False
        assert {e["chart"] for e in data["equilibria"]} == {"U1", "U2"}


class TestJacobianAt:
    def test_linear_center(self):
        assert LINEAR_CENTER.jacobian((0, 0)) == [[0, 1], [-1, 0]]

    @pytest.mark.parametrize(
        "a2,b1,b2,d1",
        [
            (1, 2, 3, 5),
            (F(1, 2), -1, F(2, 3), 4),
            (0, 3, 1, -2),
            (2, -2, -1, F(7, 3)),
            (-1, F(3, 4), F(5, 2), -3),
        ],
    )
    def test_u2_origin_matrix(self, a2, b1, b2, d1):
        # The U2-origin Jacobian of the compactified family on the slice
        # c2 = 0, d2 = -b2*d1/b1 is [[2*b2*(b1+d1)/b1, a2], [0, b2*(d1-b1)/b1]].
        params = params_sum_slice(a1=1, a2=a2, b1=b1, b2=b2, c1=-1, d1=d1)
        u2 = chart_field(build_system(params), ChartId.U2)
        jac = u2.field.jacobian((0, 0))
        b1f, b2f, d1f = F(b1), F(b2), F(d1)
        assert jac == [
            [2 * b2f * (b1f + d1f) / b1f, F(a2)],
            [0, b2f * (d1f - b1f) / b1f],
        ]

    def test_zero_cubic_specialization(self):
        params = params_sum_slice(a1=1, a2=0, b1=2, b2=0, c1=-1, d1=5)
        u2 = chart_field(build_system(params), ChartId.U2)
        assert u2.field.jacobian((0, 0)) == [[0, 0], [0, 0]]


class TestRescaleInfinityLine:
    """A circle of equilibria at infinity is divided out of a chart field by v, exactly."""

    def test_reduced_field_opposite_slice(self):
        a1, a2, b1, b2 = 1, -2, 3, F(1, 2)
        params = FamilyParams.make(a1=a1, a2=a2, b1=b1, b2=b2, d1=-3, d2=b2)
        cf = chart_field(build_system(params), ChartId.U1)
        assert time_rescale(cf.field, "v", 1) == u1_line_rescaled_opposite_slice(a1, a2, b1, b2)

    def test_reduced_field_b2_zero(self):
        a1, b1 = 1, -1
        params = FamilyParams.make(a1=a1, b1=b1, d1=-b1)
        reduced = time_rescale(chart_field(build_system(params), ChartId.U1).field, "v", 1)
        # u' = a1*(1 - 3u^2) - v - u^2 v, v' = 4*b1*u - u*v*(2*a1 + v)
        expect_p = F(a1) * (1 - 3 * X**2) - Y - X**2 * Y
        expect_q = 4 * F(b1) * X - X * Y * (2 * F(a1) + Y)
        assert reduced == VectorField(expect_p, expect_q)

    def test_not_divisible(self):
        cf = chart_field(LINEAR_CENTER, ChartId.U1)
        with pytest.raises(NotDivisible):
            time_rescale(cf.field, "v", 1)

    def test_simple_division(self):
        assert time_rescale(VectorField(Y * X, Y**2), "v", 1) == VectorField(X, Y)
