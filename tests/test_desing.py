from fractions import Fraction as F

import pytest

from discflow.compactify import ChartId, chart_field
from discflow.desing import (
    ChainTooDeep,
    NotEquilibrium,
    ZeroAlpha,
    apply_step,
    characteristic_directions,
    choose_shear_beta,
    linear_change,
    run_chain,
    shear,
    time_rescale,
    translate,
    twist,
    vertical_blowup,
)
from discflow.family import FamilyParams, build_system
from discflow.poly import NotDivisible, Poly2, VectorField, X, Y

from reference_systems import (
    params_sum_slice,
    params_triple_slice,
    u1_blowup_quarter_slice,
    u1_blowup_rescaled_quarter_slice,
    u1_balanced_blowup_rescaled,
    u1_sum_blowup_rescaled,
    u2_balanced_blowup_rescaled,
    u2_blowup_quarter_slice,
    u2_blowup_rescaled_quarter_slice,
    u2_double_blowup_sheared,
    u2_double_blowup_stage0,
    u2_double_blowup_stage2,
    u2_double_blowup_stage3,
    u2_growth_blowup_rescaled,
    u2_mixed_blowup_rescaled,
    u2_mixed_second_blowup,
    u2_mixed_second_blowup_rescaled,
    u2_mixed_translated,
    u2_sum_blowup_rescaled,
)


class TestCharacteristicDirections:
    def test_quarter_slice_u2(self):
        # U2 chart on the b1 = -c1/4 specialization: r = v*(v^2 - c1*u^2)
        c1 = F(-4)
        params = params_triple_slice(b1=-c1 / 4, c1=c1)
        u2 = chart_field(build_system(params), ChartId.U2).field
        cp = characteristic_directions(u2)
        assert cp.r == Y * (Y**2 - c1 * X**2)
        assert cp.order == 2
        assert not cp.vertical_is_characteristic
        assert not cp.r.is_zero

    def test_all_directions_characteristic(self):
        vf = u2_mixed_translated(1)
        cp = characteristic_directions(vf)
        assert cp.r.is_zero
        assert cp.vertical_is_characteristic

    def test_vertical_characteristic(self):
        # double-blow-up context with the a-coefficient kept: r = 5*a1*u*v^2
        a1, b1 = F(1), F(-1)
        vf = VectorField(
            -X * (4 * b1 * X**2 - 3 * a1 * Y + a1 * X**2 * Y - Y**2 - X**2 * Y**2),
            -(Y**2) * (2 * a1 + Y),
        )
        cp = characteristic_directions(vf)
        assert cp.r == 5 * a1 * X * Y**2
        assert cp.vertical_is_characteristic
        assert not cp.r.is_zero

    def test_growth_slice_r(self):
        # c1 = 0 slice of the sum family: r = v*((d1-3*b1)*u^2 + 2*a1*u*v + v^2)
        a1, b1, d1 = F(1), F(1), F(4)
        params = params_sum_slice(a1=a1, b1=b1, d1=d1)
        u2 = chart_field(build_system(params), ChartId.U2).field
        cp = characteristic_directions(u2)
        assert cp.r == Y * ((d1 - 3 * b1) * X**2 + 2 * a1 * X * Y + Y**2)
        assert not cp.vertical_is_characteristic

    def test_not_equilibrium(self):
        with pytest.raises(NotEquilibrium):
            characteristic_directions(VectorField(Poly2.const(1), Poly2.zero()))

    def test_direction_form_homogeneous(self):
        # r is homogeneous of degree order+1 (or identically zero)
        fields = [
            VectorField(Y + X**3, -X + Y**2),
            VectorField(X**2 - Y**2, X * Y),
            u2_mixed_translated(1),
        ]
        for vf in fields:
            cp = characteristic_directions(vf)
            if not cp.r.is_zero:
                assert cp.r.homogeneous_part(cp.order + 1) == cp.r


class TestBasicTransforms:
    def test_twist_zero_alpha(self):
        with pytest.raises(ZeroAlpha):
            twist(VectorField(Y, -X), 0)

    def test_shear_zero(self):
        with pytest.raises(ZeroAlpha):
            shear(VectorField(Y, -X), 0)

    def test_twist_blowdown_roundtrip(self):
        # push a twisted field back through the inverse change: identity
        vf = VectorField(Y + X**2, -X + X * Y)
        out = twist(vf, F(3, 2))
        back = linear_change(out, (1, 0, F(-2, 3), F(2, 3)))
        assert back == vf

    def test_linear_change_singular(self):
        with pytest.raises(ValueError):
            linear_change(VectorField(Y, -X), (1, 2, 2, 4))

    def test_translate(self):
        vf = VectorField(Y, -X + X**2)
        out = translate(vf, 1, 0)
        assert out.evaluate((0, 0)) == (0, 0)

    def test_vertical_blowup_requires_equilibrium(self):
        with pytest.raises(NotDivisible):
            vertical_blowup(VectorField(Poly2.const(1), Poly2.zero()))

    def test_time_rescale_not_divisible(self):
        with pytest.raises(NotDivisible):
            time_rescale(VectorField(X, Y), "x", 2)

    def test_time_rescale_exact(self):
        vf = VectorField(X**2 * Y, X * Y**2)
        out = time_rescale(vf, "x", 1)
        assert out == VectorField(X * Y, Y**2)

    def test_choose_shear_beta(self):
        # vertical characteristic example from above: a shear must free it
        a1, b1 = F(1), F(-1)
        vf = VectorField(
            -X * (4 * b1 * X**2 - 3 * a1 * Y + a1 * X**2 * Y - Y**2 - X**2 * Y**2),
            -(Y**2) * (2 * a1 + Y),
        )
        beta = choose_shear_beta(vf)
        sheared = shear(vf, beta)
        assert not characteristic_directions(sheared).vertical_is_characteristic

    def test_twist_cannot_free_vertical(self):
        # the second-coordinate twist fixes the vertical direction, so the
        # characteristic flag must survive any twist parameter
        a1, b1 = F(1), F(-1)
        vf = VectorField(
            -X * (4 * b1 * X**2 - 3 * a1 * Y + a1 * X**2 * Y - Y**2 - X**2 * Y**2),
            -(Y**2) * (2 * a1 + Y),
        )
        for alpha in (1, -1, 2, F(-1, 2)):
            assert characteristic_directions(twist(vf, alpha)).vertical_is_characteristic


class TestQuarterSliceChains:
    """Blow-up chains on the b1 = -c1/4 specialization."""

    C1 = F(-4)

    def _chart(self, chart):
        params = params_triple_slice(b1=-self.C1 / 4, c1=self.C1)
        return chart_field(build_system(params), chart).field

    def test_u1_chain(self):
        chain = run_chain(self._chart(ChartId.U1), [("blowup",), ("rescale", "u", 1)])
        assert chain.steps[0].output == u1_blowup_quarter_slice(self.C1)
        assert chain.steps[1].output == u1_blowup_rescaled_quarter_slice(self.C1)

    def test_u2_chain(self):
        chain = run_chain(self._chart(ChartId.U2), [("blowup",), ("rescale", "u", 1)])
        assert chain.steps[0].output == u2_blowup_quarter_slice(self.C1)
        assert chain.steps[1].output == u2_blowup_rescaled_quarter_slice(self.C1)

    def test_chain_json_canonical_text(self):
        chain = run_chain(self._chart(ChartId.U1), [("blowup",), ("rescale", "u", 1)])
        data = chain.to_json(("u", "v"))
        assert data["steps"][1]["u_dot"] == u1_blowup_rescaled_quarter_slice(self.C1).p.text(("u", "v"))
        assert data["steps"][1]["v_dot"] == "v^3 + 4*v"


class TestDoubleBlowupChain:
    """The shear-then-blow-up chain on the c1 = 0 slice."""

    @pytest.mark.parametrize("b1", [F(-1), F(1, 2)])
    def test_full_chain(self, b1):
        params = params_triple_slice(b1=b1, c1=0)
        start = chart_field(build_system(params), ChartId.U2).field
        chain = run_chain(
            start,
            [("blowup",), ("rescale", "u", 1), ("shear", -1), ("blowup",), ("rescale", "u", 2)],
        )
        assert chain.steps[1].output == u2_double_blowup_stage0(b1)
        assert chain.steps[2].output == u2_double_blowup_sheared(b1)
        assert chain.steps[3].output == u2_double_blowup_stage2(b1)
        assert chain.steps[4].output == u2_double_blowup_stage3(b1)

    def test_final_equilibria_on_exceptional_line(self):
        # b1 = 1/2: the rescaled system has equilibria (0,0), (0,1), (0,1/2)
        final = u2_double_blowup_stage3(F(1, 2))
        for v in (0, 1, F(1, 2)):
            assert final.evaluate((0, v)) == (0, 0)
        # b1 = -1: only (0,0) and (0,1) on the line u = 0
        final = u2_double_blowup_stage3(F(-1))
        coeffs = [final.q.evaluate(F(0), v) for v in (0, 1)]
        assert coeffs == [0, 0]
        assert final.q.evaluate(F(0), F(1, 2)) != 0


class TestMixedSliceChain:
    """b1 = 0 slice: blow-up, translation of the double point, second blow-up."""

    A1 = F(1)

    def test_chain(self):
        a1 = self.A1
        params = FamilyParams.make(a1=a1, c1=-(a1**2))
        start = chart_field(build_system(params), ChartId.U2).field
        chain = run_chain(
            start,
            [
                ("blowup",),
                ("rescale", "u", 1),
                ("translate", 0, -a1),
                ("blowup",),
                ("rescale", "u", 2),
            ],
        )
        assert chain.steps[1].output == u2_mixed_blowup_rescaled(a1, -(a1**2))
        assert chain.steps[2].output == u2_mixed_translated(a1)
        assert chain.steps[3].output == u2_mixed_second_blowup(a1)
        assert chain.steps[4].output == u2_mixed_second_blowup_rescaled(a1)


class TestSumSliceChains:
    def test_u1_chain(self):
        b1, c1 = F(-1), F(2)
        params = params_sum_slice(b1=b1, c1=c1, d1=-b1 - c1)
        start = chart_field(build_system(params), ChartId.U1).field
        chain = run_chain(start, [("blowup",), ("rescale", "u", 1)])
        assert chain.final == u1_sum_blowup_rescaled(b1, c1)

    def test_u2_chain(self):
        b1, c1 = F(1), F(-2)
        params = params_sum_slice(b1=b1, c1=c1, d1=-b1 - c1)
        start = chart_field(build_system(params), ChartId.U2).field
        chain = run_chain(start, [("blowup",), ("rescale", "u", 1)])
        assert chain.final == u2_sum_blowup_rescaled(b1, c1)

    def test_growth_chain(self):
        a1, b1, d1 = F(1), F(1), F(4)
        params = params_sum_slice(a1=a1, b1=b1, d1=d1)
        start = chart_field(build_system(params), ChartId.U2).field
        chain = run_chain(start, [("blowup",), ("rescale", "u", 1)])
        assert chain.final == u2_growth_blowup_rescaled(a1, b1, d1)

    def test_balanced_chains(self):
        d1 = F(1)
        params = FamilyParams.make(c1=-d1, d1=d1)
        vf = build_system(params)
        u1 = run_chain(chart_field(vf, ChartId.U1).field, [("blowup",), ("rescale", "u", 1)])
        u2 = run_chain(chart_field(vf, ChartId.U2).field, [("blowup",), ("rescale", "u", 1)])
        assert u1.final == u1_balanced_blowup_rescaled(d1)
        assert u2.final == u2_balanced_blowup_rescaled(d1)


class TestChainMechanics:
    def test_steps_compose(self):
        vf = VectorField(Y + X**2, -X)
        chain = run_chain(vf, [("twist", 1), ("translate", 0, 0)])
        assert chain.steps[0].input == vf
        assert chain.steps[1].input == chain.steps[0].output
        assert chain.final == chain.steps[-1].output

    def test_depth_limit(self):
        vf = VectorField(Y, -X)
        with pytest.raises(ChainTooDeep):
            run_chain(vf, [("twist", 1)] * 9)

    def test_unknown_step(self):
        with pytest.raises(ValueError):
            apply_step(VectorField(Y, -X), ("fold",))
        for spec in [("twist", 1, 2), ("twist",), ("blowup", 1), ("translate", 0)]:
            with pytest.raises(ValueError, match="argument"):
                apply_step(VectorField(Y, -X), spec)
