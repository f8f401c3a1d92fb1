from fractions import Fraction as F

import pytest

from discflow.classify import (
    EquilibriumClass,
    NotSemiHyperbolic,
    PointType,
    _trace_det,
    classify_from_jacobian,
    classify_point,
    refine_semihyperbolic,
)
from discflow.compactify import ChartId, chart_field
from discflow.desing import run_chain
from discflow.family import FamilyParams, build_system
from discflow.poly import Poly2, VectorField, X, Y
from discflow.roots import quadratic_roots

from reference_systems import (
    params_sum_slice,
    params_triple_slice,
    u2_double_blowup_stage3,
    u2_mixed_second_blowup_rescaled,
)


def D(a, b):
    return [[F(a), F(0)], [F(0), F(b)]]


class TestCoarseClassification:
    def test_saddle(self):
        assert classify_from_jacobian(D(-2, 1)).kind is PointType.HYPERBOLIC_SADDLE

    def test_node_stability(self):
        assert classify_from_jacobian(D(1, 2)) == EquilibriumClass(
            PointType.HYPERBOLIC_NODE, "unstable"
        )
        assert classify_from_jacobian(D(-1, -3)) == EquilibriumClass(
            PointType.HYPERBOLIC_NODE, "stable"
        )

    def test_focus(self):
        jac = [[F(1), F(-5)], [F(5), F(1)]]
        assert classify_from_jacobian(jac) == EquilibriumClass(
            PointType.HYPERBOLIC_FOCUS, "unstable"
        )

    def test_linear_center_candidate(self):
        jac = [[F(0), F(1)], [F(-1), F(0)]]
        assert classify_from_jacobian(jac).kind is PointType.LINEAR_CENTER_CANDIDATE

    def test_semi_hyperbolic_coarse(self):
        assert classify_from_jacobian(D(3, 0)).kind is PointType.SEMI_HYPERBOLIC

    def test_degenerate_tags(self):
        assert classify_from_jacobian(D(0, 0)).kind is PointType.LINEARLY_ZERO_NEEDS_BLOWUP
        jac = [[F(0), F(1)], [F(0), F(0)]]
        assert classify_from_jacobian(jac).kind is PointType.NILPOTENT_NEEDS_BLOWUP

    def test_permutation_and_scaling_invariance(self):
        for a, b in [(2, -3), (1, 4), (-2, -5)]:
            assert classify_from_jacobian(D(a, b)) == classify_from_jacobian(D(b, a))
            assert classify_from_jacobian(D(a, b)) == classify_from_jacobian(
                D(7 * a, 7 * b)
            )


def eigenvalues(jac):
    """The real eigenvalues of a rational 2x2 matrix, ascending, each once."""
    trace, det = _trace_det(jac)
    return [lam for lam, _ in quadratic_roots(1, -trace, det)]


class TestSpectrum:
    def test_real_exact(self):
        assert _trace_det(D(-8, 4)) == (-4, -32)
        assert [x.approx() for x in eigenvalues(D(-8, 4))] == [-8.0, 4.0]

    def test_complex_pair(self):
        jac = [[F(0), F(1)], [F(-1), F(0)]]
        assert _trace_det(jac) == (0, 1)
        assert eigenvalues(jac) == []

    def test_surd_eigenvalues(self):
        lam1, lam2 = eigenvalues([[F(1), F(1)], [F(1), F(0)]])
        golden = (1 + 5**0.5) / 2
        assert lam2.approx() == pytest.approx(golden, abs=1e-12)


def blown_up_field(params, chart, steps):
    start = chart_field(build_system(params), chart).field
    return run_chain(start, steps).final


ONE_BLOWUP = [("blowup",), ("rescale", "u", 1)]


class TestPaperAssertedClassifications:
    """Classification fixtures pinned from the worked case analysis."""

    def test_quarter_slice_u1_origin_saddle(self):
        # eigenvalues 2*c1 and -c1; saddle for c1 < 0
        for c1 in (F(-4), F(-1, 2)):
            final = blown_up_field(params_triple_slice(b1=-c1 / 4, c1=c1), ChartId.U1, ONE_BLOWUP)
            jac = final.jacobian((0, 0))
            assert jac == [[2 * c1, 0], [0, -c1]]
            assert classify_from_jacobian(jac).kind is PointType.HYPERBOLIC_SADDLE

    def test_quarter_slice_u2_origin_saddle(self):
        c1 = F(-4)
        final = blown_up_field(params_triple_slice(b1=-c1 / 4, c1=c1), ChartId.U2, ONE_BLOWUP)
        jac = final.jacobian((0, 0))
        assert jac == [[-2 * c1, 0], [0, c1]]
        assert classify_from_jacobian(jac).kind is PointType.HYPERBOLIC_SADDLE

    @pytest.mark.parametrize("c1,root", [(F(1), 1), (F(4), 2)])
    def test_quarter_slice_unstable_nodes(self, c1, root):
        # equilibria (0, +/- sqrt(c1)) have eigenvalues c1 and 2*c1: unstable nodes
        final = blown_up_field(params_triple_slice(b1=-c1 / 4, c1=c1), ChartId.U1, ONE_BLOWUP)
        for sign in (1, -1):
            jac = final.jacobian((0, sign * root))
            assert jac[0][0] == c1 and jac[1][1] == 2 * c1
            assert classify_from_jacobian(jac) == EquilibriumClass(
                PointType.HYPERBOLIC_NODE, "unstable"
            )

    def test_sum_slice_semi_hyperbolic_saddles(self):
        # boundary c1 = -2*b1 with b1 < 0: points (0, +/- 2*sqrt(-b1))
        b1, c1 = F(-1), F(2)
        final = blown_up_field(
            params_sum_slice(b1=b1, c1=c1, d1=-b1 - c1), ChartId.U1, ONE_BLOWUP
        )
        for v in (2, -2):
            assert refine_semihyperbolic(final, (0, v)).kind is PointType.SEMI_HYPERBOLIC_SADDLE

    def test_sum_slice_u2_origin_semi_hyperbolic_saddle(self):
        # boundary c1 = -2*b1 with b1 > 0: origin of the U2 chain
        b1, c1 = F(1), F(-2)
        final = blown_up_field(
            params_sum_slice(b1=b1, c1=c1, d1=-b1 - c1), ChartId.U2, ONE_BLOWUP
        )
        assert refine_semihyperbolic(final, (0, 0)).kind is PointType.SEMI_HYPERBOLIC_SADDLE

    def test_sum_slice_hyperbolic_saddle_interior(self):
        # c1 < -2*b1, b1 < 0: the double points become hyperbolic saddles
        b1, c1 = F(-1), F(1)
        final = blown_up_field(
            params_sum_slice(b1=b1, c1=c1, d1=-b1 - c1), ChartId.U1, ONE_BLOWUP
        )
        jac = final.jacobian((0, 2))
        assert classify_from_jacobian(jac).kind is PointType.HYPERBOLIC_SADDLE
        assert jac[0][0] == 4 * b1 + 2 * c1 and jac[1][1] == -8 * b1

    def test_sum_slice_unstable_nodes_beyond_boundary(self):
        # c1 > -2*b1, b1 < 0: the double points are unstable nodes
        b1, c1 = F(-1), F(3)
        final = blown_up_field(
            params_sum_slice(b1=b1, c1=c1, d1=-b1 - c1), ChartId.U1, ONE_BLOWUP
        )
        jac = final.jacobian((0, 2))
        assert classify_from_jacobian(jac) == EquilibriumClass(
            PointType.HYPERBOLIC_NODE, "unstable"
        )

    def test_growth_slice_saddle_node(self):
        # a1^2 + 3*b1 - d1 = 0 with a1 != 0: double point is a saddle-node
        a1, b1 = F(1), F(1)
        d1 = a1**2 + 3 * b1
        final = blown_up_field(params_sum_slice(a1=a1, b1=b1, d1=d1), ChartId.U2, ONE_BLOWUP)
        assert (
            refine_semihyperbolic(final, (0, -a1)).kind
            is PointType.SEMI_HYPERBOLIC_SADDLE_NODE
        )

    def test_balanced_slice_origin_semi_hyperbolic_saddle(self):
        # b1 = 0, d1 = -c1 > 0: U1 chain origin is a semi-hyperbolic saddle
        d1 = F(1)
        final = blown_up_field(FamilyParams.make(c1=-d1, d1=d1), ChartId.U1, ONE_BLOWUP)
        jac = final.jacobian((0, 0))
        assert jac == [[-2 * d1, 0], [0, 0]]
        assert refine_semihyperbolic(final, (0, 0)).kind is PointType.SEMI_HYPERBOLIC_SADDLE

    def test_balanced_slice_node_for_negative_d1(self):
        d1 = F(-1)
        final = blown_up_field(FamilyParams.make(c1=-d1, d1=d1), ChartId.U1, ONE_BLOWUP)
        out = refine_semihyperbolic(final, (0, 0))
        assert out.kind is PointType.SEMI_HYPERBOLIC_NODE
        assert out.stability == "unstable"

    def test_balanced_slice_u2_origin_saddle(self):
        d1 = F(1)
        final = blown_up_field(FamilyParams.make(c1=-d1, d1=d1), ChartId.U2, ONE_BLOWUP)
        jac = final.jacobian((0, 0))
        assert jac == [[2 * d1, 0], [0, -2 * d1]]
        assert classify_from_jacobian(jac).kind is PointType.HYPERBOLIC_SADDLE

    def test_mixed_slice_stable_node(self):
        # c1 = 0 on the triple slice: (0, -2*a1) is a stable node with
        # eigenvalues -2*a1^2 and -4*a1^2
        a1, b1 = F(1), F(-1)
        final = blown_up_field(
            params_triple_slice(a1=a1, b1=b1, c1=0), ChartId.U2, ONE_BLOWUP
        )
        jac = final.jacobian((0, -2 * a1))
        assert {jac[0][0], jac[1][1]} == {-2 * a1**2, -4 * a1**2}
        assert classify_from_jacobian(jac) == EquilibriumClass(
            PointType.HYPERBOLIC_NODE, "stable"
        )

    def test_double_blowup_half_node(self):
        # b1 = 1/2: (0, 1/2) is a stable node with eigenvalues -1/4 and -1
        final = u2_double_blowup_stage3(F(1, 2))
        jac = final.jacobian((0, F(1, 2)))
        assert {lam.a for lam in eigenvalues(jac)} == {F(-1, 4), F(-1)}
        assert classify_from_jacobian(jac) == EquilibriumClass(
            PointType.HYPERBOLIC_NODE, "stable"
        )

    def test_double_blowup_negative_saddles(self):
        # b1 = -1: (0,0) has eigenvalues -4*b1, 4*b1 and (0,1) has -1, 2
        b1 = F(-1)
        final = u2_double_blowup_stage3(b1)
        jac0 = final.jacobian((0, 0))
        assert {jac0[0][0], jac0[1][1]} == {-4 * b1, 4 * b1}
        assert classify_from_jacobian(jac0).kind is PointType.HYPERBOLIC_SADDLE
        jac1 = final.jacobian((0, 1))
        assert {lam.a for lam in eigenvalues(jac1)} == {F(-1), F(2)}
        assert classify_from_jacobian(jac1).kind is PointType.HYPERBOLIC_SADDLE

    def test_mixed_second_blowup_saddle(self):
        # b1 = 0 slice final stage: eigenvalues 3*a1^2 and -3*a1^2
        a1 = F(1)
        final = u2_mixed_second_blowup_rescaled(a1)
        jac = final.jacobian((0, 0))
        assert {jac[0][0], jac[1][1]} == {3 * a1**2, -3 * a1**2}
        assert classify_from_jacobian(jac).kind is PointType.HYPERBOLIC_SADDLE


class TestRefinement:
    def test_requires_one_zero_eigenvalue(self):
        vf = VectorField(Y, -X)
        with pytest.raises(NotSemiHyperbolic):
            refine_semihyperbolic(vf, (0, 0))
        vf2 = VectorField(X * Y, Y**2)  # zero Jacobian at origin
        with pytest.raises(NotSemiHyperbolic):
            refine_semihyperbolic(vf2, (0, 0))

    def test_requires_equilibrium(self):
        vf = VectorField(Y + 1, -X)
        with pytest.raises(NotSemiHyperbolic):
            refine_semihyperbolic(vf, (0, 0))

    def test_center_manifold_with_nonzero_graph(self):
        # x' = -x + y^2, y' = x*y: manifold x = y^2 + O(4), slow flow y' = y^3
        vf = VectorField(-X + Y**2, X * Y)
        out = refine_semihyperbolic(vf, (0, 0))
        assert out.kind is PointType.SEMI_HYPERBOLIC_SADDLE

    def test_saddle_node_even_order(self):
        vf = VectorField(-X + Y**2, X * Y - Y**2)
        # slow flow: y' = y^3 - y^2: first nonzero coefficient at even order
        out = refine_semihyperbolic(vf, (0, 0))
        assert out.kind is PointType.SEMI_HYPERBOLIC_SADDLE_NODE

    def test_inconclusive_beyond_order_six(self):
        vf = VectorField(-X + Y**2, X * Y - Y**3)
        # slow flow vanishes identically through order 6
        out = refine_semihyperbolic(vf, (0, 0))
        assert out.kind is PointType.SEMI_HYPERBOLIC_INCONCLUSIVE

    @pytest.mark.parametrize("lam,a", [(F(2), F(1)), (F(2), F(-1)), (F(-3), F(1)), (F(-3), F(-1))])
    def test_sign_rule_matches_coarse_prediction(self, lam, a):
        # x' = lam*x, y' = a*y^3 refines the same way diag(lam, a) classifies
        vf = VectorField(lam * X, a * Y**3)
        refined = refine_semihyperbolic(vf, (0, 0))
        coarse = classify_from_jacobian(D(lam, a))
        if a * lam < 0:
            assert refined.kind is PointType.SEMI_HYPERBOLIC_SADDLE
            assert coarse.kind is PointType.HYPERBOLIC_SADDLE
        else:
            assert refined.kind is PointType.SEMI_HYPERBOLIC_NODE
            assert coarse.kind is PointType.HYPERBOLIC_NODE
            assert refined.stability == coarse.stability

    def test_eigen_coordinates_with_coupling(self):
        # upper-triangular Jacobian [[lam, 1], [0, 0]] needs the exact
        # eigen-splitting before reading the slow dynamics
        lam = F(-2)
        vf = VectorField(lam * X + Y, Y * X)
        out = refine_semihyperbolic(vf, (0, 0))
        # slow variable w = y, fast manifold x = -y/lam + ...; substitute:
        # y' = x*y with x ~ y/2 => y' ~ y^2/2: saddle-node
        assert out.kind is PointType.SEMI_HYPERBOLIC_SADDLE_NODE

    def test_classify_point_dispatch(self):
        vf = VectorField(-X + Y**2, X * Y)
        assert classify_point(vf, (0, 0)).kind is PointType.SEMI_HYPERBOLIC_SADDLE
        assert classify_point(VectorField(Y, -X), (0, 0)).kind is PointType.LINEAR_CENTER_CANDIDATE
