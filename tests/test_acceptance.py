"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The symbolic fixtures are
exact (byte-identical canonical text); the numerical criteria run at the
stated tolerances with the library's default integrator configuration.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from discflow.classify import PointType, classify_from_jacobian, refine_semihyperbolic
from discflow.compactify import ChartId, chart_field
from discflow.desing import run_chain, time_rescale
from discflow.family import FamilyParams, build_system, center_cases, global_cases, hamiltonian
from discflow.flow import IntegratorConfig, first_integral_check, global_center_verdict, orbit_verdict

from test_flow import full_return, over_one_period

from reference_systems import (
    params_sum_slice,
    params_triple_slice,
    u1_blowup_quarter_slice,
    u1_blowup_rescaled_quarter_slice,
    u1_chart_triple_slice,
    u1_line_rescaled_opposite_slice,
    u2_blowup_quarter_slice,
    u2_blowup_rescaled_quarter_slice,
    u2_chart_triple_slice,
    u2_double_blowup_sheared,
    u2_double_blowup_stage2,
    u2_double_blowup_stage3,
    u2_sum_blowup_rescaled,
)

UV = ("u", "v")


def report(n, name):
    print(f"\nACCEPTANCE {n} {name}: PASS")


def canonical(vf):
    return vf.text(UV)


def test_criterion_1_symbolic_fixture_suite():
    t0 = time.time()

    # chart fields on the d1 = 3*b1 slice, generic and specialized points
    for point in [
        dict(a1=1, a2=-2, b1=3, b2=F(1, 2), c1=-1),
        dict(a1=0, a2=0, b1=1, b2=0, c1=-4),
    ]:
        vf = build_system(params_triple_slice(**point))
        got_u1 = canonical(chart_field(vf, ChartId.U1).field)
        got_u2 = canonical(chart_field(vf, ChartId.U2).field)
        assert got_u1 == canonical(u1_chart_triple_slice(**point))
        assert got_u2 == canonical(u2_chart_triple_slice(**point))

    # blow-up chain in U1 on the b1 = -c1/4 specialization
    c1 = F(-4)
    quarter = params_triple_slice(b1=-c1 / 4, c1=c1)
    u1_chain = run_chain(
        chart_field(build_system(quarter), ChartId.U1).field,
        [("blowup",), ("rescale", "u", 1)],
    )
    assert canonical(u1_chain.steps[0].output) == canonical(u1_blowup_quarter_slice(c1))
    assert canonical(u1_chain.steps[1].output) == canonical(u1_blowup_rescaled_quarter_slice(c1))

    # the sign-flipped U2 chain
    u2_chain = run_chain(
        chart_field(build_system(quarter), ChartId.U2).field,
        [("blowup",), ("rescale", "u", 1)],
    )
    assert canonical(u2_chain.steps[0].output) == canonical(u2_blowup_quarter_slice(c1))
    assert canonical(u2_chain.steps[1].output) == canonical(u2_blowup_rescaled_quarter_slice(c1))

    # shear-then-blow-up chain on the c1 = 0 slice
    b1 = F(-1)
    double = run_chain(
        chart_field(build_system(params_triple_slice(b1=b1, c1=0)), ChartId.U2).field,
        [("blowup",), ("rescale", "u", 1), ("shear", -1), ("blowup",), ("rescale", "u", 2)],
    )
    assert canonical(double.steps[2].output) == canonical(u2_double_blowup_sheared(b1))
    assert canonical(double.steps[3].output) == canonical(u2_double_blowup_stage2(b1))
    assert canonical(double.steps[4].output) == canonical(u2_double_blowup_stage3(b1))

    # infinity-line rescale on the c1 = c2 = 0, d1 = -b1, d2 = b2 slice
    a1, a2, b1, b2 = 1, -2, 3, F(1, 2)
    opposite = FamilyParams.make(a1=a1, a2=a2, b1=b1, b2=b2, d1=-3, d2=b2)
    reduced = time_rescale(chart_field(build_system(opposite), ChartId.U1).field, "v", 1)
    assert canonical(reduced) == canonical(
        u1_line_rescaled_opposite_slice(a1, a2, b1, b2)
    )

    elapsed = time.time() - t0
    assert elapsed < 5.0, f"symbolic fixture suite took {elapsed:.2f}s"
    report(1, "symbolic fixture suite (byte-identical canonical text)")


def test_criterion_2_jacobian_fixtures():
    points = [
        dict(a1=1, a2=1, b1=2, b2=3, c1=-1, d1=5),
        dict(a1=0, a2=F(1, 2), b1=-1, b2=F(2, 3), c1=2, d1=4),
        dict(a1=2, a2=0, b1=3, b2=1, c1=0, d1=-2),
        dict(a1=-1, a2=2, b1=-2, b2=-1, c1=1, d1=F(7, 3)),
        dict(a1=F(1, 3), a2=-1, b1=F(3, 4), b2=F(5, 2), c1=-3, d1=-3),
        dict(a1=0, a2=3, b1=1, b2=2, c1=F(1, 2), d1=3),  # d1 = 3*b1 slice
    ]
    for kw in points:
        params = params_sum_slice(**kw)
        u2 = chart_field(build_system(params), ChartId.U2)
        jac = u2.field.jacobian((0, 0))
        b1, b2, d1, a2 = F(kw["b1"]), F(kw["b2"]), F(kw["d1"]), F(kw["a2"])
        assert jac == [
            [2 * b2 * (b1 + d1) / b1, a2],
            [0, b2 * (d1 - b1) / b1],
        ], kw
    report(2, f"U2-origin Jacobian fixtures on {len(points)} rational parameter points")


def test_criterion_3_classification_fixtures():
    checks = 0

    def blown(params, chart, steps=(("blowup",), ("rescale", "u", 1))):
        return run_chain(chart_field(build_system(params), chart).field, list(steps)).final

    # hyperbolic saddles at the chain origin, c1 < 0
    for c1 in (F(-4), F(-1, 2)):
        final = blown(params_triple_slice(b1=-c1 / 4, c1=c1), ChartId.U1)
        assert classify_from_jacobian(final.jacobian((0, 0))).kind is PointType.HYPERBOLIC_SADDLE
        checks += 1

    # unstable nodes at (0, +/- sqrt(c1)), c1 > 0
    for c1, root in ((F(1), 1), (F(4), 2)):
        final = blown(params_triple_slice(b1=-c1 / 4, c1=c1), ChartId.U1)
        for sign in (1, -1):
            out = classify_from_jacobian(final.jacobian((0, sign * root)))
            assert out.kind is PointType.HYPERBOLIC_NODE and out.stability == "unstable"
            checks += 1

    # semi-hyperbolic saddles on the boundary c1 = -2*b1 (b1 < 0) at (0, +/- 2)
    final = blown(params_sum_slice(b1=-1, c1=2, d1=-1), ChartId.U1)
    for v in (2, -2):
        assert refine_semihyperbolic(final, (0, v)).kind is PointType.SEMI_HYPERBOLIC_SADDLE
        checks += 1

    # semi-hyperbolic saddle at the U2 chain origin on the boundary, b1 > 0
    final = blown(params_sum_slice(b1=1, c1=-2, d1=1), ChartId.U2)
    assert refine_semihyperbolic(final, (0, 0)).kind is PointType.SEMI_HYPERBOLIC_SADDLE
    checks += 1

    # saddle-node at the degenerate double point (a1^2 + 3*b1 - d1 = 0)
    final = blown(params_sum_slice(a1=1, b1=1, d1=4), ChartId.U2)
    assert refine_semihyperbolic(final, (0, -1)).kind is PointType.SEMI_HYPERBOLIC_SADDLE_NODE
    checks += 1

    # semi-hyperbolic saddle at the origin of the b1 = 0, d1 = -c1 > 0 chain
    final = blown(FamilyParams.make(c1=-1, d1=1), ChartId.U1)
    assert refine_semihyperbolic(final, (0, 0)).kind is PointType.SEMI_HYPERBOLIC_SADDLE
    checks += 1

    # stable node at (0, -2*a1) on the c1 = 0 slice
    final = blown(params_triple_slice(a1=1, b1=-1, c1=0), ChartId.U2)
    out = classify_from_jacobian(final.jacobian((0, -2)))
    assert out.kind is PointType.HYPERBOLIC_NODE and out.stability == "stable"
    checks += 1

    # double-blow-up endpoints: stable node for b1 = 1/2, saddles for b1 = -1
    final = u2_double_blowup_stage3(F(1, 2))
    out = classify_from_jacobian(final.jacobian((0, F(1, 2))))
    assert out.kind is PointType.HYPERBOLIC_NODE and out.stability == "stable"
    checks += 1
    final = u2_double_blowup_stage3(F(-1))
    for v in (0, 1):
        assert classify_from_jacobian(final.jacobian((0, v))).kind is PointType.HYPERBOLIC_SADDLE
        checks += 1

    assert checks >= 10
    report(3, f"classification fixtures ({checks} pinned triples)")


# -- criterion 4: the oracle agreement grid ----------------------------------

GRID_GLOBAL = [
    dict(c1=-1),
    dict(c1=-2),
    dict(a1=F(1, 2), c1=-1),
    dict(a1=F(1, 2), c1=-2),
    dict(a1=F(-1, 2), c1=-1),
    dict(a1=1, c1=-2),
    dict(a1=-1, c1=-2),
    dict(),
    dict(b1=-1, d1=-2),
]

GRID_NON_GLOBAL = [
    dict(a1=1), dict(a2=1), dict(c1=1), dict(d2=1),
    dict(a1=2), dict(a2=2), dict(c1=2), dict(d2=2),
    dict(a1=-1), dict(a2=-1), dict(d2=-1),
    dict(a1=F(1, 2)), dict(a2=F(1, 2)), dict(c1=F(1, 2)), dict(d2=F(1, 2)),
    dict(a1=-2), dict(a2=-2), dict(d2=-2),
    dict(a1=1, a2=1), dict(a1=1, c1=1), dict(a1=1, d2=1),
    dict(a2=1, c1=1), dict(a2=1, d2=1), dict(c1=1, d2=1),
    dict(b2=1, d2=2), dict(b2=F(1, 2)),
    dict(a1=F(1, 2), c1=1), dict(a1=-1, c1=1), dict(a2=-1, d2=1),
    dict(a1=1, c1=-1), dict(c1=1, d2=-1), dict(a1=F(1, 2), d2=1),
    dict(a1=2, d2=1), dict(a2=1, d2=2), dict(a1=1, a2=-1),
    dict(b1=1, c1=-1), dict(a1=1, d1=2),
    dict(b1=-1, c1=2, d1=-1), dict(a1=1, d1=1),
    dict(d1=1), dict(d1=-1), dict(d1=2), dict(d1=-2),
    dict(b1=1, c1=-2), dict(b1=-2, c1=1),
]

GRID_LINE_AT_INFINITY = [
    dict(b1=1, d1=-1),
    dict(b2=1, d2=1),
    dict(a1=1, b1=-1, d1=1),
    dict(b1=F(1, 2), b2=-1, d1=F(-1, 2), d2=-1),
]


def test_criterion_4_oracle_agreement_grid():
    t0 = time.time()
    grid_values = {F(-2), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(2)}
    strict = [(kw, True) for kw in GRID_GLOBAL] + [(kw, False) for kw in GRID_NON_GLOBAL]
    assert len(strict) >= 50
    n_samples = 0
    n_inconclusive = 0
    disagreements = []
    for kw, expect_global in strict:
        params = FamilyParams.make(**kw)
        assert set(params.as_tuple()) <= grid_values, kw
        assert center_cases(params).is_center, kw
        oracle = global_cases(params).is_global
        assert oracle == expect_global, kw
        verdict = global_center_verdict(params)
        assert not verdict.line_at_infinity, kw
        tags = [s.tag for _, s in verdict.samples]
        n_samples += len(tags)
        n_inconclusive += tags.count("inconclusive")
        agrees = (verdict.tag == "global-center-consistent") == oracle
        if not agrees:
            disagreements.append((kw, oracle, verdict.tag))
    assert disagreements == []
    rate = n_inconclusive / n_samples
    assert rate < 0.10, f"inconclusive rate {rate:.2%}"

    # line-at-infinity regimes: outside the characterization, reported apart
    line_report = []
    for kw in GRID_LINE_AT_INFINITY:
        params = FamilyParams.make(**kw)
        assert center_cases(params).is_center, kw
        verdict = global_center_verdict(params)
        assert verdict.line_at_infinity, kw
        line_report.append((kw, verdict.tag))
    assert all(tag == "not-global" for _, tag in line_report)

    elapsed = time.time() - t0
    assert elapsed < 300.0, f"grid took {elapsed:.1f}s"
    report(
        4,
        f"oracle agreement on {len(strict)} grid vectors "
        f"(+{len(line_report)} line-at-infinity, reported separately); "
        f"inconclusive rate {rate:.2%}; {elapsed:.0f}s",
    )


STATEMENT_REPRESENTATIVES = {
    "a": dict(b1=1, c1=-4, d1=3),
    "b": dict(b1=-1, d1=-3),
    "c": dict(a1=1, c1=-2),
    "d": dict(),
    "e": dict(b1=1, c1=-3, d1=2),
    "f": dict(b1=-1, d1=-2),
    "g": dict(c1=F(-1, 5), d1=F(1, 5)),
}


def test_criterion_5_periodicity_closure():
    # every representative is reversible, so each verdict reads half a loop; the
    # whole numerical loop is read off the kernel's stream too, by full_return
    worst = 0.0
    for letter, kw in STATEMENT_REPRESENTATIVES.items():
        params = FamilyParams.make(**kw)
        assert letter in global_cases(params).matching_statements
        verdict = global_center_verdict(params)
        assert verdict.tag == "global-center-consistent", letter
        assert len(verdict.samples) == 32
        vf = build_system(params)
        for point, sample in verdict.samples:
            assert sample.tag == "periodic", (letter, point, sample)
            assert sample.certificate == "reversible", (letter, point, sample)
            assert sample.closure_error < 1e-6, (letter, point, sample.closure_error)
            period, closure = full_return(vf, point)
            worst = max(worst, closure)
            assert closure < 1e-6, (letter, point, closure)
            assert period == pytest.approx(sample.period, rel=1e-6), (letter, point)
    report(5, f"periodicity closure: 7 representatives x 32 whole loops < 1e-6 (worst {worst:.2e})")


def test_criterion_6_conservation():
    cfg = IntegratorConfig()
    cases = [
        ("aa1", FamilyParams.make(b1=1, c1=-4, d1=3)),
        ("aa2", FamilyParams.make(b1=-1, d1=-3)),
        ("aa3", FamilyParams.make(a1=1, c1=-2)),
    ]
    worst = 0.0
    for tag, params in cases:
        vf = build_system(params)
        h = hamiltonian(vf)
        for x0 in (0.5, 1.0, 2.0):
            returned = orbit_verdict(vf, (x0, 0.0), cfg)
            assert returned.tag == "periodic"
            # the verdict records half the loop: the kernel is run from the start over one period
            drift = first_integral_check(vf, h, over_one_period(vf, (x0, 0.0), returned, cfg))
            worst = max(worst, drift)
            assert drift < 1e-8, (tag, x0, drift)
    report(6, f"first-integral drift over one return < 1e-8 (worst {worst:.2e})")


def test_criterion_7_negative_controls():
    # center by the exact oracle, provably not global, escaping witness pinned
    control = FamilyParams.make(b1=-1, c1=4, d1=-3)
    assert center_cases(control).is_center
    assert not global_cases(control).is_global
    verdict = global_center_verdict(control)
    assert verdict.tag == "not-global"
    assert verdict.witness is not None
    escaping = [pt for pt, s in verdict.samples if s.tag == "escaping"]
    assert verdict.witness in escaping

    # the slice with a line of equilibria at infinity and b2 = 1
    line_control = FamilyParams.make(b2=1, d2=1)
    assert center_cases(line_control).is_center
    verdict2 = global_center_verdict(line_control)
    assert verdict2.line_at_infinity
    assert verdict2.tag == "not-global"
    escaping2 = [pt for pt, s in verdict2.samples if s.tag == "escaping"]
    assert verdict2.witness in escaping2
    report(7, "negative controls report not-global with recorded escaping witnesses")


def test_criterion_8_property_suites():
    import test_properties

    total = sum(test_properties.CASE_BUDGET.values())
    assert total >= 1000
    result = subprocess.run(
        [sys.executable, "-m", "pytest", str(Path(__file__).parent / "test_properties.py"), "-q"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    report(8, f"property suites standalone: {total} randomized cases")
