import dataclasses
import math
import struct
import warnings
from bisect import bisect_right
from fractions import Fraction as F

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.integrate import DOP853, solve_ivp

import discflow.flow as flow
from discflow.family import (
    FamilyParams,
    NotConserved,
    build_system,
    conserved_quantity,
    global_cases,
    lie_derivative,
)
from discflow.flow import (
    IntegratorConfig,
    StepUnderflow,
    finite_equilibria,
    first_integral_check,
    global_center_verdict,
    integrate,
    orbit_verdict,
    sample_points,
)
from discflow.poly import Poly2, VectorField, X, Y

LINEAR = VectorField(Y, -X)
CFG = IntegratorConfig()


def compile_rhs(vf: VectorField):
    """The compiled field as scipy's right-hand side f(t, (x, y)) -> (p, q)."""
    f = flow._compile(vf)

    def rhs(t, z):
        w = f(complex(z[0], z[1]))
        return w.real, w.imag

    return rhs


def bisect_sample(traj, n: int, t_end: float | None = None):
    """The reference sampler: each time bisected into the step starts on its own."""
    t_end = traj.t_end if t_end is None else t_end
    starts, out = traj.steps[:: flow._STRIDE], []
    for k in range(n):
        t = t_end * k / max(n - 1, 1)
        i = max(bisect_right(starts, t) - 1, 0) * flow._STRIDE
        out.append((t, *flow._dense(traj.steps[i : i + flow._STRIDE], t)))
    return out


def recorded_steps(traj):
    """(t1, step) for every step of a record, as the engine yielded them."""
    stride = flow._STRIDE
    steps = [tuple(traj.steps[i : i + stride]) for i in range(0, len(traj.steps), stride)]
    return list(zip([step[0] for step in steps[1:]] + [traj.t_end], steps))


class TestConfig:
    def test_defaults(self):
        assert CFG.rel_tol == 1e-10 and CFG.abs_tol == 1e-12
        assert CFG.max_time == 200.0 and CFG.escape_radius == 1e3
        assert CFG.section_closure_tol == 1e-6

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=-1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(max_time=0.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize(
        "name", ["rel_tol", "abs_tol", "max_time", "escape_radius", "section_closure_tol"]
    )
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError):
            IntegratorConfig(**{name: value})


class TestIntegrate:
    def test_harmonic_oscillator_stays_on_circle(self):
        traj = integrate(LINEAR, (1.0, 0.0), CFG, t_final=2 * math.pi)
        worst = max(abs(math.hypot(px, py) - 1.0) for _, px, py in traj.sample(500))
        assert worst < 1e-8

    def test_cubic_restoring_conserves_energy(self):
        # x' = y, y' = -x + 4*b1*x^3 with b1 = -1
        params = FamilyParams.make(b1=-1, d1=-3)
        vf = build_system(params)
        h = conserved_quantity("aa2", params)
        v = orbit_verdict(vf, (1.0, 0.0), CFG)
        traj = integrate(vf, (1.0, 0.0), CFG, t_final=v.period)
        assert first_integral_check(vf, h, traj) < 1e-8

    def test_escape_detected(self):
        # c1 = 4 specialization has unbounded orbits through (1, 1)
        params = FamilyParams.make(b1=-1, c1=4, d1=-3)
        traj = integrate(build_system(params), (1.0, 1.0), CFG)
        assert traj.escaped and traj.t_end < 10.0

    def test_compiled_rhs_matches_exact(self):
        params = FamilyParams.make(a1=1, a2=-2, b1=3, b2=F(1, 2), c1=-1, d1=2, d2=F(2, 3))
        vf = build_system(params)
        rhs = compile_rhs(vf)
        for pt in [(0.3, -1.2), (2.0, 0.7), (-0.5, -0.4)]:
            got = rhs(0.0, pt)
            assert got[0] == pytest.approx(vf.p.evaluate_float(*pt), rel=1e-14)
            assert got[1] == pytest.approx(vf.q.evaluate_float(*pt), rel=1e-14)


def parent_expr(p: Poly2) -> str:
    """The compiled form of a polynomial with every coefficient written out."""
    terms = sorted(p.terms.items())
    return " + ".join("*".join([repr(float(c))] + ["x"] * i + ["y"] * j) for (i, j), c in terms)


def same_float(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b) or (math.isnan(a) and math.isnan(b))


class TestCompiledField:
    """A coefficient +-1 is written as a sign: the same floats, one multiply fewer."""

    family = st.dictionaries(
        st.sampled_from(["a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2"]),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )

    def test_no_unit_coefficient_is_written(self):
        vf = build_system(FamilyParams.make(b1=-1, c1=4, d1=-3))
        assert flow._poly_expr(vf.p) == "y + -4.0*x*x*y"
        assert flow._poly_expr(vf.q) == "-x + 4.0*x*y*y"
        assert flow._poly_expr(Poly2.const(F(-1)) + X) == "-1.0 + x"

    @settings(max_examples=60)
    @given(family, st.lists(st.floats(allow_nan=False), min_size=2, max_size=2))
    def test_same_floats_as_the_written_out_coefficients(self, params, point):
        vf = build_system(FamilyParams.make(**params))
        for term in " + ".join([flow._poly_expr(vf.p), flow._poly_expr(vf.q)]).split(" + "):
            assert not term.lstrip("-").startswith("1.0*")
        f = flow._compile(vf)
        p, q = (compile(parent_expr(c) if c.terms else "0.0", "", "eval") for c in (vf.p, vf.q))
        specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e200, -3e-310]
        for x, y in [tuple(point)] + [(a, b) for a in specials for b in specials]:
            w, at = f(complex(x, y)), {"x": x, "y": y}
            assert same_float(w.real, eval(p, at)) and same_float(w.imag, eval(q, at))


class TestEngineMatchesScipy:
    """The plain-float Dormand-Prince engine takes scipy's DOP853 steps."""

    @pytest.mark.parametrize(
        "vf",
        [LINEAR, build_system(FamilyParams.make(a1=1, b1=1, d1=-1))],
        ids=["linear", "iii-line-a1"],
    )
    def test_steps_and_end_state(self, vf):
        t_final = 50.0
        start = np.array([5.0, 0.0])
        solver = DOP853(compile_rhs(vf), 0.0, start, math.inf, rtol=1e-10, atol=1e-12)
        ends = []
        while solver.t <= t_final:
            solver.step()
            ends.append(solver.t)
        rejected = (solver.nfev - 2) // 12 - len(ends)  # 12 field evaluations per attempt
        dense = solver.dense_output()
        traj = integrate(vf, (5.0, 0.0), CFG, t_final=t_final)
        assert not traj.escaped and traj.t_end == t_final
        starts = traj.steps[::flow._STRIDE]  # 0.0, then the end of every step but the last
        # rounding differences feed back into the step sizes: the two grids
        # drift apart by up to about 2e-7 over these 160 to 690 steps
        assert abs(len(starts) - len(ends)) <= 1
        assert max(abs(a - b) for a, b in zip(starts[1:], ends)) < 1e-6
        # the record's counters: 12 field evaluations per attempt, 2 for the first
        # step, and the 3 extra stages on every accepted step, which scipy takes
        # only in dense_output (3 more); no step of the linear field is rejected
        assert traj.accepted == len(starts) and abs(traj.rejected - rejected) <= 1
        assert (traj.rejected > 0) == (vf is not LINEAR)
        nfev = traj.nfev - 3 * traj.accepted
        assert abs(traj.accepted - len(ends)) <= 1 and abs(nfev - solver.nfev) <= 12
        # the end state, and the dense output inside the last step
        for t in (t_final, 0.5 * (dense.t_old + dense.t)):
            _, x, y = traj.sample(2, t)[-1]
            assert math.hypot(x - dense(t)[0], y - dense(t)[1]) < 1e-9


class TestRecord:
    def test_verdict_carries_its_record(self):
        v = orbit_verdict(LINEAR, (0.0, 1.0), CFG)
        traj = v.trajectory
        assert v.tag == "periodic" and len(traj.steps) % flow._STRIDE == 0
        # the carry phase (pi/2) and one period (2 pi) are both in the record
        assert traj.t_end >= math.pi / 2 + v.period
        _, x, y = traj.sample(2, v.period)[-1]
        assert math.hypot(x, y - 1.0) < 1e-8

    def test_record_is_not_part_of_the_value(self):
        v = orbit_verdict(LINEAR, (1.0, 0.0), CFG)
        bare = dataclasses.replace(v, trajectory=None)
        assert v.trajectory is not None
        assert v == bare and hash(v) == hash(bare)
        assert v.to_json() == bare.to_json() and "trajectory" not in v.to_json()
        assert repr(v) == repr(bare)

    @pytest.mark.parametrize("n", [1, 2, 600])
    def test_sample_matches_the_bisecting_reader(self, n):
        control = build_system(FamilyParams.make(b1=-1, c1=4, d1=-3))
        escaping = orbit_verdict(control, (1.0, 1.0), CFG)
        for traj in (orbit_verdict(LINEAR, (0.0, 1.0), CFG).trajectory, escaping.trajectory):
            for t_end in (None, 0.37 * traj.t_end, traj.t_end + 5.0):
                assert traj.sample(n, t_end) == bisect_sample(traj, n, t_end)

    @pytest.mark.parametrize("overflow", [False, True], ids=["steps", "overflow"])
    def test_nfev_counts_the_field_calls(self, monkeypatch, overflow):
        # no step of the linear field is rejected, so a nonlinear one counts attempts
        params = dict(b1=-1, c1=4, d1=-3) if overflow else dict(a1=1, b1=1, d1=-1)
        vf = build_system(FamilyParams.make(**params))
        f, calls = flow._compile(vf), []
        monkeypatch.setattr(flow, "_compile", lambda _: lambda z: calls.append(z) or f(z))
        traj = flow.Trajectory()
        steps = flow._steps(vf, (1e200 if overflow else 5.0, 0.0), CFG, traj)
        if overflow:  # the field overflows at the start: the initial step fails
            with pytest.raises(StepUnderflow, match="^initial step size nan is not positive$"):
                next(steps)
        else:
            assert len(list(zip(range(1000), steps))) == traj.accepted and traj.rejected > 0
        assert traj.nfev == len(calls)

    def test_escaping_record_ends_at_the_exit(self):
        params = FamilyParams.make(b1=-1, c1=4, d1=-3)
        v = orbit_verdict(build_system(params), (1.0, 1.0), CFG)
        assert v.tag == "escaping" and v.trajectory.escaped
        _, x, y = v.trajectory.sample(2)[-1]
        assert math.hypot(x, y) == pytest.approx(CFG.escape_radius, rel=1e-9)


class TestReturnMap:
    def test_linear_center_period(self):
        v = orbit_verdict(LINEAR, (1.0, 0.0), CFG)
        assert v.tag == "periodic"
        assert v.period == pytest.approx(2 * math.pi, abs=1e-6)
        assert v.closure_error < 1e-8

    def test_displacement_is_signed(self):
        # a focus of build_system's field that the transcribed oracle takes for a
        # center: the return from 0.2 comes back inside, near 0.1953
        vf = build_system(FamilyParams.make(b1=-2, b2=3, c1=F(1, 2)))
        v = orbit_verdict(vf, (0.2, 0.0), CFG)
        assert v.tag == "inconclusive" and v.reason.startswith("section return displaced by -")
        assert float(v.reason.rsplit(" ", 1)[1]) == pytest.approx(-4.731e-3, rel=1e-3)

    def test_quadratic_damped_spiral_inconclusive(self):
        # x' = y, y' = -x - x^2: orbit through (1.2, 0) is not closed
        vf = VectorField(Y, -X - F(1, 5) * Y)
        v = orbit_verdict(vf, (1.0, 0.0), CFG)
        assert v.tag == "inconclusive"
        assert "displaced" in v.reason

    def test_slow_orbit_return_located(self):
        # the return comes at t ~ 6.3e5, where adjacent floats lie further
        # apart than the 1e-12 bisection width
        slow = VectorField(F(1, 10**5) * Y, -F(1, 10**5) * X)
        v = orbit_verdict(slow, (1.0, 0.0), IntegratorConfig(max_time=1e6))
        assert v.tag == "periodic"
        assert v.period == pytest.approx(2e5 * math.pi, rel=1e-8)

    def test_gentle_cubic_family_periodic(self):
        # d1 = -c1 > 0 slice, small coefficient so orbits stay modest
        params = FamilyParams.make(c1=F(-1, 5), d1=F(1, 5))
        vf = build_system(params)
        v = orbit_verdict(vf, (2.0, 0.0), CFG)
        assert v.tag == "periodic" and v.closure_error < 1e-6

    def test_escaping_from_section(self):
        params = FamilyParams.make(b1=-1, c1=4, d1=-3)
        vf = build_system(params)
        v = orbit_verdict(vf, (1.5, 0.0), CFG)
        assert v.tag == "escaping" and v.exit_time is not None

    def test_shrinking_tolerance_never_turns_escaping(self):
        params = FamilyParams.make(b1=1, c1=-4, d1=3)
        vf = build_system(params)
        for x0 in (0.5, 1.0, 2.0):
            loose = orbit_verdict(vf, (x0, 0.0), CFG)
            tight = orbit_verdict(
                vf, (x0, 0.0), IntegratorConfig(section_closure_tol=1e-7)
            )
            assert loose.tag == "periodic"
            assert tight.tag in ("periodic", "inconclusive")

    def test_step_underflow_reported_inconclusive(self):
        # blow-up orbit with the escape radius pushed out of reach
        params = FamilyParams.make(a1=1, b1=-2)
        vf = build_system(params)
        cfg = IntegratorConfig(escape_radius=1e8, max_time=10.0)
        with np.errstate(over="ignore", invalid="ignore"):
            v = orbit_verdict(vf, (1.0, 0.0), cfg)
        assert v.tag == "inconclusive"

    def test_overflowing_start_fails_fast(self):
        # the cubic field overflows at the start, so the initial step size is 0
        vf = build_system(FamilyParams.make(b1=-1, c1=4, d1=-3))
        v = orbit_verdict(vf, (1e200, 0.0), CFG)
        assert v.tag == "inconclusive"
        assert v.reason.startswith("integrator failure")
        # the record holds no step, so a drawing samples nothing from it
        assert v.trajectory.accepted == 0
        assert v.trajectory.sample(5) == []


class TestOrbitVerdict:
    def test_overflowing_off_section_start(self):
        # the field is inf at the start: no OverflowError, no ZeroDivisionError
        vf = build_system(FamilyParams.make(b1=-1, c1=4, d1=-3))
        v = orbit_verdict(vf, (1e200, 1e200), CFG)
        assert v.tag == "inconclusive"
        assert v.reason.startswith("integrator failure")

    def test_off_section_projection(self):
        v = orbit_verdict(LINEAR, (0.0, 1.0), CFG)
        assert v.tag == "periodic"
        assert v.period == pytest.approx(2 * math.pi, abs=1e-6)

    def test_on_section_dispatch(self):
        assert orbit_verdict(LINEAR, (2.0, 0.0), CFG).tag == "periodic"

    def test_escaping_projection(self):
        params = FamilyParams.make(b1=-1, c1=4, d1=-3)
        v = orbit_verdict(build_system(params), (1.0, 1.0), CFG)
        assert v.tag == "escaping"

    def test_equilibrium_start(self):
        params = FamilyParams.make(b1=-1, c1=4, d1=-3)
        v = orbit_verdict(build_system(params), (0.5, 0.5), CFG)
        assert v.tag == "inconclusive"

    def test_equilibrium_start_on_the_section(self):
        # b1 = 1, c1 = 2, d1 = 1 has the lines of equilibria x = +/- 1/2
        vf = build_system(FamilyParams.make(b1=1, c1=2, d1=1))
        v = orbit_verdict(vf, (0.5, 0.0), CFG)
        assert v.tag == "inconclusive"
        assert v.reason == "start is an equilibrium or a section tangency"
        assert v.trajectory is None

    @pytest.mark.parametrize("start", [(0.5, 0.3), (-0.5, 0.25)])
    def test_equilibrium_start_off_the_section(self, start):
        vf = build_system(FamilyParams.make(b1=1, c1=2, d1=1))
        v = orbit_verdict(vf, start, CFG)
        assert v.tag == "inconclusive"
        assert v.reason == "initial condition is an equilibrium"
        assert v.trajectory is None

    # (0, 1) reaches the section at t = pi/2 and returns 2*pi later: each
    # phase has its own max_time, so 7 suffices although pi/2 + 2*pi > 7.
    def test_carry_phase_time_budget(self):
        v = orbit_verdict(LINEAR, (0.0, 1.0), IntegratorConfig(max_time=1.0))
        assert v.tag == "inconclusive"
        assert v.reason == "orbit never reaches the section {y = 0, x > 0}"

    def test_return_phase_time_budget(self):
        v = orbit_verdict(LINEAR, (0.0, 1.0), IntegratorConfig(max_time=6.0))
        assert v.tag == "inconclusive"
        assert v.reason == "no section return within max_time"

    def test_each_phase_has_its_own_budget(self):
        v = orbit_verdict(LINEAR, (0.0, 1.0), IntegratorConfig(max_time=7.0))
        assert v.tag == "periodic"
        assert v.period == pytest.approx(2 * math.pi, abs=1e-6)

    @pytest.mark.parametrize("start", [(1.0, 0.0), (0.0, 1.0)])
    def test_escape_needs_an_outward_crossing(self, start):
        # the start already lies outside the escape radius and never crosses it
        v = orbit_verdict(LINEAR, start, IntegratorConfig(escape_radius=0.5))
        assert v.tag == "periodic"


class TestCrossingScreen:
    """`_may_cross` skips a step only where the scan of its dense output finds nothing."""

    def test_pinned_skip_and_pass(self):
        traj = orbit_verdict(LINEAR, (0.0, 1.0), CFG).trajectory
        steps = recorded_steps(traj)
        _, first = steps[0]  # near (0, 1), far from y = 0
        assert not flow._may_cross(first)
        assert flow._may_cross(first[:5] + (math.nan,) + first[6:])
        # y = cos t falls through 0 at t = pi/2, where x = 1
        t1, step = next((t1, step) for t1, step in steps if step[0] <= math.pi / 2 < t1)
        assert flow._may_cross(step)
        [(tc, xc, d)] = flow._section_crossings(t1, step)
        assert d == -1 and tc == pytest.approx(math.pi / 2) and xc == pytest.approx(1.0)

    @settings(max_examples=40)
    @given(
        st.dictionaries(
            st.sampled_from(["a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2"]),
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
        ),
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_screen_is_sound(self, params, x, y):
        vf = build_system(FamilyParams.make(**params))
        traj = orbit_verdict(vf, (x, y), IntegratorConfig(max_time=20.0)).trajectory
        for t1, step in recorded_steps(traj) if traj else ():
            move = flow._dense(step, t1)[1] - step[3]
            scan = [step[0] + (t1 - step[0]) * offset for offset in flow._SCAN_OFFSETS]
            peak = max((flow._dense(step, t)[1] - step[3] for t in scan), key=abs)
            # the same coefficients from a start that the step's move of y, or its
            # largest move at a scan point, carries just across 0
            for probe in (step, *(step[:3] + (-0.999 * m,) + step[4:] for m in (move, peak))):
                if not flow._may_cross(probe):
                    assert list(flow._section_crossings(t1, probe)) == []


class TestFirstIntegrals:
    def test_known_integrals_are_conserved_symbolically(self):
        cases = [
            ("aa1", FamilyParams.make(b1=1, c1=-4, d1=3)),
            ("aa2", FamilyParams.make(b1=-1, d1=-3)),
            ("aa3", FamilyParams.make(a1=1, c1=-2)),
            ("aa3", FamilyParams.make(a1=F(-2, 3), c1=F(-5, 4))),
        ]
        for tag, params in cases:
            h = conserved_quantity(tag, params)
            assert lie_derivative(h, build_system(params)).is_zero

    def test_quadratic_candidate_fails_on_mixed_slice(self):
        # the d1 = -b1-c1 slice is not Hamiltonian for the naive candidate
        params = FamilyParams.make(b1=1, c1=-3, d1=2)
        vf = build_system(params)
        h = Poly2({(2, 0): F(1, 2), (0, 2): F(1, 2)})
        assert not lie_derivative(h, vf).is_zero
        traj = integrate(vf, (1.0, 0.0), CFG, t_final=1.0)
        with pytest.raises(NotConserved):
            first_integral_check(vf, h, traj)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            conserved_quantity("aa4", FamilyParams())


class TestFiniteEquilibria:
    def test_linear_center_unique(self):
        assert finite_equilibria(LINEAR) == []

    def test_square_lattice_of_saddles(self):
        # c1 = 4 specialization: extra equilibria at (+/- 1/2, +/- 1/2)
        params = FamilyParams.make(b1=-1, c1=4, d1=-3)
        pts = finite_equilibria(build_system(params))
        assert len(pts) == 4
        for px, py in pts:
            assert abs(abs(px) - 0.5) < 1e-9 and abs(abs(py) - 0.5) < 1e-9

    def test_unique_for_global_member(self):
        params = FamilyParams.make(a1=1, b1=-2)
        assert finite_equilibria(build_system(params)) == []

    def test_irrational_roots_found(self):
        # cubic restoring branch -x + 3x^3 on y = 0: roots at +/- sqrt(1/3)
        params = FamilyParams.make(b1=1, c1=1, d1=1)
        pts = finite_equilibria(build_system(params))
        xs = sorted(px for px, py in pts)
        assert any(abs(px - 3 ** -0.5) < 1e-9 for px in xs)
        assert any(abs(px + 3 ** -0.5) < 1e-9 for px in xs)

    def test_radius_filter(self):
        params = FamilyParams.make(b1=-1, c1=4, d1=-3)
        assert finite_equilibria(build_system(params), radius=0.1) == []

    def test_unbounded_radius(self):
        # real equilibria at (+/- sqrt(1/(4 b1)), 0) = (+/- 1581.1, 0), beyond 1e3
        vf = build_system(FamilyParams.make(b1=F(1, 10**7), d1=F(3, 10**7)))
        assert finite_equilibria(vf) == []
        pts = finite_equilibria(vf, math.inf)
        assert [round(px, 6) for px, _ in pts] == [-1581.13883, 1581.13883]
        assert all(py == 0.0 for _, py in pts)

    def test_common_factor_curve(self):
        # both components share the factor x: a line of equilibria
        vf = VectorField(X * Y, X * (X - 1))
        pts = finite_equilibria(vf)
        assert pts  # some witness point on the curve x = 0 or the isolated root
        assert any(abs(px) < 1e-9 or abs(px - 1.0) < 1e-9 for px, py in pts)


class TestGlobalVerdict:
    def test_negative_control_has_escaping_witness(self):
        params = FamilyParams.make(b1=-1, c1=4, d1=-3)
        v = global_center_verdict(params)
        assert v.tag == "not-global"
        assert v.witness is not None
        assert any(s.tag == "escaping" for _, s in v.samples)
        assert len(v.extra_equilibria) == 4
        assert not v.line_at_infinity

    def test_line_at_infinity_flagged(self):
        params = FamilyParams.make(b2=1, d2=1)
        v = global_center_verdict(params)
        assert v.line_at_infinity
        assert v.tag == "not-global"
        assert any(s.tag == "escaping" for _, s in v.samples)

    def test_trivial_center_consistent(self):
        v = global_center_verdict(FamilyParams())
        assert v.tag == "global-center-consistent"
        assert v.witness is None
        assert all(s.tag == "periodic" for _, s in v.samples)

    def test_warns_without_center(self):
        params = FamilyParams.make(c2=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            global_center_verdict(params, sample_radii=(0.5,), angles=2)
        assert any("center" in str(w.message) for w in caught)

    def test_field_compiled_once_per_verdict(self, monkeypatch):
        compiled = []
        poly_expr = flow._poly_expr
        monkeypatch.setattr(flow, "_poly_expr", lambda p: compiled.append(p) or poly_expr(p))
        flow._compile.cache_clear()
        v = global_center_verdict(FamilyParams.make(b1=-1, c1=4, d1=-3))
        assert len(v.samples) == 32
        assert len(compiled) == 2  # p and q of one compilation

    def test_sample_order_deterministic(self):
        pts = sample_points((0.5, 1.0), 4)
        assert pts[0] == (0.5, 0.0)
        assert pts[1] == pytest.approx((0.0, 0.5))
        assert len(pts) == 8

    def test_determinism_bitwise(self):
        params = FamilyParams.make(b1=-1, c1=4, d1=-3)
        v1 = global_center_verdict(params, sample_radii=(1.0,), angles=4)
        v2 = global_center_verdict(params, sample_radii=(1.0,), angles=4)
        assert v1.to_json() == v2.to_json()

    def test_extra_equilibria_beyond_escape_radius(self):
        # center cases i and ii hold, but real equilibria at x = +/- 1581 make
        # the center non-global; the scan has no radius cut-off
        params = FamilyParams.make(b1=F(1, 10**7), d1=F(3, 10**7))
        assert not global_cases(params).is_global
        v = global_center_verdict(params)
        assert v.tag == "not-global"
        assert v.witness in v.extra_equilibria
        assert abs(abs(v.witness[0]) - 1581.13883) < 1e-4

    def test_escape_radius_limitation_documented(self):
        # Genuinely periodic orbits of this member exceed the escape radius
        # (excursions ~ 1e7), so the radius-bounded verdict reports
        # not-global even though the exact oracle certifies a global center.
        # The fixed escape radius is an operational limit, not a bug; the
        # deep members of this slice need chart-level continuation, which is
        # out of scope.
        params = FamilyParams.make(a1=1, b1=-2)
        assert global_cases(params).matching_statements == ("f",)
        v = global_center_verdict(params, sample_radii=(1.0,), angles=2)
        assert v.tag == "not-global"
        assert v.extra_equilibria == ()
        assert any(s.tag == "escaping" for _, s in v.samples)


class TestTimeReversalCrossCheck:
    @staticmethod
    def is_x_reversible(vf: VectorField) -> bool:
        # invariance under (x, y, t) -> (-x, y, -t): p even in x, q odd in x
        flip_p = vf.p.substitute(-X, Y)
        flip_q = vf.q.substitute(-X, Y)
        return flip_p == vf.p and flip_q == -vf.q

    def test_mixed_slice_is_reversible(self):
        params = FamilyParams.make(b1=1, c1=-3, d1=2)
        assert self.is_x_reversible(build_system(params))
        assert not self.is_x_reversible(build_system(FamilyParams.make(a1=1, c1=-2)))

    def test_two_transversal_axis_crossings_imply_periodic(self):
        params = FamilyParams.make(b1=1, c1=-3, d1=2)
        vf = build_system(params)
        rhs = compile_rhs(vf)

        def axis(t, z):
            return z[0]

        axis.direction = 0
        for x0 in (0.5, 1.0, 2.0):
            sol = solve_ivp(
                rhs, (0, 50.0), (x0, 0.0), rtol=1e-10, atol=1e-12, events=[axis]
            )
            crossings = [t for t in sol.t_events[0] if t > 1e-9]
            assert len(crossings) >= 2  # symmetric orbit must close
            verdict = orbit_verdict(vf, (x0, 0.0), CFG)
            assert verdict.tag == "periodic"
