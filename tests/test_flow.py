import dataclasses
import itertools
import json
import math
import signal
import struct
import warnings
from array import array
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
    global_cases,
    hamiltonian,
    lie_derivative,
)
from discflow.flow import (
    DEFAULT_ANGLES,
    IntegratorConfig,
    StepUnderflow,
    finite_equilibria,
    first_integral_check,
    global_center_verdict,
    orbit_verdict,
    sample_points,
)
from discflow.poly import Poly2, VectorField, X, Y

LINEAR = VectorField(Y, -X)
# a linear center of period 2 pi that is not reversible about the x-axis (x' has the
# term x), so its orbits are read by the full return map; H = x^2 + 2xy + 2y^2
SHEARED = VectorField(X + 2 * Y, -X - Y)
CFG = IntegratorConfig()


def kernel_field(vf: VectorField):
    """The field of vf's kernel as f(z) -> p + iq with z = x + iy."""
    shape, c, _ = flow._shape(vf)
    field = flow._kernel(shape)[1]
    return lambda z: complex(*field(z.real, z.imag, *c))


def kernel_steps(vf: VectorField, start, cfg: IntegratorConfig, traj):
    """The step stream of vf's kernel from start, recorded in traj."""
    shape, c, _ = flow._shape(vf)
    x, y = float(start[0]), float(start[1])
    return flow._kernel(shape)[0](traj, x, y, cfg.rel_tol, cfg.abs_tol, cfg.escape_radius, *c)


def over_one_period(vf: VectorField, start, verdict, cfg: IntegratorConfig = CFG):
    """The periodic verdict with its record replaced by the kernel's stream from start
    run past one whole period: a reversible verdict records only half of it."""
    traj = flow.Trajectory()
    for t1, _ in kernel_steps(vf, start, cfg, traj):
        if t1 >= verdict.period:
            break
    assert traj.t_end >= verdict.period
    return dataclasses.replace(verdict, trajectory=traj)


def full_return(vf: VectorField, start, cfg: IntegratorConfig = CFG):
    """One whole numerical loop read off the kernel's stream by hand, on any field:
    from the first crossing of y = 0 after the start to the next one in the same
    direction, as (time, |x displacement|); None if the stream ends or runs past
    twice max_time first."""
    traj, armed = flow.Trajectory(), None
    for t1, step in kernel_steps(vf, start, cfg, traj):
        for tc, xc, _, d in flow._section_crossings(t1, step):
            if armed is None:
                armed = tc, xc, d
            elif d == armed[2]:
                return tc - armed[0], abs(xc - armed[1])
        if t1 > 2.0 * cfg.max_time:
            return None
    return None


def compile_rhs(vf: VectorField):
    """The kernel's field as scipy's right-hand side f(t, (x, y)) -> (p, q)."""
    f = kernel_field(vf)

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


def complex_steps(vf: VectorField, x0, cfg: IntegratorConfig, traj, calls: list):
    """The engine's step loop in complex arithmetic: the state x + iy is one complex
    number, the tableau rows are walked term by term and the field is called through
    `kernel_field(vf)`, each call appended to calls.  The generated kernel must give
    the same floats byte for byte, but for the sign of a zero where a step leaves
    a coordinate in place."""
    field, rtol, atol, r = kernel_field(vf), cfg.rel_tol, cfg.abs_tol, cfg.escape_radius

    def f(z):
        calls.append(z)
        return field(z)

    def combo(row, k):  # sum(a * k_j) from the left, a negative a subtracted
        terms = [(a, k[j]) for j, a in row.items()]
        out = terms[0][0] * terms[0][1]
        for a, kj in terms[1:]:
            out = out - -a * kj if a < 0 else out + a * kj
        return out

    def norm(w, sx, sy):
        x, y = w.real / sx, w.imag / sy
        return math.sqrt(0.5 * (x * x + y * y))

    t, z = 0.0, complex(x0[0], x0[1])
    k = {0: f(z)}
    sx, sy = atol + abs(z.real) * rtol, atol + abs(z.imag) * rtol
    d0, d1 = norm(z, sx, sy), norm(k[0], sx, sy)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    probe = f(z + h0 * k[0])
    if not h0 > 0.0:
        raise StepUnderflow(f"initial step size {h0} is not positive")
    d2 = norm(probe - k[0], sx, sy) / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100 * h0, h1)
    zx, zy, rz = abs(z.real), abs(z.imag), abs(z)
    while True:
        min_step = 10.0 * math.ulp(t)
        h_abs, rejected = min_step if min_step > h_abs else h_abs, False
        while True:
            if not h_abs >= min_step:
                raise StepUnderflow("Required step size is less than spacing between numbers.")
            if h_abs == math.inf:
                raise StepUnderflow("Required step size is infinite.")
            t1 = t + h_abs
            h = h_abs = t1 - t
            for i in range(1, 12):
                k[i] = f(z + h * combo(flow._A[i], k))
            zn = z + h * combo(flow._A[12], k)  # the step's end, where stage 12 is taken once accepted
            d = {j: k[j] - k[0] for j in flow._E5}
            err5, err3 = combo(flow._E5, d), combo(flow._E3, d)
            ax, ay = abs(zn.real), abs(zn.imag)
            sx, sy = atol + (ax if ax > zx else zx) * rtol, atol + (ay if ay > zy else zy) * rtol
            e5 = (err5.real / sx) ** 2 + (err5.imag / sy) ** 2
            e3 = (err3.real / sx) ** 2 + (err3.imag / sy) ** 2
            err = abs(h) * e5 / math.sqrt(2.0 * (e5 + 0.01 * e3)) if e5 else 0.0
            if err < 1.0:
                factor, cap = 10.0 if err == 0.0 else 0.9 * err**-0.125, 1.0 if rejected else 10.0
                h_abs *= factor if factor < cap else cap
                break
            factor = 0.9 * err**-0.125
            h_abs *= factor if factor > 0.2 else 0.2
            rejected = True
            traj.rejected += 1
        k[12] = f(zn)
        for i in (13, 14, 15):
            k[i] = f(z + h * combo(flow._A[i], k))
        f0 = zn - z
        dense = [f0, h * k[0] - f0, 2.0 * f0 - h * (k[12] + k[0])]
        dense += [h * combo(row, k) for row in flow._DENSE]
        step = (t, h, z.real, z.imag, *(part for w in dense for part in (w.real, w.imag)))
        traj.steps.extend(step)
        rzn = abs(zn)
        escaped = rz <= r < rzn
        if escaped:
            t1 = flow._bisect_time(lambda t: math.hypot(*flow._dense(step, t)) - r, t, t1)
        traj.t_end, traj.escaped = t1, escaped
        yield t1, step
        if escaped:
            return
        t, z, k[0], zx, zy, rz = t1, zn, k[12], ax, ay, rzn


def run_steps(steps, t_final: float, max_steps: int):
    """Run a step stream to t_final or max_steps; the failure it raised, if any."""
    try:
        for n, (t1, _) in enumerate(steps, 1):
            if t1 > t_final or n == max_steps:
                return None
    except StepUnderflow as exc:
        return str(exc)
    return None


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
    """Integration as read off a verdict's record."""

    # the verdicts below record half a loop; the kernel is driven over the whole period

    def test_harmonic_oscillator_stays_on_circle(self):
        v = orbit_verdict(LINEAR, (1.0, 0.0), CFG)
        assert v.trajectory.t_end < 0.51 * v.period
        loop = over_one_period(LINEAR, (1.0, 0.0), v).trajectory.sample(500, v.period)
        assert loop[-1][0] == v.period
        worst = max(abs(math.hypot(px, py) - 1.0) for _, px, py in loop)
        assert worst < 1e-8

    def test_cubic_restoring_conserves_energy(self):
        # x' = y, y' = -x + 4*b1*x^3 with b1 = -1
        vf = build_system(FamilyParams.make(b1=-1, d1=-3))
        v = orbit_verdict(vf, (1.0, 0.0), CFG)
        assert v.trajectory.t_end < 0.51 * v.period
        assert first_integral_check(vf, hamiltonian(vf), over_one_period(vf, (1.0, 0.0), v)) < 1e-8

    def test_escape_detected(self):
        # c1 = 4 specialization has unbounded orbits through (1, 1)
        params = FamilyParams.make(b1=-1, c1=4, d1=-3)
        traj = orbit_verdict(build_system(params), (1.0, 1.0), CFG).trajectory
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
        assert flow._shape(vf) == (("y + c0*x*x*y", "-x + c1*x*y*y"), (-4.0, 4.0), True)
        # a constant is a coefficient, whatever its value
        vf = VectorField(Poly2.const(F(-1)) + X, Poly2())
        assert flow._shape(vf) == (("c0 + x", "0.0"), (-1.0,), False)

    def test_one_kernel_per_shape(self):
        # the control and its rescaling by 2 have one shape: one kernel, compiled once
        flow._kernel.cache_clear()
        control = build_system(FamilyParams.make(b1=-1, c1=4, d1=-3))
        scaled = build_system(FamilyParams.make(b1=-4, c1=16, d1=-12))
        assert flow._shape(control)[0] == flow._shape(scaled)[0]
        assert flow._shape(control)[1] != flow._shape(scaled)[1]
        for vf in (control, scaled):
            assert orbit_verdict(vf, (0.1, 0.0), CFG).trajectory.accepted > 0
        assert flow._kernel.cache_info().misses == 1 and flow._kernel.cache_info().currsize == 1

    @settings(max_examples=60)
    @given(family, st.lists(st.floats(allow_nan=False), min_size=2, max_size=2))
    def test_same_floats_as_the_written_out_coefficients(self, params, point):
        vf = build_system(FamilyParams.make(**params))
        assert 1.0 not in map(abs, flow._shape(vf)[1])  # the family has no constant term
        f = kernel_field(vf)
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
        traj = flow.Trajectory()
        for t1, _ in kernel_steps(vf, (5.0, 0.0), CFG, traj):
            if t1 > t_final:
                break
        assert not traj.escaped and traj.t_end > t_final
        starts = traj.steps[::flow._STRIDE]  # 0.0, then the end of every step but the last
        # rounding differences feed back into the step sizes: the two grids
        # drift apart by up to about 2e-7 over these 160 to 690 steps
        assert abs(len(starts) - len(ends)) <= 1
        assert max(abs(a - b) for a, b in zip(starts[1:], ends)) < 1e-6
        # the record's counters: 11 field evaluations per attempt, 2 for the first
        # step, and stage 12 and the 3 extra stages on every accepted step; scipy
        # takes stage 12 on every attempt too, and the 3 extra ones only in
        # dense_output (3 more); no step of the linear field is rejected
        assert traj.accepted == len(starts) and abs(traj.rejected - rejected) <= 1
        assert (traj.rejected > 0) == (vf is not LINEAR)
        nfev = traj.nfev - 3 * traj.accepted + traj.rejected
        assert abs(traj.accepted - len(ends)) <= 1 and abs(nfev - solver.nfev) <= 12
        # the end state, and the dense output inside the last step
        for t in (t_final, 0.5 * (dense.t_old + dense.t)):
            _, x, y = traj.sample(2, t)[-1]
            assert math.hypot(x - dense(t)[0], y - dense(t)[1]) < 1e-9


UNIT_OR_ZERO = st.sampled_from([F(-1), F(0), F(1)])


class TestKernelMatchesComplexLoop:
    """The generated plain-float kernel takes the complex loop's steps byte for byte."""

    @staticmethod
    def assert_same(vf: VectorField, start, t_final: float = 20.0, max_steps: int = 400):
        traj, reference = flow.Trajectory(), flow.Trajectory()
        failure = run_steps(kernel_steps(vf, start, CFG, traj), t_final, max_steps)
        assert run_steps(complex_steps(vf, start, CFG, reference, []), t_final, max_steps) == failure
        assert traj.rejected == reference.rejected and traj.escaped == reference.escaped
        assert same_float(traj.t_end, reference.t_end)
        moves = traj.steps[4 :: flow._STRIDE] + traj.steps[5 :: flow._STRIDE]  # F0, each step's move
        if 0.0 in moves:  # a coordinate that stays put for a step may keep a zero of either sign
            cleared = [array("d", (v + 0.0 for v in t.steps)).tobytes() for t in (traj, reference)]
            assert cleared[0] == cleared[1]
        else:
            assert traj.steps.tobytes() == reference.steps.tobytes()
        return traj

    @pytest.mark.parametrize(
        ("vf", "start"),
        [
            (LINEAR, (1.0, 0.0)),
            (LINEAR, (0.0, -1.0)),
            (VectorField(X * Y, X * (X - 1)), (0.5, 0.3)),
            (VectorField(X * Y, X * (X - 1)), (0.0, 0.7)),  # on its line of equilibria
            (LINEAR, (0.0, 0.0)),  # an equilibrium: the zeros of F1 differ in sign
            (VectorField(Y - X**4, -X + F(1, 2) * X * Y**3), (0.5, -0.25)),
        ],
        ids=["linear", "linear-below", "common-factor", "common-factor-equilibrium",
             "linear-equilibrium", "quartic"],
    )
    def test_any_field(self, vf, start):
        self.assert_same(vf, start)

    def test_rejections_and_escape(self):
        # iii-line-a1 from (5, 0) rejects 79 attempts in its first 260 steps; the control escapes
        traj = self.assert_same(build_system(FamilyParams.make(a1=1, b1=1, d1=-1)), (5.0, 0.0))
        assert traj.rejected > 50
        traj = self.assert_same(build_system(FamilyParams.make(b1=-1, c1=4, d1=-3)), (1.0, 1.0))
        assert traj.escaped

    @settings(max_examples=60)
    @given(
        st.dictionaries(
            st.sampled_from(["a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2"]),
            UNIT_OR_ZERO | st.fractions(min_value=-3, max_value=3, max_denominator=4),
        ),
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_family_draws(self, params, x, y):
        self.assert_same(build_system(FamilyParams.make(**params)), (x, y))


class TestRecord:
    def test_verdict_carries_its_record(self):
        v = orbit_verdict(SHEARED, (0.0, 1.0), CFG)
        traj = v.trajectory
        assert v.tag == "periodic" and len(traj.steps) % flow._STRIDE == 0
        # the carry phase (pi/4) and one period (2 pi) are both in the record
        assert traj.t_end >= math.pi / 4 + v.period
        _, x, y = traj.sample(2, v.period)[-1]
        assert math.hypot(x, y - 1.0) < 1e-8

    def test_sample_refuses_to_extrapolate(self):
        # records cut on the x-axis and at the exit, whose last step reaches past t_end,
        # and one that ends with its last step
        control = build_system(FamilyParams.make(b1=-1, c1=4, d1=-3))
        for vf, start in [(LINEAR, (1.0, 0.0)), (control, (1.0, 1.0)), (SHEARED, (0.0, 1.0))]:
            traj = orbit_verdict(vf, start, CFG).trajectory
            assert traj.sample(3, traj.t_end) == traj.sample(3)
            for t_end in (math.nextafter(traj.t_end, math.inf), traj.t_end + 5.0, math.inf, math.nan):
                with pytest.raises(ValueError, match="past the record's end"):
                    traj.sample(3, t_end)

    def test_record_is_not_part_of_the_value(self):
        v = orbit_verdict(LINEAR, (1.0, 0.0), CFG)
        bare = dataclasses.replace(v, trajectory=None)
        assert v.trajectory is not None
        assert v == bare and hash(v) == hash(bare)
        assert v.to_json() == bare.to_json() and "trajectory" not in v.to_json()
        assert repr(v) == repr(bare)

    @pytest.mark.parametrize("n", [1, 2, 3, 600])
    def test_sample_matches_the_bisecting_reader(self, n):
        control = build_system(FamilyParams.make(b1=-1, c1=4, d1=-3))
        escaping = orbit_verdict(control, (1.0, 1.0), CFG).trajectory
        t0, h = escaping.steps[-flow._STRIDE : 2 - flow._STRIDE]
        assert escaping.escaped and escaping.t_end < t0 + h  # its last step is cut at the exit
        periodic = orbit_verdict(LINEAR, (0.0, 1.0), CFG).trajectory
        one_step = flow.Trajectory(periodic.steps[: flow._STRIDE], periodic.steps[flow._STRIDE])
        for traj in (periodic, escaping, one_step):
            starts = traj.steps[flow._STRIDE :: flow._STRIDE][:3]
            # with t_end a step's start, or twice it, the last of 2 or the middle of 3 samples is on it
            assert all(traj.sample(2, t)[1][0] == traj.sample(3, 2 * t)[1][0] == t for t in starts)
            on_starts = [t * f for t in starts for f in (1.0, 2.0)]
            for t_end in (None, 0.0, 0.37 * traj.t_end, traj.t_end, *on_starts):
                assert traj.sample(n, t_end) == bisect_sample(traj, n, t_end)

    @pytest.mark.parametrize("overflow", [False, True], ids=["steps", "overflow"])
    def test_nfev_counts_the_field_calls(self, overflow):
        # the kernel calls no field, so the calls are counted in the complex stepper,
        # which takes the kernel's steps byte for byte; no step of the linear field is
        # rejected, so a nonlinear one counts attempts
        params = dict(b1=-1, c1=4, d1=-3) if overflow else dict(a1=1, b1=1, d1=-1)
        vf, start = build_system(FamilyParams.make(**params)), (1e200 if overflow else 5.0, 0.0)
        traj, reference, calls = flow.Trajectory(), flow.Trajectory(), []
        failure = run_steps(kernel_steps(vf, start, CFG, traj), math.inf, 1000)
        assert run_steps(complex_steps(vf, start, CFG, reference, calls), math.inf, 1000) == failure
        assert traj.steps.tobytes() == reference.steps.tobytes()
        if overflow:  # the field overflows at the start: the initial step fails
            assert failure == "initial step size nan is not positive" and len(calls) == 2
        else:
            assert failure is None and traj.accepted == 1000 and traj.rejected > 0
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

    def test_equilibrium_start_ends_the_stream(self):
        # the error is 0 at an equilibrium, so the step grows tenfold per step
        # until it is inf; the stream must then end in StepUnderflow, not spin
        def expire(signum, frame):
            raise TimeoutError("the step stream from an equilibrium did not end")

        traj, previous = flow.Trajectory(), signal.signal(signal.SIGALRM, expire)
        signal.alarm(10)
        try:
            with pytest.raises(StepUnderflow, match="infinite"):
                for _ in kernel_steps(LINEAR, (0.0, 0.0), CFG, traj):
                    pass
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert traj.accepted == 315 and traj.rejected == 0 and math.isfinite(traj.t_end)


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

    # On SHEARED, x = 2 sin t and y = cos t - sin t from (0, 1): the orbit reaches
    # the section at t = pi/4, at (sqrt 2, 0), and returns 2*pi later: each phase
    # has its own max_time, so 6.5 suffices although pi/4 + 2*pi > 6.5.
    def test_carry_phase_time_budget(self):
        v = orbit_verdict(SHEARED, (0.0, 1.0), IntegratorConfig(max_time=0.5))
        assert v.tag == "inconclusive"
        assert v.reason == "orbit never reaches the section {y = 0, x > 0}"

    def test_return_phase_time_budget(self):
        v = orbit_verdict(SHEARED, (0.0, 1.0), IntegratorConfig(max_time=6.0))
        assert v.tag == "inconclusive"
        assert v.reason == "no section return within max_time"

    def test_each_phase_has_its_own_budget(self):
        v = orbit_verdict(SHEARED, (0.0, 1.0), IntegratorConfig(max_time=6.5))
        assert v.tag == "periodic" and v.certificate is None
        assert v.period == pytest.approx(2 * math.pi, abs=1e-6)

    @pytest.mark.parametrize(
        "params",
        [dict(b1=1, c1=-4, d1=3), dict(b1=-1, d1=-3), dict(a1=1, c1=-2), dict(),
         dict(b1=1, c1=-3, d1=2), dict(b1=-1, d1=-2), dict(c1=F(-1, 5), d1=F(1, 5)),
         dict(b1=-1, c1=4, d1=-3), dict(a1=1, b1=-2)],
        ids=["a", "b", "c", "d", "e", "f", "g", "control", "f-escape"],
    )
    def test_signed_zero_section_start(self, params):
        # the start is judged by the field at the point itself, y = -0.0 included
        vf = build_system(FamilyParams.make(**params))
        for r in (0.5, 1.0, 2.0, 5.0):
            assert orbit_verdict(vf, (r, -0.0), CFG) == orbit_verdict(vf, (r, 0.0), CFG)

    @pytest.mark.parametrize(
        ("start", "t_a"), [((1.0, 0.0), 0.0), ((0.0, 1.0), math.pi / 2), ((-1.0, 0.0), 0.0)]
    )
    def test_reversible_field_reads_half_a_loop(self, start, t_a):
        # LINEAR is reversible: the start is carried to its first crossing b of y = 0, its
        # mirror (x, -y) to its own, a, at t_a; a start on the axis, either side, is its own
        # mirror (a = start, t_a = 0, an empty record); the two are half a loop, a to b
        v = orbit_verdict(LINEAR, start, CFG)
        assert v.tag == "periodic" and v.certificate == "reversible"
        assert v.period == pytest.approx(2 * math.pi, abs=1e-9)
        assert (not v.mirror_trajectory.steps) == (start[1] == 0.0)
        x_a = start[0] if start[1] == 0.0 else -1.0
        for record, t_end, x_end in ((v.trajectory, math.pi - t_a, -x_a), (v.mirror_trajectory, t_a, x_a)):
            assert record.t_end == pytest.approx(t_end, abs=1e-9)
            _, x, y = record.sample(2)[-1] if record.steps else (0.0, *start)
            assert x == pytest.approx(x_end, abs=1e-9) and abs(y) <= v.closure_error / 2
        assert 0.0 <= v.closure_error < 1e-9
        assert v.to_json()["certificate"] == "reversible"
        assert v.to_json() == orbit_verdict(LINEAR, (start[0], -start[1]), CFG).to_json()

    def test_closure_is_the_gap_where_the_mirror_joins(self):
        # a start on the axis is its own mirror (y = 0 at a), so the gap is twice |y| at b
        v = orbit_verdict(LINEAR, (2.0, 0.0), CFG)
        traj = v.trajectory
        last = traj.steps[-flow._STRIDE :]
        assert v.closure_error == 2.0 * abs(flow._dense(last, traj.t_end)[1])

    def test_sign_changes_at_one_point_certify_nothing(self):
        # (-1, 1.2e-16), the float of the angle pi at r = 1, lies 1.2e-16 from the saddle
        # (-1, 0) of this reversible member: y changes sign twice there at rounding level,
        # which would read as a periodic orbit of period about 5.  The start and its mirror
        # each cross the axis there, so the reading certifies nothing
        vf = build_system(FamilyParams.make(a1=1, d1=2))
        start = (-1.0, 1.2246467991473532e-16)
        assert flow._shape(vf)[2]
        traj = flow.Trajectory()
        noise = [c for t1, step in itertools.islice(kernel_steps(vf, start, CFG, traj), 6)
                 for c in flow._section_crossings(t1, step)]
        assert len(noise) == 2 and all(abs(xc + 1.0) < 1e-12 for _, xc, _, _ in noise)
        v = orbit_verdict(vf, start, CFG)
        assert v.tag == "inconclusive" and v.reason == "both crossings of the x-axis at one point"
        for record in (v.trajectory, v.mirror_trajectory):
            assert abs(record.sample(2)[-1][1] + 1.0) < 1e-12

    def test_a_start_on_a_separatrix_to_rounding_is_not_certified(self):
        # a1 = -1: the start (-1, 1.2e-16) lies 1.2e-16 outside the triangle of invariant lines
        # whose corners are the saddles (-1, 0) and (1/2, +-sqrt(3)/2), where orbits escape;
        # its numerical orbit, which used to read periodic (period 79.6) after running along
        # the triangle, and that of its mirror both cross the axis by the saddle (-1, 0)
        vf = build_system(FamilyParams.make(a1=-1))
        v = orbit_verdict(vf, (-1.0, 1.2246467991473532e-16), CFG)
        assert v.tag == "inconclusive" and v.reason == "both crossings of the x-axis at one point"
        assert orbit_verdict(vf, (-1.0, 0.0), CFG).reason == "start is an equilibrium or a section tangency"

    @pytest.mark.parametrize(
        ("start", "reason"),
        [((-1.0, 0.0), "no section return within max_time"),
         ((-1.0, 1.2246467991473532e-16), "orbit never reaches the section {y = 0}")],
    )
    def test_an_exit_past_max_time_is_read_as_time_out(self, start, reason):
        # a1 = 1, c1 = -1: one step from before max_time leaves the escape radius at t = 333,
        # past it; a start on the axis is armed there, so its carry to the axis is its return
        vf = build_system(FamilyParams.make(a1=1, c1=-1))
        v = orbit_verdict(vf, start, CFG)
        assert v.trajectory.escaped and v.trajectory.t_end > CFG.max_time
        assert v.tag == "inconclusive" and v.reason == reason and v.mirror_trajectory is None

    @pytest.mark.parametrize("start", [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0)])
    def test_non_reversible_field_reads_a_full_return(self, start):
        v = orbit_verdict(SHEARED, start, CFG)
        assert v.tag == "periodic" and v.certificate is None
        assert "certificate" not in v.to_json()
        assert v.period == pytest.approx(2 * math.pi, abs=1e-6)
        assert v.trajectory.t_end >= v.period  # a start off {y = 0, x > 0} is carried first
        assert (v.trajectory.t_end > v.period + 0.5) == (start != (1.0, 0.0))

    def test_reversible_start_on_the_axis_at_an_equilibrium(self):
        # b1 = 1, c1 = 2, d1 = 1 is reversible, with the lines of equilibria x = +-1/2
        vf = build_system(FamilyParams.make(b1=1, c1=2, d1=1))
        assert flow._shape(vf)[2]
        for x in (0.5, -0.5):
            v = orbit_verdict(vf, (x, 0.0), CFG)
            assert v.reason == "start is an equilibrium or a section tangency"

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
        [(tc, xc, yc, d)] = flow._section_crossings(t1, step)
        assert d == -1 and tc == pytest.approx(math.pi / 2) and xc == pytest.approx(1.0)
        assert (xc, yc) == flow._dense(step, tc) and abs(yc) < 1e-11

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
        for params in [
            FamilyParams.make(b1=1, c1=-4, d1=3),
            FamilyParams.make(b1=-1, d1=-3),
            FamilyParams.make(a1=1, c1=-2),
            FamilyParams.make(a1=F(-2, 3), c1=F(-5, 4)),
        ]:
            vf = build_system(params)
            assert lie_derivative(hamiltonian(vf), vf).is_zero

    def test_quadratic_candidate_fails_on_mixed_slice(self):
        # the d1 = -b1-c1 slice is not Hamiltonian for the naive candidate
        params = FamilyParams.make(b1=1, c1=-3, d1=2)
        vf = build_system(params)
        h = Poly2({(2, 0): F(1, 2), (0, 2): F(1, 2)})
        assert not lie_derivative(h, vf).is_zero
        with pytest.raises(NotConserved):
            first_integral_check(vf, h, orbit_verdict(vf, (1.0, 0.0), CFG))

    def test_periodic_verdict_is_read_over_its_period_or_its_record(self, monkeypatch):
        # the full return records past one period, the reversible reading the start's record
        read, sample = [], flow.Trajectory.sample
        monkeypatch.setattr(flow.Trajectory, "sample", lambda traj, n, t_end=None: (
            read.append(t_end) or sample(traj, n, t_end)))
        records = []
        for vf, h in [(SHEARED, X * X + 2 * X * Y + 2 * Y * Y), (LINEAR, X * X + Y * Y)]:
            v = orbit_verdict(vf, (0.0, 1.0), CFG)
            assert first_integral_check(vf, h, v) < 1e-8
            records.append(v.trajectory)
        full, half = records
        assert full.t_end > read[0] == pytest.approx(2 * math.pi, abs=1e-6)
        # the start's record, from (0, 1) to the axis, a quarter of the loop
        assert read[1] == half.t_end == pytest.approx(0.5 * math.pi, abs=1e-9)

    def test_escaping_verdict_is_read_over_its_whole_record(self):
        # H = -1 on the control's orbit from (1, 1), out to the escape radius
        vf = build_system(FamilyParams.make(b1=-1, c1=4, d1=-3))
        v = orbit_verdict(vf, (1.0, 1.0), CFG)
        assert v.tag == "escaping" and v.period is None
        assert first_integral_check(vf, hamiltonian(vf), v) < 1e-8

    @pytest.mark.parametrize(
        ("vf", "start"),
        [
            (build_system(FamilyParams.make(b1=1, c1=2, d1=1)), (0.5, 0.0)),  # a line of equilibria
            (build_system(FamilyParams.make(b1=1, c1=2, d1=1)), (0.5, 0.3)),
            (build_system(FamilyParams.make(b1=-1, c1=4, d1=-3)), (1e200, 0.0)),  # no first step
        ],
        ids=["on-section-equilibrium", "off-section-equilibrium", "failed-first-step"],
    )
    def test_verdict_without_a_record_refused(self, vf, start):
        v = orbit_verdict(vf, start, CFG)
        assert v.tag == "inconclusive" and not (v.trajectory and v.trajectory.steps)
        h = Poly2()  # the zero polynomial is conserved by any field
        with pytest.raises(ValueError, match="^the verdict has no record to check: "):
            first_integral_check(vf, h, v)


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

    def test_field_compiled_once_per_verdict(self):
        for cache in (flow._shape, flow._kernel):
            cache.cache_clear()
        v = global_center_verdict(FamilyParams.make(b1=-1, c1=4, d1=-3))
        assert len(v.samples) == 32
        # the field is written once, as its shape, and its kernel compiled once; each
        # orbit then finds its shape, coefficients and reversibility in one lookup
        assert flow._shape.cache_info().misses == 1 and flow._kernel.cache_info().misses == 1
        assert flow._shape.cache_info().hits == len(v.samples)
        # the control is reversible: the mirror starts' carries take no lookup of their own
        assert sum(bool(s.mirror_trajectory and s.mirror_trajectory.steps) for _, s in v.samples) > 0

    def test_coefficient_beyond_float_range_refused_before_the_scans(self, monkeypatch):
        def scan(*args):
            raise AssertionError("scanned")

        monkeypatch.setattr(flow, "infinite_equilibria", scan)
        monkeypatch.setattr(flow, "finite_equilibria", scan)
        params = FamilyParams.make(b1=F(10**400))
        with pytest.raises(OverflowError):
            global_center_verdict(params)
        with pytest.raises(OverflowError):
            orbit_verdict(build_system(params), (1.0, 0.0), CFG)

    def test_sample_order_deterministic(self):
        pts = sample_points((0.5, 1.0), 4)
        assert pts[0] == (0.5, 0.0)
        assert pts[1] == pytest.approx((0.0, 0.5))
        assert len(pts) == 8

    @pytest.mark.parametrize("angles", [1, 2, 3, 4, 7, 8, 12])
    def test_fan_mirrors_exactly(self, angles):
        # the angles in [0, pi] are computed, the rest are their exact mirrors (x, -y), and
        # the starts at 0 and pi lie on the x-axis itself
        radii = (0.5, 1.0, 2.0, 5.0)
        pts = sample_points(radii, angles)
        assert len(pts) == len(radii) * angles
        for i, r in enumerate(radii):
            fan = pts[i * angles : (i + 1) * angles]
            assert fan[0] == (r, 0.0) and math.copysign(1.0, fan[0][1]) == 1.0
            if angles % 2 == 0:
                assert fan[angles // 2] == (-r, 0.0) and math.copysign(1.0, fan[angles // 2][1]) == 1.0
            for k in range(1, angles):
                if 2 * k != angles:
                    assert fan[angles - k] == (fan[k][0], -fan[k][1])
                    assert (fan[k][1] > 0.0) == (2 * k < angles)
                theta = 2.0 * math.pi * k / angles
                assert fan[k] == pytest.approx((r * math.cos(theta), r * math.sin(theta)), abs=1e-15 * r)

    @pytest.mark.parametrize(
        "params",
        [dict(c1=F(-1, 5), d1=F(1, 5)), dict(a1=F(7, 10), c1=F(-49, 50)), dict(a1=1, b1=1, d1=-1)],
        ids=["g", "c-costly", "iii-line-a1"],
    )
    def test_mirrored_periodic_verdicts_are_bitwise_equal(self, params):
        # each verdict carries the start and its mirror to the axis, the mirror start's verdict
        # the same two, so a periodic pair reads the same period 2*(t_a + t_b) and gap
        v = global_center_verdict(FamilyParams.make(**params))
        samples, angles, pairs = v.samples, DEFAULT_ANGLES, 0
        for i in range(0, len(samples), angles):
            for k in range(1, angles // 2):
                (pt, one), (mirror_pt, other) = samples[i + k], samples[i + angles - k]
                assert mirror_pt == (pt[0], -pt[1]) and pt[1] > 0.0
                if one.tag == "periodic" or other.tag == "periodic":
                    assert json.dumps(one.to_json()) == json.dumps(other.to_json()), pt
                    pairs += 1
        assert pairs >= 6

    def test_escape_past_the_mirror_start_is_timed_from_the_arming(self):
        # on a portrait-center member, an orbit that escapes after its mirror start's carry
        # reads exit time t_b + that carry's exit time; the stream from the start run on past b
        # reaches the exit after t_b + that same exit time
        vf = build_system(FamilyParams.make(a1=1, b1=1, d1=-1))
        checked = 0
        for pt in sample_points(flow.DEFAULT_RADII, DEFAULT_ANGLES):
            v = orbit_verdict(vf, pt, CFG)
            if v.tag != "escaping" or v.mirror_trajectory is None:
                continue
            traj = flow.Trajectory()
            assert run_steps(kernel_steps(vf, pt, CFG, traj), 10 * CFG.max_time, 10**6) is None
            assert traj.escaped
            assert traj.t_end - v.trajectory.t_end == pytest.approx(v.exit_time, rel=1e-6)
            checked += 1
        assert checked >= 4

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

    @settings(max_examples=60)
    @given(
        st.dictionaries(
            st.sampled_from(["a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2"]),
            UNIT_OR_ZERO | st.fractions(min_value=-3, max_value=3, max_denominator=4),
        )
    )
    def test_reversibility_read_off_the_terms(self, params):
        # (x, y, t) -> (x, -y, -t) maps orbits to orbits: p(x, -y) = -p, q(x, -y) = q
        vf = build_system(FamilyParams.make(**params))
        mirrored = vf.p.substitute(X, -Y) == -vf.p and vf.q.substitute(X, -Y) == vf.q
        assert flow._shape(vf)[2] == mirrored
        nonzero = {k for k, v in params.items() if v}
        if not nonzero & {"a2", "b2", "c2", "d2"}:
            assert flow._shape(vf)[2]

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
