"""Numerical orbit verification on top of the exact family oracles.

Floats live only here.  Every orbit runs through one engine: scipy's RK45
(Dormand-Prince 5(4) and its step control) in plain Python floats, with no
end time, one accepted step at a time, each kept in the orbit's record (a
`Trajectory`) as its start, size and stage slopes.  A sound screen on the
slopes passes the few steps where y may change sign, and only there (and at
an exit, or in a drawing) is a step's dense quartic built; sign changes are
bisected to 1e-12 on it, so section crossings arrive in time order.  Escape
is an outward crossing of the escape radius, where the stream ends.  One
reader, `_read_orbit`, turns that stream into every `OrbitVerdict`,
evaluating the field only through its compiled form, and each verdict
carries its record, which the portrait draws.
The exact scan for other finite equilibria is in `equilibria`, the exact first
integrals are in `family`; `first_integral_check` measures their float drift.
"""

from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import dataclass, field
from functools import lru_cache

from .compactify import InfinityReport, infinite_equilibria
from .equilibria import finite_equilibria
from .family import FamilyParams, NotConserved, build_system, center_cases, lie_derivative
from .poly import Poly2, VectorField

_T_GUARD = 1e-9
_SUBDIV = 6
_SCAN_OFFSETS = tuple(k / _SUBDIV for k in range(1, _SUBDIV + 1))
_TANGENCY = "start is an equilibrium or a section tangency"
_DRIFT_SAMPLES = 2001  # times at which first_integral_check reads a first integral


class StepUnderflow(RuntimeError):
    """The integrator failed (stiffness or a finite-time singularity)."""


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_time: float = 200.0
    escape_radius: float = 1e3
    section_closure_tol: float = 1e-6

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "max_time", "escape_radius", "section_closure_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive")


@dataclass(eq=False)
class Trajectory:
    """The record of one orbit: its accepted steps, 16 floats each, in `steps`.

    A step is t0, h, x, y, then (x, y) of the stage slopes k1, k3..k7, which
    `_quartic` turns into its dense quartic; an escaped orbit ends at its exit.
    Each step attempt, accepted or `rejected`, costs 6 field evaluations."""

    steps: array = field(default_factory=lambda: array("d"))
    t_end: float = 0.0
    escaped: bool = False
    rejected: int = 0

    @property
    def accepted(self) -> int:
        return len(self.steps) // _STRIDE

    @property
    def nfev(self) -> int:
        return 2 + 6 * (self.accepted + self.rejected)

    def sample(self, n: int, t_end: float | None = None) -> list[tuple[float, float, float]]:
        """n evenly spaced (t, x, y) over [0, t_end], by default the whole record."""
        t_end = self.t_end if t_end is None else t_end
        steps, last, i, quartic, out = self.steps, len(self.steps) - _STRIDE, 0, None, []
        for k in range(n):
            t = t_end * k / max(n - 1, 1)
            # the last step starting at or before t: t never decreases
            while i < last and not t < steps[i + _STRIDE]:
                i, quartic = i + _STRIDE, None
            if quartic is None:
                quartic = _quartic(steps[i : i + _STRIDE])
            out.append((t, *_dense(quartic, t)))
        return out


@dataclass(frozen=True)
class OrbitVerdict:
    tag: str  # "periodic" | "escaping" | "inconclusive"
    period: float | None = None
    exit_time: float | None = None
    closure_error: float | None = None
    reason: str | None = None
    # the record the verdict was read from, for drawing; not part of its value
    trajectory: Trajectory | None = field(default=None, compare=False, repr=False)

    @classmethod
    def periodic(cls, period: float, closure_error: float, trajectory=None) -> "OrbitVerdict":
        return cls("periodic", period=period, closure_error=closure_error, trajectory=trajectory)

    @classmethod
    def escaping(cls, exit_time: float, trajectory=None) -> "OrbitVerdict":
        return cls("escaping", exit_time=exit_time, trajectory=trajectory)

    @classmethod
    def inconclusive(cls, reason: str, trajectory=None) -> "OrbitVerdict":
        return cls("inconclusive", reason=reason, trajectory=trajectory)

    def to_json(self) -> dict:
        names = ("tag", "period", "exit_time", "closure_error", "reason")
        return {name: getattr(self, name) for name in names if getattr(self, name) is not None}


def _poly_expr(p: Poly2) -> str:
    if p.is_zero:
        return "0.0"
    # powers as products: a float product overflows to inf, where x**3 raises
    return " + ".join(
        "*".join([repr(float(c))] + ["x"] * i + ["y"] * j) for (i, j), c in sorted(p.terms.items())
    )


@lru_cache
def _compile(vf: VectorField):
    """The field as f(z) -> p + iq with z = x + iy."""
    p, q = _poly_expr(vf.p), _poly_expr(vf.q)
    src = f"def f(z):\n    x, y = z.real, z.imag\n    return complex({p}, {q})\n"
    namespace: dict = {}
    exec(src, {"__builtins__": {}, "complex": complex}, namespace)
    return namespace["f"]


# -- the orbit engine ----------------------------------------------------------

_STRIDE = 16  # floats per recorded step


def _bisect_time(g, a: float, b: float, width: float = 1e-12) -> float:
    """A zero of the scalar g(t) between a and b, where g changes sign."""
    ga = g(a)
    while b - a > width:
        mid = 0.5 * (a + b)
        if mid in (a, b):  # no float left between a and b
            break
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (ga > 0.0) != (gm > 0.0):
            b = mid
        else:
            a, ga = mid, gm
    return 0.5 * (a + b)


def _quartic(step) -> tuple:
    """A recorded step as t0, h, x, y, then (x, y) of c1..c4: at t0 + s*h the
    state is (x, y) + s*(c1 + s*(c2 + s*(c3 + s*c4)))."""
    t0, h, x, y, a1, b1, a3, b3, a4, b4, a5, b5, a6, b6, a7, b7 = step
    k1, k3, k4 = complex(a1, b1), complex(a3, b3), complex(a4, b4)
    k5, k6, k7 = complex(a5, b5), complex(a6, b6), complex(a7, b7)
    c1 = h * k1
    c2 = h * (-8048581381 / 2820520608 * k1 + 131558114200 / 32700410799 * k3
              - 1754552775 / 470086768 * k4 + 127303824393 / 49829197408 * k5
              - 282668133 / 205662961 * k6 + 40617522 / 29380423 * k7)
    c3 = h * (8663915743 / 2820520608 * k1 - 68118460800 / 10900136933 * k3
              + 14199869525 / 1410260304 * k4 - 318862633887 / 49829197408 * k5
              + 2019193451 / 616988883 * k6 - 110615467 / 29380423 * k7)
    c4 = h * (-12715105075 / 11282082432 * k1 + 87487479700 / 32700410799 * k3
              - 10690763975 / 1880347072 * k4 + 701980252875 / 199316789632 * k5
              - 1453857185 / 822651844 * k6 + 69997945 / 29380423 * k7)
    return (t0, h, x, y, c1.real, c1.imag, c2.real, c2.imag, c3.real, c3.imag, c4.real, c4.imag)


def _may_cross(step) -> bool:
    """False only if y cannot change sign at the scan points of the step: each row
    of the dense matrix P sums to 0, so |d_j| <= |h|*sum_i |P_ji|*|Im k_i - Im k1|
    (j = 2..4, weights summed and rounded up); 1e-6 covers rounding, a nan passes."""
    _, h, _, y, _, i1, _, i3, _, i4, _, i5, _, i6, _, i7 = step
    return not abs(y) > (1.0 + 1e-6) * abs(h) * (
        abs(i1) + 12.95 * abs(i3 - i1) + 19.49 * abs(i4 - i1) + 12.48 * abs(i5 - i1)
        + 6.42 * abs(i6 - i1) + 7.53 * abs(i7 - i1))


def _dense(step, t: float) -> tuple[float, float]:
    """The state at time t from a step's dense quartic (see `_quartic`)."""
    t0, h, x, y, c1, d1, c2, d2, c3, d3, c4, d4 = step
    s = (t - t0) / h
    return x + s * (c1 + s * (c2 + s * (c3 + s * c4))), y + s * (d1 + s * (d2 + s * (d3 + s * d4)))


def _norm(w: complex, sx: float, sy: float) -> float:
    """scipy's RMS norm of (x, y) = (w.real / sx, w.imag / sy)."""
    x, y = w.real / sx, w.imag / sy
    return math.sqrt(0.5 * (x * x + y * y))


def _steps(vf: VectorField, x0: tuple[float, float], cfg: IntegratorConfig, traj: Trajectory):
    """Accepted Dormand-Prince 5(4) steps from x0 as (t1, step), recorded in traj.

    scipy's RK45 tableau, initial step and step control (safety 0.9, factors
    0.2 to 10, RMS error norm), so these are its steps to rounding; the state
    x + iy is one complex number and step is the 16 floats of Trajectory.  After
    an outward crossing of the escape radius the step is cut at the exit and
    the stream ends; a step below 10 float spacings of t raises StepUnderflow.
    """
    f, rtol, atol, r = _compile(vf), cfg.rel_tol, cfg.abs_tol, cfg.escape_radius
    t, z = 0.0, complex(x0[0], x0[1])
    k1 = f(z)
    sx, sy = atol + abs(z.real) * rtol, atol + abs(z.imag) * rtol
    d0, d1 = _norm(z, sx, sy), _norm(k1, sx, sy)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    probe = f(z + h0 * k1)  # before the check, so nfev holds when the check fails too
    if not h0 > 0.0:  # the field overflows at x0
        raise StepUnderflow(f"initial step size {h0} is not positive")
    d2 = _norm(probe - k1, sx, sy) / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1)
    # conditionals in place of max and min below give the same float, nan included
    zx, zy, rz = abs(z.real), abs(z.imag), abs(z)
    while True:
        min_step = 10.0 * math.ulp(t)
        h_abs, rejected = min_step if min_step > h_abs else h_abs, False
        while True:
            if not h_abs >= min_step:  # a nan step size fails too
                raise StepUnderflow("Required step size is less than spacing between numbers.")
            t1 = t + h_abs
            h = h_abs = t1 - t
            k2 = f(z + h * (1 / 5 * k1))
            k3 = f(z + h * (3 / 40 * k1 + 9 / 40 * k2))
            k4 = f(z + h * (44 / 45 * k1 - 56 / 15 * k2 + 32 / 9 * k3))
            k5 = f(z + h * (19372 / 6561 * k1 - 25360 / 2187 * k2 + 64448 / 6561 * k3
                            - 212 / 729 * k4))
            k6 = f(z + h * (9017 / 3168 * k1 - 355 / 33 * k2 + 46732 / 5247 * k3 + 49 / 176 * k4
                            - 5103 / 18656 * k5))
            zn = z + h * (35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4 - 2187 / 6784 * k5
                          + 11 / 84 * k6)
            k7 = f(zn)
            e = h * (-71 / 57600 * k1 + 71 / 16695 * k3 - 71 / 1920 * k4 + 17253 / 339200 * k5
                     - 22 / 525 * k6 + 1 / 40 * k7)
            ax, ay = abs(zn.real), abs(zn.imag)
            ex = e.real / (atol + (ax if ax > zx else zx) * rtol)
            ey = e.imag / (atol + (ay if ay > zy else zy) * rtol)
            err = math.sqrt(0.5 * (ex * ex + ey * ey))
            if err < 1.0:
                factor, cap = 10.0 if err == 0.0 else 0.9 * err**-0.2, 1.0 if rejected else 10.0
                h_abs *= factor if factor < cap else cap
                break
            factor = 0.9 * err**-0.2
            h_abs *= factor if factor > 0.2 else 0.2
            rejected = True
            traj.rejected += 1
        step = (t, h, z.real, z.imag, k1.real, k1.imag, k3.real, k3.imag, k4.real, k4.imag,
                k5.real, k5.imag, k6.real, k6.imag, k7.real, k7.imag)
        traj.steps.extend(step)
        rzn = abs(zn)
        escaped = rz <= r < rzn
        if escaped:
            quartic = _quartic(step)
            t1 = _bisect_time(lambda t: math.hypot(*_dense(quartic, t)) - r, t, t1)
        traj.t_end, traj.escaped = t1, escaped
        yield t1, step
        if escaped:
            return
        t, z, k1, zx, zy, rz = t1, zn, k7, ax, ay, rzn


def _section_crossings(t1: float, step):
    """Sign changes of y over a step up to t1 as (t, x, d) in time order, d = +1 upward."""
    t0, h, _, y, _, d1, _, d2, _, d3, _, d4 = step
    ta, ya = t0, y
    for offset in _SCAN_OFFSETS:
        tb = t0 + (t1 - t0) * offset
        s = (tb - t0) / h
        yb = y + s * (d1 + s * (d2 + s * (d3 + s * d4)))
        if ya < 0.0 < yb or yb < 0.0 < ya:
            tc = _bisect_time(lambda t: _dense(step, t)[1], ta, tb)
            yield tc, _dense(step, tc)[0], 1 if yb > 0.0 else -1
        ta, ya = tb, yb


def _section_direction(f, x: float) -> int:
    """+1 or -1 as the compiled field f crosses y = 0 up or down at (x, 0); 0 if tangent."""
    q0 = f(complex(x, 0.0)).imag
    return (q0 > 0.0) - (q0 < 0.0)


def _read_orbit(vf: VectorField, x0: tuple[float, float], cfg: IntegratorConfig) -> OrbitVerdict:
    """The verdict read off one integration from x0, carrying its record.

    A start on the section {y = 0, x > 0} is armed there at t = 0: the
    orientation of its crossing is fixed, and the verdict is read at the first
    later crossing with that orientation.  Any other start is carried to its
    first hit of the section and armed there, and the return map reads on in
    the same integration.  Each phase gets its own max_time, counted from
    where it starts, and an exit time is counted from there too.  A start
    that is an equilibrium or a tangency is judged before any integration.
    """
    f, traj = _compile(vf), Trajectory()
    x, y = float(x0[0]), float(x0[1])
    t_from, x_from, deadline, direction = 0.0, x, cfg.max_time, None
    if y == 0.0 and x > 0.0:
        direction = _section_direction(f, x)
        if not direction:
            return OrbitVerdict.inconclusive(_TANGENCY)
    else:
        w = f(complex(x, y))
        if abs(w.real) + abs(w.imag) == 0.0:
            return OrbitVerdict.inconclusive("initial condition is an equilibrium")
    try:
        for t1, step in _steps(vf, (x, y), cfg, traj):
            for tc, xc, d in _section_crossings(t1, _quartic(step)) if _may_cross(step) else ():
                if tc > deadline:
                    break
                if tc - t_from <= _T_GUARD or xc <= 0.0 or direction not in (None, d):
                    continue
                if direction is not None:
                    closure = abs(xc - x_from)
                    if closure <= cfg.section_closure_tol:
                        return OrbitVerdict.periodic(tc - t_from, closure, traj)
                    reason = f"section return displaced by {closure:.3e}"
                    return OrbitVerdict.inconclusive(reason, traj)
                direction = _section_direction(f, xc)
                if not direction:
                    return OrbitVerdict.inconclusive(_TANGENCY, traj)
                t_from, x_from, deadline = tc, xc, tc + cfg.max_time
            if t1 > deadline:
                if direction is None:
                    reason = "orbit never reaches the section {y = 0, x > 0}"
                else:
                    reason = "no section return within max_time"
                return OrbitVerdict.inconclusive(reason, traj)
    except StepUnderflow as exc:
        return OrbitVerdict.inconclusive(f"integrator failure: {exc}", traj)
    return OrbitVerdict.escaping(traj.t_end - t_from, traj)


def integrate(
    vf: VectorField,
    x0: tuple[float, float],
    cfg: IntegratorConfig | None = None,
    t_final: float | None = None,
) -> Trajectory:
    """The record of the orbit from x0 until t_final (default max_time) or escape."""
    cfg = cfg or IntegratorConfig()
    t_final = cfg.max_time if t_final is None else t_final
    traj = Trajectory()
    for t1, _ in _steps(vf, x0, cfg, traj):
        if t1 > t_final:
            traj.t_end, traj.escaped = t_final, False
            break
    return traj


def return_map_verdict(
    vf: VectorField, x0: tuple[float, float], cfg: IntegratorConfig | None = None
) -> OrbitVerdict:
    """Decide periodicity through the section {y = 0, x > 0}.

    Periodic only when the first same-orientation return lands within
    section_closure_tol of the start; a displaced return is reported as
    inconclusive (the orbit is spiralling), never coerced.
    """
    if float(x0[1]) != 0.0 or float(x0[0]) <= 0.0:
        raise ValueError("start must lie on the section {y = 0, x > 0}")
    return _read_orbit(vf, x0, cfg or IntegratorConfig())


def orbit_verdict(
    vf: VectorField, point: tuple[float, float], cfg: IntegratorConfig | None = None
) -> OrbitVerdict:
    """Verdict for an arbitrary initial condition.

    Off-section points are carried forward to their first transversal hit of
    {y = 0, x > 0}, and the same integration goes on into the return map.
    """
    return _read_orbit(vf, point, cfg or IntegratorConfig())


# -- first integrals ---------------------------------------------------------


def first_integral_check(vf: VectorField, h: Poly2, traj: Trajectory) -> float:
    """Max drift of h along the trajectory; h must be exactly conserved."""
    if not lie_derivative(h, vf).is_zero:
        raise NotConserved("Lie derivative of the candidate is not the zero polynomial")
    samples = traj.sample(_DRIFT_SAMPLES)
    h0 = h.evaluate_float(samples[0][1], samples[0][2])
    return max(abs(h.evaluate_float(px, py) - h0) for _, px, py in samples)


# -- the global-center verdict ------------------------------------------------


DEFAULT_RADII = (0.5, 1.0, 2.0, 5.0)
DEFAULT_ANGLES = 8


@dataclass(frozen=True)
class GlobalVerdict:
    tag: str  # "global-center-consistent" | "not-global" | "inconclusive"
    witness: tuple[float, float] | None
    samples: tuple[tuple[tuple[float, float], OrbitVerdict], ...]
    extra_equilibria: tuple[tuple[float, float], ...]
    line_at_infinity: bool
    infinity: InfinityReport | None = field(default=None, compare=False, repr=False)

    @property
    def inconclusive_fraction(self) -> float:
        bad = sum(1 for _, v in self.samples if v.tag == "inconclusive")
        return bad / len(self.samples) if self.samples else 0.0

    def to_json(self) -> dict:
        return {
            "tag": self.tag,
            "witness": list(self.witness) if self.witness else None,
            "line_at_infinity": self.line_at_infinity,
            "extra_equilibria": [list(p) for p in self.extra_equilibria],
            "inconclusive_fraction": self.inconclusive_fraction,
            "samples": [{"point": list(pt), "verdict": v.to_json()} for pt, v in self.samples],
        }


def sample_points(radii, angles: int = DEFAULT_ANGLES) -> list[tuple[float, float]]:
    thetas = [2.0 * math.pi * k / angles for k in range(angles)]
    return [(float(r) * math.cos(t), float(r) * math.sin(t)) for r in radii for t in thetas]


def global_center_verdict(
    params: FamilyParams,
    cfg: IntegratorConfig | None = None,
    sample_radii=None,
    angles: int = DEFAULT_ANGLES,
) -> GlobalVerdict:
    """Empirical test of the global-center characterization.

    Scans exactly for extra finite equilibria, integrates a deterministic
    fan of orbits, and aggregates: any escaping orbit or extra equilibrium
    refutes globality; an all-periodic fan is consistent with it.  Systems
    with a line of equilibria at infinity fall outside the characterization,
    so the flag is carried in the verdict for separate reporting.
    """
    cfg = cfg or IntegratorConfig()
    radii = DEFAULT_RADII if sample_radii is None else tuple(sample_radii)
    if not center_cases(params).is_center:
        warnings.warn("parameters do not satisfy any center condition", stacklevel=2)
    vf = build_system(params)
    infinity = infinite_equilibria(vf)
    extra = tuple(finite_equilibria(vf, math.inf))
    samples = [(pt, orbit_verdict(vf, pt, cfg)) for pt in sample_points(radii, angles)]
    escaping = [pt for pt, v in samples if v.tag == "escaping"]
    if escaping or extra:
        tag, witness = "not-global", escaping[0] if escaping else extra[0]
    elif any(v.tag == "periodic" for _, v in samples):
        tag, witness = "global-center-consistent", None
    else:
        tag, witness = "inconclusive", None
    return GlobalVerdict(tag, witness, tuple(samples), extra, infinity.line_of_equilibria, infinity)
