"""Numerical orbit verification on top of the exact family oracles.

Floats live only here.  Every orbit runs through one engine: scipy's DOP853
(Dormand-Prince 8(5,3), Hairer-Norsett-Wanner II.10: its float tableau and
step control) in plain Python floats, with no end time, one accepted step at
a time, each kept in the orbit's record (a `Trajectory`) as its start, size
and the 7 coefficients of its 7th-order dense output, 18 floats.  A step
costs 15 field evaluations (3 of them for the dense output), a rejected
attempt 12, the start 2.  A sound screen on the coefficients passes the few
steps where y may change sign, and only there (and at an exit, or in a
drawing) is the dense output evaluated; sign changes are bisected to 1e-12 on
it, so section crossings arrive in time order.  Escape
is an outward crossing of the escape radius, where the stream ends.  One
reader, `orbit_verdict`, turns that stream into every `OrbitVerdict`,
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
    """The record of one orbit: its accepted steps, 18 floats each, in `steps`.

    A step is t0, h, x, y, then (x, y) of its dense-output coefficients F0..F6
    (see `_dense_coefficients`); an escaped orbit ends at its exit.  The start
    costs 2 field evaluations, an accepted step 15 (12 stages and the 3 extra
    ones of the dense output) and a `rejected` attempt 12."""

    steps: array = field(default_factory=lambda: array("d"))
    t_end: float = 0.0
    escaped: bool = False
    rejected: int = 0

    @property
    def accepted(self) -> int:
        return len(self.steps) // _STRIDE

    @property
    def nfev(self) -> int:
        return 2 + 15 * self.accepted + 12 * self.rejected

    def sample(self, n: int, t_end: float | None = None) -> list[tuple[float, float, float]]:
        """n evenly spaced (t, x, y) over [0, t_end], by default the whole record."""
        if not self.steps:
            return []
        t_end = self.t_end if t_end is None else t_end
        steps, last, i, step, out = self.steps, len(self.steps) - _STRIDE, 0, None, []
        for k in range(n):
            t = t_end * k / max(n - 1, 1)
            # the last step starting at or before t: t never decreases
            while i < last and not t < steps[i + _STRIDE]:
                i, step = i + _STRIDE, None
            if step is None:
                step = steps[i : i + _STRIDE]
            out.append((t, *_dense(step, t)))
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
    # powers as products: a float product overflows to inf, where x**3 raises;
    # a coefficient +-1 is a sign, the same float as the product with +-1.0
    def term(c, factors):
        if abs(c) != 1 or not factors:
            return "*".join([repr(float(c))] + factors)
        return ("-" if c < 0 else "") + "*".join(factors)

    return " + ".join(term(c, ["x"] * i + ["y"] * j) for (i, j), c in sorted(p.terms.items()))


@lru_cache
def _compile(vf: VectorField):
    """The field as f(z) -> p + iq with z = x + iy."""
    p, q = _poly_expr(vf.p), _poly_expr(vf.q)
    src = f"def f(z):\n    x, y = z.real, z.imag\n    return complex({p}, {q})\n"
    namespace: dict = {}
    exec(src, {"__builtins__": {}, "complex": complex}, namespace)
    return namespace["f"]


# -- the orbit engine ----------------------------------------------------------

_STRIDE = 18  # floats per recorded step


def _bisect_time(g, a: float, b: float) -> float:
    """A zero of the scalar g(t) between a and b, where g changes sign, to 1e-12."""
    ga = g(a)
    while b - a > 1e-12:
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


def _dense_coefficients(h, f0, k0, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15) -> tuple:
    """(x, y) of F0..F6, scipy's 7th-order dense output of a step of size h that
    moves the state by f0: at t0 + s*h, with u = 1 - s, the state is
    z + s*(F0 + u*(F1 + s*(F2 + u*(F3 + s*(F4 + u*(F5 + s*F6))))))."""
    f1, f2 = h * k0 - f0, 2.0 * f0 - h * (k12 + k0)
    f3 = h * (-8.428938276109013 * k0 + 0.5667149535193777 * k5 - 3.0689499459498917 * k6
              + 2.38466765651207 * k7 + 2.117034582445028 * k8 - 0.871391583777973 * k9
              + 2.2404374302607883 * k10 + 0.6315787787694688 * k11 - 0.08899033645133331 * k12
              + 18.148505520854727 * k13 - 9.194632392478356 * k14 - 4.436036387594894 * k15)
    f4 = h * (10.427508642579134 * k0 + 242.28349177525817 * k5 + 165.20045171727028 * k6
              - 374.5467547226902 * k7 - 22.113666853125306 * k8 + 7.733432668472264 * k9
              - 30.674084731089398 * k10 - 9.332130526430229 * k11 + 15.697238121770845 * k12
              - 31.139403219565178 * k13 - 9.35292435884448 * k14 + 35.81684148639408 * k15)
    f5 = h * (19.985053242002433 * k0 - 387.0373087493518 * k5 - 189.17813819516758 * k6
              + 527.8081592054236 * k7 - 11.57390253995963 * k8 + 6.8812326946963 * k9
              - 1.0006050966910838 * k10 + 0.7777137798053443 * k11 - 2.778205752353508 * k12
              - 60.19669523126412 * k13 + 84.32040550667716 * k14 + 11.99229113618279 * k15)
    f6 = h * (-25.69393346270375 * k0 - 154.18974869023643 * k5 - 231.5293791760455 * k6
              + 357.6391179106141 * k7 + 93.40532418362432 * k8 - 37.45832313645163 * k9
              + 104.0996495089623 * k10 + 29.8402934266605 * k11 - 43.53345659001114 * k12
              + 96.32455395918828 * k13 - 39.17726167561544 * k14 - 149.72683625798564 * k15)
    return (f0.real, f0.imag, f1.real, f1.imag, f2.real, f2.imag, f3.real, f3.imag,
            f4.real, f4.imag, f5.real, f5.imag, f6.real, f6.imag)


def _may_cross(step) -> bool:
    """False only if y cannot change sign at the scan points of the step: F_m
    enters the state times s^a (1-s)^b, at most 1, 1/4, 4/27, 1/16, 108/3125,
    1/64, 6912/823543 on [0, 1] (rounded up); 1e-6 covers rounding, a nan passes."""
    _, _, _, y, _, b0, _, b1, _, b2, _, b3, _, b4, _, b5, _, b6 = step
    return not abs(y) > (1.0 + 1e-6) * (
        abs(b0) + 0.25 * abs(b1) + 0.1482 * abs(b2) + 0.0625 * abs(b3) + 0.03456 * abs(b4)
        + 0.015625 * abs(b5) + 0.008394 * abs(b6))


def _dense(step, t: float) -> tuple[float, float]:
    """The state at time t from a recorded step (see `_dense_coefficients`)."""
    t0, h, x, y, a0, b0, a1, b1, a2, b2, a3, b3, a4, b4, a5, b5, a6, b6 = step
    s = (t - t0) / h
    u = 1.0 - s
    return (x + s * (a0 + u * (a1 + s * (a2 + u * (a3 + s * (a4 + u * (a5 + s * a6)))))),
            y + s * (b0 + u * (b1 + s * (b2 + u * (b3 + s * (b4 + u * (b5 + s * b6)))))))


def _norm(w: complex, sx: float, sy: float) -> float:
    """scipy's RMS norm of (x, y) = (w.real / sx, w.imag / sy)."""
    x, y = w.real / sx, w.imag / sy
    return math.sqrt(0.5 * (x * x + y * y))


def _steps(vf: VectorField, x0: tuple[float, float], cfg: IntegratorConfig, traj: Trajectory):
    """Accepted Dormand-Prince 8(5,3) steps from x0 as (t1, step), recorded in traj.

    scipy's DOP853 tableau, initial step and step control (safety 0.9,
    factors 0.2 to 10, exponent -1/8, its err5/err3 norm), so these are its
    steps to rounding; the state x + iy is one complex number, k0..k15 are
    scipy's stages (k12 = f(zn) is the next k0) and step is the 18 floats of
    Trajectory.  The three extra stages of the dense output are taken on every
    accepted step, so that `_may_cross` reads its coefficients.  After an
    outward crossing of the escape radius the step is cut at the exit and the
    stream ends; a step below 10 float spacings of t raises StepUnderflow.
    """
    f, rtol, atol, r = _compile(vf), cfg.rel_tol, cfg.abs_tol, cfg.escape_radius
    t, z = 0.0, complex(x0[0], x0[1])
    k0 = f(z)
    sx, sy = atol + abs(z.real) * rtol, atol + abs(z.imag) * rtol
    d0, d1 = _norm(z, sx, sy), _norm(k0, sx, sy)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    probe = f(z + h0 * k0)  # before the check, so nfev holds when the check fails too
    if not h0 > 0.0:  # the field overflows at x0
        raise StepUnderflow(f"initial step size {h0} is not positive")
    d2 = _norm(probe - k0, sx, sy) / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
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
            k1 = f(z + h * (0.05260015195876773 * k0))
            k2 = f(z + h * (0.0197250569845379 * k0 + 0.0591751709536137 * k1))
            k3 = f(z + h * (0.02958758547680685 * k0 + 0.08876275643042054 * k2))
            k4 = f(z + h * (0.2413651341592667 * k0 - 0.8845494793282861 * k2
                            + 0.924834003261792 * k3))
            k5 = f(z + h * (0.037037037037037035 * k0 + 0.17082860872947386 * k3
                            + 0.12546768756682242 * k4))
            k6 = f(z + h * (0.037109375 * k0 + 0.17025221101954405 * k3
                            + 0.06021653898045596 * k4 - 0.017578125 * k5))
            k7 = f(z + h * (0.03709200011850479 * k0 + 0.17038392571223998 * k3
                            + 0.10726203044637328 * k4 - 0.015319437748624402 * k5
                            + 0.008273789163814023 * k6))
            k8 = f(z + h * (0.6241109587160757 * k0 - 3.3608926294469414 * k3
                            - 0.868219346841726 * k4 + 27.59209969944671 * k5
                            + 20.154067550477894 * k6 - 43.48988418106996 * k7))
            k9 = f(z + h * (0.47766253643826434 * k0 - 2.4881146199716677 * k3
                            - 0.590290826836843 * k4 + 21.230051448181193 * k5
                            + 15.279233632882423 * k6 - 33.28821096898486 * k7
                            - 0.020331201708508627 * k8))
            k10 = f(z + h * (-0.9371424300859873 * k0 + 5.186372428844064 * k3
                             + 1.0914373489967295 * k4 - 8.149787010746927 * k5
                             - 18.52006565999696 * k6 + 22.739487099350505 * k7
                             + 2.4936055526796523 * k8 - 3.0467644718982196 * k9))
            k11 = f(z + h * (2.273310147516538 * k0 - 10.53449546673725 * k3
                             - 2.0008720582248625 * k4 - 17.9589318631188 * k5
                             + 27.94888452941996 * k6 - 2.8589982771350235 * k7
                             - 8.87285693353063 * k8 + 12.360567175794303 * k9
                             + 0.6433927460157636 * k10))
            zn = z + h * (0.054293734116568765 * k0 + 4.450312892752409 * k5
                          + 1.8915178993145003 * k6 - 5.801203960010585 * k7
                          + 0.3111643669578199 * k8 - 0.1521609496625161 * k9
                          + 0.20136540080403034 * k10 + 0.04471061572777259 * k11)
            k12 = f(zn)
            # E5 and E3 sum to 0: taken on k_i - k0, the estimates keep their digits
            d5, d6, d7, d8 = k5 - k0, k6 - k0, k7 - k0, k8 - k0
            d9, d10, d11 = k9 - k0, k10 - k0, k11 - k0
            err5 = (-1.2251564463762044 * d5 - 0.4957589496572502 * d6 + 1.6643771824549864 * d7
                    - 0.35032884874997366 * d8 + 0.3341791187130175 * d9
                    + 0.08192320648511571 * d10 - 0.022355307863886294 * d11)
            err3 = (4.450312892752409 * d5 + 1.8915178993145003 * d6 - 5.801203960010585 * d7
                    - 0.4226823213237919 * d8 - 0.1521609496625161 * d9
                    + 0.20136540080403034 * d10 + 0.02265179219836082 * d11)
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
        k13 = f(z + h * (0.056167502283047954 * k0 + 0.25350021021662483 * k6
                         - 0.2462390374708025 * k7 - 0.12419142326381637 * k8
                         + 0.15329179827876568 * k9 + 0.00820105229563469 * k10
                         + 0.007567897660545699 * k11 - 0.008298 * k12))
        k14 = f(z + h * (0.03183464816350214 * k0 + 0.028300909672366776 * k5
                         + 0.053541988307438566 * k6 - 0.05492374857139099 * k7
                         - 0.00010834732869724932 * k10 + 0.0003825710908356584 * k11
                         - 0.00034046500868740456 * k12 + 0.1413124436746325 * k13))
        k15 = f(z + h * (-0.42889630158379194 * k0 - 4.697621415361164 * k5
                         + 7.683421196062599 * k6 + 4.06898981839711 * k7
                         + 0.3567271874552811 * k8 - 0.0013990241651590145 * k12
                         + 2.9475147891527724 * k13 - 9.15095847217987 * k14))
        step = (t, h, z.real, z.imag) + _dense_coefficients(
            h, zn - z, k0, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15)
        traj.steps.extend(step)
        rzn = abs(zn)
        escaped = rz <= r < rzn
        if escaped:
            t1 = _bisect_time(lambda t: math.hypot(*_dense(step, t)) - r, t, t1)
        traj.t_end, traj.escaped = t1, escaped
        yield t1, step
        if escaped:
            return
        t, z, k0, zx, zy, rz = t1, zn, k12, ax, ay, rzn


def _section_crossings(t1: float, step):
    """Sign changes of y over a step up to t1 as (t, x, d) in time order, d = +1 upward."""
    t0, ta, ya = step[0], step[0], step[3]
    for offset in _SCAN_OFFSETS:
        tb = t0 + (t1 - t0) * offset
        yb = _dense(step, tb)[1]
        if ya < 0.0 < yb or yb < 0.0 < ya:
            tc = _bisect_time(lambda t: _dense(step, t)[1], ta, tb)
            yield tc, _dense(step, tc)[0], 1 if yb > 0.0 else -1
        ta, ya = tb, yb


def orbit_verdict(
    vf: VectorField, point: tuple[float, float], cfg: IntegratorConfig | None = None
) -> OrbitVerdict:
    """The verdict read off one integration from point, carrying its record.

    A start on the section {y = 0, x > 0} is armed there at t = 0: the
    orientation of its crossing is fixed, and the verdict is read at the first
    later crossing with that orientation: periodic within section_closure_tol,
    else inconclusive, never coerced.  Any other start is carried to its
    first hit of the section and armed there, and the return map reads on in
    the same integration.  Each phase gets its own max_time, counted from
    where it starts, and an exit time is counted from there too.  A start
    that is an equilibrium or a tangency is judged before any integration.
    """
    cfg, f, traj = cfg or IntegratorConfig(), _compile(vf), Trajectory()
    x, y = float(point[0]), float(point[1])
    t_from, x_from, deadline, direction = 0.0, x, cfg.max_time, None
    if y == 0.0 and x > 0.0:
        q0 = f(complex(x, 0.0)).imag  # the crossing's orientation: +1 up, -1 down, 0 tangent
        direction = (q0 > 0.0) - (q0 < 0.0)
        if not direction:
            return OrbitVerdict.inconclusive("start is an equilibrium or a section tangency")
    else:
        w = f(complex(x, y))
        if abs(w.real) + abs(w.imag) == 0.0:
            return OrbitVerdict.inconclusive("initial condition is an equilibrium")
    try:
        for t1, step in _steps(vf, (x, y), cfg, traj):
            for tc, xc, d in _section_crossings(t1, step) if _may_cross(step) else ():
                if tc > deadline:
                    break
                if tc - t_from <= _T_GUARD or xc <= 0.0 or direction not in (None, d):
                    continue
                if direction is not None:
                    if abs(xc - x_from) <= cfg.section_closure_tol:
                        return OrbitVerdict.periodic(tc - t_from, abs(xc - x_from), traj)
                    reason = f"section return displaced by {xc - x_from:+.3e}"
                    return OrbitVerdict.inconclusive(reason, traj)
                direction, t_from, x_from, deadline = d, tc, xc, tc + cfg.max_time
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
    _compile(vf)  # a coefficient beyond float range raises OverflowError before the scans
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
