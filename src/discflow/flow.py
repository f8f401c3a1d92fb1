"""Numerical orbit verification on top of the exact family oracles.

Floats live only here.  Every orbit runs through one engine: scipy's DOP853
(Dormand-Prince 8(5,3), Hairer-Norsett-Wanner II.10: its float tableau and
step control) with no end time, one accepted step at a time, each kept in the
orbit's record (a `Trajectory`) as its start, size and the 7 coefficients of
its 7th-order dense output, 18 floats.  The step loop is generated once per
field shape, in plain floats with the field inlined, beside the field that
judges an orbit's start (see `_kernel`).  A sound screen on the coefficients
passes the few steps where y may change sign, and only there (and at an exit,
or in a drawing) is the dense output evaluated; sign changes are bisected to
1e-12 on it, so section crossings arrive in time order.  Escape is an outward
crossing of the escape radius, where the loop cuts the step at the exit and
ends the stream.  One reader, `orbit_verdict`, turns that stream into every
verdict, and each verdict carries its records, which the portrait draws and
along which `first_integral_check` measures the float drift of an exact first
integral (from `family.hamiltonian`).  On a field reversible under
(x, y, t) -> (x, -y, -t) an orbit that meets the x-axis twice is periodic
(Devaney 1976): the start and its mirror (x, -y), each carried to the axis,
read it.  The exact scan for other finite equilibria is in `equilibria`.
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
    """The step loop failed; `orbit_verdict` reads that as an inconclusive verdict."""


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
    (see `_dense`); an escaped orbit ends at its exit, an orbit of a reversible
    field that reaches the x-axis at its first crossing there.  The start
    costs 2 field evaluations, an accepted step 15 (12 stages and the 3 extra
    ones of the dense output) and a `rejected` attempt 11 (no stage 12)."""

    steps: array = field(default_factory=lambda: array("d"))
    t_end: float = 0.0
    escaped: bool = False
    rejected: int = 0

    @property
    def accepted(self) -> int:
        return len(self.steps) // _STRIDE

    @property
    def nfev(self) -> int:
        return 2 + 15 * self.accepted + 11 * self.rejected

    def sample(self, n: int, t_end: float | None = None) -> list[tuple[float, float, float]]:
        """n evenly spaced (t, x, y) over [0, t_end], by default the whole record, each by
        `_dense`'s Horner form on the last step starting at or before t; never past the end."""
        if not self.steps:
            return []
        steps, last, i, end, out = self.steps, len(self.steps) - _STRIDE, -_STRIDE, -math.inf, []
        t_end = self.t_end if t_end is None else t_end
        if not t_end <= self.t_end:
            raise ValueError(f"t_end {t_end!r} lies past the record's end {self.t_end!r}")
        for k in range(n):
            t = t_end * k / max(n - 1, 1)
            while i < last and not t < end:  # t never decreases: a step is unpacked at most once
                i += _STRIDE
                t0, h, x, y, a0, b0, a1, b1, a2, b2, a3, b3, a4, b4, a5, b5, a6, b6 = steps[i : i + _STRIDE]
                end = steps[i + _STRIDE] if i < last else math.inf
            s = (t - t0) / h
            u = 1.0 - s
            out.append((t, x + s * (a0 + u * (a1 + s * (a2 + u * (a3 + s * (a4 + u * (a5 + s * a6)))))),
                        y + s * (b0 + u * (b1 + s * (b2 + u * (b3 + s * (b4 + u * (b5 + s * b6))))))))
        return out


@dataclass(frozen=True)
class OrbitVerdict:
    tag: str  # "periodic" | "escaping" | "inconclusive"
    period: float | None = None
    exit_time: float | None = None
    closure_error: float | None = None
    reason: str | None = None
    certificate: str | None = None  # "reversible" where the mirror closed the orbit
    # the records read, for drawing, not part of the value: the start's, then (x, -y)'s
    trajectory: Trajectory | None = field(default=None, compare=False, repr=False)
    mirror_trajectory: Trajectory | None = field(default=None, compare=False, repr=False)

    @classmethod
    def periodic(cls, period: float, closure_error: float, trajectory=None,
                 certificate: str | None = None, mirror=None) -> "OrbitVerdict":
        return cls("periodic", period=period, closure_error=closure_error, certificate=certificate,
                   trajectory=trajectory, mirror_trajectory=mirror)

    @classmethod
    def escaping(cls, exit_time: float, trajectory=None, mirror=None) -> "OrbitVerdict":
        return cls("escaping", exit_time=exit_time, trajectory=trajectory, mirror_trajectory=mirror)

    @classmethod
    def inconclusive(cls, reason: str, trajectory=None, mirror=None) -> "OrbitVerdict":
        return cls("inconclusive", reason=reason, trajectory=trajectory, mirror_trajectory=mirror)

    def to_json(self) -> dict:
        names = ("tag", "period", "exit_time", "closure_error", "reason", "certificate")
        return {name: getattr(self, name) for name in names if getattr(self, name) is not None}


@lru_cache
def _shape(vf: VectorField) -> tuple[tuple[str, str], tuple[float, ...], bool]:
    """The field's shape, p and q as source in x and y with a coefficient +-1 as a sign (the
    same float as the product with +-1.0) and any other as a name, the floats c0, c1, ...,
    and whether (x, y, t) -> (x, -y, -t) maps orbits to orbits: p odd in y, q even in y."""
    coefficients: list[float] = []

    def term(monomial, c):  # powers as products: x*x*x overflows to inf, where x**3 raises
        factors = ["x"] * monomial[0] + ["y"] * monomial[1]
        if abs(c) == 1 and factors:
            return ("-" if c < 0 else "") + "*".join(factors)
        coefficients.append(float(c))
        return "*".join([f"c{len(coefficients) - 1}"] + factors)

    shape = tuple(" + ".join(term(*t) for t in sorted(p.terms.items())) or "0.0" for p in (vf.p, vf.q))
    reversible = all(j % 2 for _, j in vf.p.terms) and not any(j % 2 for _, j in vf.q.terms)
    return shape, tuple(coefficients), reversible


# -- the orbit engine ----------------------------------------------------------

_STRIDE = 18  # floats per recorded step

# scipy's DOP853 tableau as rows {j: a}: stage i is k_i = f(z + h * sum(a * k_j)), 12 at
# the step's end, 13 to 15 only for the dense output, whose F3..F6 are h * sum(d * k_j).
# The error estimates sum(e * (k_j - k0)) keep their digits, as E5 and E3 sum to 0.
_A = {
    1: {0: 0.05260015195876773},
    2: {0: 0.0197250569845379, 1: 0.0591751709536137},
    3: {0: 0.02958758547680685, 2: 0.08876275643042054},
    4: {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    5: {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    6: {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596, 5: -0.017578125},
    7: {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
        5: -0.015319437748624402, 6: 0.008273789163814023},
    8: {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726, 5: 27.59209969944671,
        6: 20.154067550477894, 7: -43.48988418106996},
    9: {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
        5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
        8: -0.020331201708508627},
    10: {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
         5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
         8: 2.4936055526796523, 9: -3.0467644718982196},
    11: {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625, 5: -17.9589318631188,
         6: 27.94888452941996, 7: -2.8589982771350235, 8: -8.87285693353063, 9: 12.360567175794303,
         10: 0.6433927460157636},
    12: {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
         7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
         10: 0.20136540080403034, 11: 0.04471061572777259},
    13: {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
         8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
         11: 0.007567897660545699, 12: -0.008298},
    14: {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
         7: -0.05492374857139099, 10: -0.00010834732869724932, 11: 0.0003825710908356584,
         12: -0.00034046500868740456, 13: 0.1413124436746325},
    15: {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599, 7: 4.06898981839711,
         8: 0.3567271874552811, 12: -0.0013990241651590145, 13: 2.9475147891527724,
         14: -9.15095847217987},
}
_E5 = dict(zip(range(5, 12), (-1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294)))
_E3 = dict(zip(range(5, 12), (4.450312892752409, 1.8915178993145003, -5.801203960010585,
    -0.4226823213237919, -0.1521609496625161, 0.20136540080403034, 0.02265179219836082)))
_DENSE = tuple(dict(zip((0, *range(5, 16)), row)) for row in (
    (-8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894),
    (10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408),
    (19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279),
    (-25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564),
))

# `_kernel`'s source; {field} is p, q at (x, y).  Its conditionals equal max and min, nan too.
_LOOP = """\
def field(x, y{coefficients}):
    return {field}


def steps(traj, x, y, rtol, atol, r{coefficients}):
    extend, t, zx, zy = traj.steps.extend, 0.0, x, y
    k0x, k0y = {field}
    sx, sy = atol + abs(zx) * rtol, atol + abs(zy) * rtol
    ux, uy, vx, vy = zx / sx, zy / sy, k0x / sx, k0y / sy
    d0, d1 = sqrt(0.5 * (ux * ux + uy * uy)), sqrt(0.5 * (vx * vx + vy * vy))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    x, y = zx + h0 * k0x, zy + h0 * k0y
    px, py = {field}
    if not h0 > 0.0:
        raise StepUnderflow(f"initial step size {{h0}} is not positive")
    ux, uy = (px - k0x) / sx, (py - k0y) / sy
    d2 = sqrt(0.5 * (ux * ux + uy * uy)) / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    h_abs, ax, ay, rz = min(100 * h0, h1), abs(zx), abs(zy), abs(complex(zx, zy))
    while True:
        min_step = 10.0 * ulp(t)
        h_abs, rejected = min_step if min_step > h_abs else h_abs, False
        while True:
            if not h_abs >= min_step:
                raise StepUnderflow("Required step size is less than spacing between numbers.")
            if h_abs == inf:
                raise StepUnderflow("Required step size is infinite.")
            t1 = t + h_abs
            h = h_abs = t1 - t
{stages}
            e5x, e5y, e3x, e3y = {errors}
            bx, by = abs(x), abs(y)
            sx, sy = atol + (bx if bx > ax else ax) * rtol, atol + (by if by > ay else ay) * rtol
            e5, e3 = (e5x / sx) ** 2 + (e5y / sy) ** 2, (e3x / sx) ** 2 + (e3y / sy) ** 2
            err = h * e5 / sqrt(2.0 * (e5 + 0.01 * e3)) if e5 else 0.0
            if err < 1.0:
                factor, cap = 10.0 if err == 0.0 else 0.9 * err**-0.125, 1.0 if rejected else 10.0
                h_abs *= factor if factor < cap else cap
                break
            factor = 0.9 * err**-0.125
            h_abs, rejected = h_abs * (factor if factor > 0.2 else 0.2), True
            traj.rejected += 1
        xn, yn = x, y
        k12x, k12y = {field}
{dense_stages}
        f0x, f0y = xn - zx, yn - zy
        step = (t, h, zx, zy, f0x, f0y, h * k0x - f0x, h * k0y - f0y,
                2.0 * f0x - h * (k12x + k0x), 2.0 * f0y - h * (k12y + k0y), {dense})
        extend(step)
        rzn = abs(complex(xn, yn))
        if rz <= r < rzn:
            t1 = bisect_time(lambda t: hypot(*dense(step, t)) - r, t, t1)
            traj.t_end, traj.escaped = t1, True
            yield t1, step
            return
        traj.t_end = t1
        yield t1, step
        t, zx, zy, k0x, k0y, ax, ay, rz = t1, xn, yn, k12x, k12y, bx, by, rzn
"""


@lru_cache(maxsize=16)
def _kernel(shape: tuple[str, str]):
    """The step loop and the field for the fields of one shape, compiled when first met.

    steps(traj, x, y, rtol, atol, r, c0, ...) yields the accepted Dormand-Prince
    8(5,3) steps from (x, y) as (t1, step), recorded in traj: scipy's DOP853
    tableau, initial step and step control (safety 0.9, factors 0.2 to 10,
    exponent -1/8, its err5/err3 norm), so these are its steps to rounding, in x
    and y floats: those of x + iy as one complex number, as c*(x + iy) is
    c*x - 0.0*y + i(c*y + 0.0*x), but for the sign of a zero where a step leaves
    a coordinate in place.  After an outward crossing of the escape radius r the
    step is cut at the exit and the stream ends; a step below 10 float spacings
    of t, or an infinite one (from an equilibrium, where the error is 0 and the
    step grows tenfold per step), raises StepUnderflow.  An attempt takes stages 1
    to 11; stage 12, f at the step's end, enters no error estimate, so only an
    accepted step takes it.  field(x, y, c0, ...) is (p, q) at (x, y).
    """
    field = "{}, {}".format(*shape)

    def total(row: dict, name: str) -> str:  # sum(a * name_j) over a row, name like 'k{}x'
        return " + ".join(f"{a!r}*{name.format(j)}" for j, a in row.items()).replace("+ -", "- ")

    def stages(rows, indent):  # each row's state and its k, but no k at the step's end (row 12)
        return "\n".join(f"{indent}x, y = zx + h * ({total(_A[i], 'k{}x')}), zy + h * ("
                         f"{total(_A[i], 'k{}y')})" + f"\n{indent}k{i}x, k{i}y = {field}" * (i != 12)
                         for i in rows)

    source = _LOOP.format(
        coefficients="".join(f", c{k}" for k in range("".join(shape).count("c"))), field=field,
        stages=stages(range(1, 13), " " * 12), dense_stages=stages((13, 14, 15), " " * 8),
        errors=", ".join(total(e, f"(k{{}}{c} - k0{c})") for e in (_E5, _E3) for c in "xy"),
        dense=", ".join(f"h * ({total(row, 'k{}' + c)})" for row in _DENSE for c in "xy"))
    namespace = {"__builtins__": {}, "abs": abs, "complex": complex, "max": max, "min": min,
                 "sqrt": math.sqrt, "ulp": math.ulp, "hypot": math.hypot, "dense": _dense,
                 "bisect_time": _bisect_time, "StepUnderflow": StepUnderflow, "inf": math.inf}
    exec(compile(source, "<dop853 step loop>", "exec"), namespace)
    return namespace["steps"], namespace["field"]


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


def _may_cross(step) -> bool:
    """False only if y cannot change sign at the scan points of the step: F_m
    enters the state times s^a (1-s)^b, at most 1, 1/4, 4/27, 1/16, 108/3125,
    1/64, 6912/823543 on [0, 1] (rounded up); 1e-6 covers rounding, a nan passes."""
    _, _, _, y, _, b0, _, b1, _, b2, _, b3, _, b4, _, b5, _, b6 = step
    return not abs(y) > (1.0 + 1e-6) * (
        abs(b0) + 0.25 * abs(b1) + 0.1482 * abs(b2) + 0.0625 * abs(b3) + 0.03456 * abs(b4)
        + 0.015625 * abs(b5) + 0.008394 * abs(b6))


def _dense(step, t: float) -> tuple[float, float]:
    """The state at time t from a recorded step: scipy's 7th-order dense output,
    z + s*(F0 + u*(F1 + s*(F2 + u*(F3 + s*(F4 + u*(F5 + s*F6)))))) at t0 + s*h,
    u = 1 - s, where F0 is the step's move, F1 = h*k0 - F0 and F2 = 2*F0 - h*(k12 + k0)."""
    t0, h, x, y, a0, b0, a1, b1, a2, b2, a3, b3, a4, b4, a5, b5, a6, b6 = step
    s = (t - t0) / h
    u = 1.0 - s
    return (x + s * (a0 + u * (a1 + s * (a2 + u * (a3 + s * (a4 + u * (a5 + s * a6)))))),
            y + s * (b0 + u * (b1 + s * (b2 + u * (b3 + s * (b4 + u * (b5 + s * b6)))))))


def _section_crossings(t1: float, step):
    """Sign changes of y over a step up to t1 as (t, x, y, d) in time order, d = +1 upward."""
    t0, ta, ya = step[0], step[0], step[3]
    for offset in _SCAN_OFFSETS:
        tb = t0 + (t1 - t0) * offset
        yb = _dense(step, tb)[1]
        if ya < 0.0 < yb or yb < 0.0 < ya:
            tc = _bisect_time(lambda t: _dense(step, t)[1], ta, tb)
            yield tc, *_dense(step, tc), 1 if yb > 0.0 else -1
        ta, ya = tb, yb


def _axis_carry(steps, traj: Trajectory, x: float, y: float, budget: float, cfg, coefficients):
    """(t, x, y) where the orbit from (x, y), recorded in traj and cut there, first crosses
    the x-axis after _T_GUARD; None where it escapes (traj.escaped) or runs past budget first."""
    for t1, step in steps(traj, x, y, cfg.rel_tol, cfg.abs_tol, cfg.escape_radius, *coefficients):
        for tc, xc, yc, _ in _section_crossings(t1, step) if _may_cross(step) else ():
            if _T_GUARD < tc <= budget:
                traj.t_end = tc
                return tc, xc, yc
        if t1 > budget:
            return None


def orbit_verdict(
    vf: VectorField, point: tuple[float, float], cfg: IntegratorConfig | None = None
) -> OrbitVerdict:
    """The verdict read off the integration from point, carrying its records.

    On a reversible field (see `_shape`) the backward orbit from s = (x, y)
    mirrors the forward one from s' = (x, -y).  So s is carried to b, its
    first crossing of the x-axis, at t_b, then s' to its own, a, at t_a (a
    start on the axis is its own mirror: a = s, t_a = 0).  With a and b more
    than section_closure_tol apart the orbit is periodic, certificate
    "reversible", period 2*(t_a + t_b), closure_error 2*max|y| at a and b;
    else inconclusive.  Any other field reads the return map: a start on the
    section {y = 0, x > 0} is armed at t = 0, any other carried to its first
    hit of it and armed there, and the next crossing with that orientation
    is periodic within section_closure_tol, else inconclusive, never coerced.
    The carry and the return from the arming (from b: t_b + t_a) each get
    max_time; an exit time counts from the arming.  A start that is an
    equilibrium or a tangency is judged before any integration.
    """
    cfg, traj, (shape, coefficients, reversible) = cfg or IntegratorConfig(), Trajectory(), _shape(vf)
    steps, field = _kernel(shape)
    x, y = float(point[0]), float(point[1])
    t_from, x_from, deadline, direction, mirror = 0.0, x, cfg.max_time, None, None
    p0, q0 = field(x, y, *coefficients)
    if y == 0.0 and (x > 0.0 or reversible and x < 0.0):  # q0: +1 up, -1 down, 0 tangent
        direction = (q0 > 0.0) - (q0 < 0.0)
        if not direction:
            return OrbitVerdict.inconclusive("start is an equilibrium or a section tangency")
    elif p0 == q0 == 0.0:
        return OrbitVerdict.inconclusive("initial condition is an equilibrium")
    try:
        if reversible:  # s carried to b, then s' = (x, -y) to a, each in its own record
            b = _axis_carry(steps, traj, x, y, cfg.max_time, cfg, coefficients)
            if b is None and traj.escaped and traj.t_end <= cfg.max_time:
                return OrbitVerdict.escaping(traj.t_end, traj)
            if b is None:  # a start on the axis is armed there, so its carry is the return
                reason = "orbit never reaches the section {y = 0}" if direction is None else (
                    "no section return within max_time")
                return OrbitVerdict.inconclusive(reason, traj)
            mirror, budget = Trajectory(), cfg.max_time - b[0]  # empty from a start on the axis
            a = (0.0, x, y) if y == 0.0 else _axis_carry(steps, mirror, x, -y, budget, cfg, coefficients)
            if a is None and mirror.escaped and mirror.t_end <= budget:
                return OrbitVerdict.escaping(b[0] + mirror.t_end, traj, mirror)
            if a is None or abs(a[1] - b[1]) <= cfg.section_closure_tol:
                reason = "both crossings of the x-axis at one point" if a else (
                    "no section return within max_time")
                return OrbitVerdict.inconclusive(reason, traj, mirror)
            gap = 2.0 * max(abs(a[2]), abs(b[2]))
            return OrbitVerdict.periodic(2.0 * (a[0] + b[0]), gap, traj, "reversible", mirror)
        for t1, step in steps(traj, x, y, cfg.rel_tol, cfg.abs_tol, cfg.escape_radius, *coefficients):
            for tc, xc, _, d in _section_crossings(t1, step) if _may_cross(step) else ():
                if tc > deadline:
                    break
                if tc - t_from <= _T_GUARD or xc <= 0.0 or direction not in (None, d):
                    continue
                if direction is not None:
                    if abs(xc - x_from) <= cfg.section_closure_tol:
                        return OrbitVerdict.periodic(tc - t_from, abs(xc - x_from), traj)
                    reason = f"section return displaced by {xc - x_from:+.3e}"
                    return OrbitVerdict.inconclusive(reason, traj)
                deadline, direction, t_from, x_from = tc + cfg.max_time, d, tc, xc
            if t1 > deadline:
                reason = "orbit never reaches the section {y = 0, x > 0}" if direction is None else (
                    "no section return within max_time")
                return OrbitVerdict.inconclusive(reason, traj)
    except StepUnderflow as exc:
        return OrbitVerdict.inconclusive(f"integrator failure: {exc}", traj, mirror)
    return OrbitVerdict.escaping(traj.t_end - t_from, traj)


# -- first integrals ---------------------------------------------------------


def first_integral_check(vf: VectorField, h: Poly2, verdict: OrbitVerdict) -> float:
    """Max drift of h along the start's record, over [0, period] for a periodic
    verdict, or the record's end if sooner (a reversible verdict's ends on the
    x-axis), else over the whole record; h must be exactly conserved."""
    if not lie_derivative(h, vf).is_zero:
        raise NotConserved("Lie derivative of the candidate is not the zero polynomial")
    traj = verdict.trajectory
    if traj is None or not traj.steps:
        raise ValueError(f"the verdict has no record to check: {verdict.reason}")
    samples = traj.sample(_DRIFT_SAMPLES, min(verdict.period or math.inf, traj.t_end))
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
    """Starts at 2*pi*k/angles per radius: past pi the exact mirrors (x, -y), at 0 and pi (+-r, 0.0)."""
    thetas = [2.0 * math.pi * min(k, angles - k) / angles for k in range(angles)]
    units = [(math.cos(t), 0.0 if 2 * k == angles else math.copysign(math.sin(t), angles - 2 * k))
             for k, t in enumerate(thetas)]
    return [(float(r) * c, float(r) * s) for r in radii for c, s in units]


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
    _shape(vf)  # a coefficient beyond float range raises OverflowError before the scans
    infinity = infinite_equilibria(vf)
    try:
        extra = tuple(finite_equilibria(vf, math.inf))
    except OverflowError as exc:  # found exactly, but the verdict holds its points as floats
        raise ValueError("an extra finite equilibrium lies beyond float range") from exc
    samples = [(pt, orbit_verdict(vf, pt, cfg)) for pt in sample_points(radii, angles)]
    escaping = [pt for pt, v in samples if v.tag == "escaping"]
    if escaping or extra:
        tag, witness = "not-global", escaping[0] if escaping else extra[0]
    elif any(v.tag == "periodic" for _, v in samples):
        tag, witness = "global-center-consistent", None
    else:
        tag, witness = "inconclusive", None
    return GlobalVerdict(tag, witness, tuple(samples), extra, infinity.line_of_equilibria, infinity)
