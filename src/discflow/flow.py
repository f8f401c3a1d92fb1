"""Numerical orbit verification on top of the exact family oracles.

Floats live only here.  Every orbit runs through one engine: scipy's RK45
(Dormand-Prince 5(4) and its step control) in plain Python floats, with no
end time, one accepted step at a time, each kept packed in the orbit's record
(a `Trajectory`).  Sign changes of y within a step are bisected to 1e-12 on
its dense quartic, so section crossings arrive in time order; escape is an
outward crossing of the escape radius, where the stream ends.  The return-map
verdicts read that stream and carry its record, which the portrait draws.
The finite-equilibrium scan stays exact (Groebner elimination over the
rationals): the global-center criterion hinges on a unique finite equilibrium.
"""

from __future__ import annotations

import math
import warnings
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from .compactify import infinite_equilibria
from .family import FamilyParams, build_system, center_cases
from .poly import Poly2, VectorField
from .roots import real_roots

_T_GUARD = 1e-9
_SUBDIV = 6
_SCAN_OFFSETS = tuple(k / _SUBDIV for k in range(1, _SUBDIV + 1))
_TANGENCY = "start is an equilibrium or a section tangency"


class StepUnderflow(RuntimeError):
    """The integrator failed (stiffness or a finite-time singularity)."""


class NotConserved(ValueError):
    """The candidate first integral has a nonzero Lie derivative."""


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
    """The record of one orbit: its accepted steps, 12 floats each, in `steps`.

    A step is t0, h, x, y, then (x, y) of c1..c4, the state at t0 + s*h being
    (x, y) + s*(c1 + s*(c2 + s*(c3 + s*c4))); an escaped orbit ends at its exit.
    """

    steps: array = field(default_factory=lambda: array("d"))
    t_end: float = 0.0
    escaped: bool = False

    @property
    def escape_time(self) -> float | None:
        return self.t_end if self.escaped else None

    def sample(self, n: int, t_end: float | None = None) -> list[tuple[float, float, float]]:
        """n evenly spaced (t, x, y) over [0, t_end], by default the whole record."""
        t_end = self.t_end if t_end is None else t_end
        starts, out = self.steps[::_STRIDE], []
        for k in range(n):
            t = t_end * k / max(n - 1, 1)
            i = max(bisect_right(starts, t) - 1, 0) * _STRIDE
            out.append((t, *_dense(self.steps[i : i + _STRIDE], t)))
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


def _compile(vf: VectorField) -> dict:
    """The field as rhs(t, (x, y)) -> (p, q) and as f(z) -> p + iq with z = x + iy."""
    p, q = _poly_expr(vf.p), _poly_expr(vf.q)
    src = (
        f"def rhs(t, z):\n    x, y = z[0], z[1]\n    return ({p}, {q})\n"
        f"def f(z):\n    x, y = z.real, z.imag\n    return complex({p}, {q})\n"
    )
    namespace: dict = {}
    exec(src, {"__builtins__": {}, "complex": complex}, namespace)
    return namespace


def compile_rhs(vf: VectorField):
    """Compile the field into a float right-hand side f(t, (x, y))."""
    return _compile(vf)["rhs"]


# -- the orbit engine ----------------------------------------------------------

_STRIDE = 12  # floats per recorded step


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


def _dense(step, t: float) -> tuple[float, float]:
    """The state at time t from a packed step's dense quartic."""
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
    x + iy is one complex number and step is packed as in Trajectory.  After
    an outward crossing of the escape radius the step is cut at the exit and
    the stream ends; a step below 10 float spacings of t raises StepUnderflow.
    """
    f, rtol, atol, r = _compile(vf)["f"], cfg.rel_tol, cfg.abs_tol, cfg.escape_radius
    t, z = 0.0, complex(x0[0], x0[1])
    k1 = f(z)
    sx, sy = atol + abs(z.real) * rtol, atol + abs(z.imag) * rtol
    d0, d1 = _norm(z, sx, sy), _norm(k1, sx, sy)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    d2 = _norm(f(z + h0 * k1) - k1, sx, sy) / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1)
    while True:
        min_step = 10.0 * math.ulp(t)
        h_abs, rejected = max(h_abs, min_step), False
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
            err = _norm(e, atol + max(abs(z.real), abs(zn.real)) * rtol,
                        atol + max(abs(z.imag), abs(zn.imag)) * rtol)
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err**-0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err**-0.2)
            rejected = True
        # dense output: the state at t + s*h is z + s*(c1 + s*(c2 + s*(c3 + s*c4)))
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
        step = (t, h, z.real, z.imag, c1.real, c1.imag, c2.real, c2.imag, c3.real, c3.imag,
                c4.real, c4.imag)
        traj.steps.extend(step)
        escaped = abs(z) <= r < abs(zn)
        if escaped:
            t1 = _bisect_time(lambda t: math.hypot(*_dense(step, t)) - r, t, t1)
        traj.t_end, traj.escaped = t1, escaped
        yield t1, step
        if escaped:
            return
        t, z, k1 = t1, zn, k7


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


def _section_direction(vf: VectorField, x: float) -> int:
    """+1 or -1 as the flow crosses y = 0 upward or downward at (x, 0); 0 if tangent."""
    q0 = vf.q.evaluate_float(x, 0.0)
    return (q0 > 0.0) - (q0 < 0.0)


def _read_orbit(
    vf: VectorField, x0: tuple[float, float], cfg: IntegratorConfig, direction: int | None
) -> OrbitVerdict:
    """The verdict read off one integration from x0, carrying its record.

    direction is the orientation of the return to look for when x0 lies on
    the section, or None when x0 must first be carried to its first hit of
    {y = 0, x > 0}; the return map then reads on in the same integration.
    Each phase gets its own max_time, counted from where it starts, and an
    exit time is counted from there too.
    """
    traj = Trajectory()
    t_from, x_from, deadline = 0.0, float(x0[0]), cfg.max_time
    try:
        for t1, step in _steps(vf, x0, cfg, traj):
            for tc, xc, d in _section_crossings(t1, step):
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
                direction = _section_direction(vf, xc)
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
    cfg = cfg or IntegratorConfig()
    x_start = float(x0[0])
    if float(x0[1]) != 0.0 or x_start <= 0.0:
        raise ValueError("start must lie on the section {y = 0, x > 0}")
    direction = _section_direction(vf, x_start)
    if not direction:
        return OrbitVerdict.inconclusive(_TANGENCY)
    return _read_orbit(vf, (x_start, 0.0), cfg, direction)


def orbit_verdict(
    vf: VectorField, point: tuple[float, float], cfg: IntegratorConfig | None = None
) -> OrbitVerdict:
    """Verdict for an arbitrary initial condition.

    Off-section points are carried forward to their first transversal hit of
    {y = 0, x > 0}, and the same integration goes on into the return map.
    """
    cfg = cfg or IntegratorConfig()
    x, y = float(point[0]), float(point[1])
    if y == 0.0 and x > 0.0:
        return return_map_verdict(vf, (x, 0.0), cfg)
    speed = abs(vf.p.evaluate_float(x, y)) + abs(vf.q.evaluate_float(x, y))
    if speed == 0.0:
        return OrbitVerdict.inconclusive("initial condition is an equilibrium")
    return _read_orbit(vf, (x, y), cfg, None)


# -- exact finite-equilibria scan -------------------------------------------


def _to_sympy(p: Poly2, x, y):
    import sympy

    return sympy.Add(
        *[
            sympy.Rational(c.numerator, c.denominator) * x**i * y**j
            for (i, j), c in p.terms.items()
        ]
    )


def _curve_sample(g_poly, radius: float) -> tuple[float, float] | None:
    """Some real point on the curve g = 0 within the radius, if one is found."""
    probes = [Fraction(v) for v in (0, 1, -1, Fraction(1, 2), -Fraction(1, 2), 2, -2)]
    gx = Poly2({(m[0], m[1]): Fraction(c.p, c.q) for m, c in zip(g_poly.monoms(), g_poly.coeffs())})
    for x0 in probes:
        coeffs = [Fraction(0)] * (gx.degree + 2)
        for (i, j), c in gx.terms.items():
            coeffs[j] += c * x0**i
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) <= 1:
            continue
        for root, _ in real_roots(coeffs):
            pt = (float(x0), root.approx())
            if math.hypot(*pt) <= radius:
                return pt
    return None


def _pow_range(lo: Fraction, hi: Fraction, k: int) -> tuple[Fraction, Fraction]:
    if k == 0:
        return Fraction(1), Fraction(1)
    a, b = lo**k, hi**k
    if k % 2 == 1:
        return a, b
    if lo <= 0 <= hi:
        return Fraction(0), max(a, b)
    return min(a, b), max(a, b)


def _poly_box_range(p: Poly2, bx, by) -> tuple[Fraction, Fraction]:
    """Exact rational bounds of p over the box bx x by."""
    total_lo = Fraction(0)
    total_hi = Fraction(0)
    for (i, j), c in p.terms.items():
        xlo, xhi = _pow_range(bx[0], bx[1], i)
        ylo, yhi = _pow_range(by[0], by[1], j)
        products = (xlo * ylo, xlo * yhi, xhi * ylo, xhi * yhi)
        total_lo += c * (min(products) if c > 0 else max(products))
        total_hi += c * (max(products) if c > 0 else min(products))
    return total_lo, total_hi


def _resultant_coeffs(P, Q, eliminate, keep) -> list[Fraction]:
    """The resultant of P and Q eliminating `eliminate`, as coefficients in `keep`, lowest first."""
    import sympy

    coeffs = sympy.Poly(sympy.resultant(P, Q, eliminate), keep).all_coeffs()
    return [Fraction(int(c.p), int(c.q)) for c in reversed(coeffs)]


def finite_equilibria(vf: VectorField, radius: float = 1e3) -> list[tuple[float, float]]:
    """All real non-origin equilibria with |(x, y)| <= radius, found exactly.

    Candidate coordinates come from the two elimination resultants of
    (p, q); each candidate pair is confirmed either by exact rational
    evaluation or by bounding p and q over the (<= 1e-12 wide) enclosing
    box with exact interval arithmetic.  A common factor of the two
    components (a curve of equilibria) is divided out and witnessed by a
    single sample point on the curve.  radius may be math.inf.
    """
    import sympy

    x, y = sympy.symbols("x y")
    p_expr = _to_sympy(vf.p, x, y)
    q_expr = _to_sympy(vf.q, x, y)
    found: list[tuple[float, float]] = []
    if vf.p.is_zero or vf.q.is_zero:
        g_poly = sympy.Poly(q_expr if vf.p.is_zero else p_expr, x, y)
        pt = _curve_sample(g_poly, radius)
        return [pt] if pt else []
    g = sympy.gcd(sympy.Poly(p_expr, x, y, domain="QQ"), sympy.Poly(q_expr, x, y, domain="QQ"))
    p_local, q_local = vf.p, vf.q
    if sympy.total_degree(g.as_expr()) >= 1:
        pt = _curve_sample(sympy.Poly(g, x, y), radius)
        if pt is not None:
            found.append(pt)
        p_expr = sympy.quo(p_expr, g.as_expr(), x)
        q_expr = sympy.quo(q_expr, g.as_expr(), x)
        p_local = _from_sympy(p_expr, x, y)
        q_local = _from_sympy(q_expr, x, y)
    rx = _resultant_coeffs(p_expr, q_expr, y, x)
    ry = _resultant_coeffs(p_expr, q_expr, x, y)
    if len(rx) == 1 or len(ry) == 1 or not any(rx) or not any(ry):
        return sorted(set(found))
    xs = [r for r, _ in real_roots(rx) if abs(r.approx()) <= radius]
    ys = [r for r, _ in real_roots(ry) if abs(r.approx()) <= radius]
    for rx_root in xs:
        bx = rx_root.bounds()
        for ry_root in ys:
            if rx_root.kind == "rational" and ry_root.kind == "rational":
                if rx_root.a == 0 and ry_root.a == 0:
                    continue
                if (
                    p_local.evaluate(rx_root.a, ry_root.a) == 0
                    and q_local.evaluate(rx_root.a, ry_root.a) == 0
                ):
                    found.append((float(rx_root.a), float(ry_root.a)))
                continue
            by = ry_root.bounds()
            p_lo, p_hi = _poly_box_range(p_local, bx, by)
            q_lo, q_hi = _poly_box_range(q_local, bx, by)
            if p_lo <= 0 <= p_hi and q_lo <= 0 <= q_hi:
                found.append((rx_root.approx(), ry_root.approx()))
    found = [pt for pt in found if 0 < math.hypot(*pt) <= radius]
    found.sort()
    deduped: list[tuple[float, float]] = []
    for pt in found:
        if not any(math.hypot(pt[0] - q[0], pt[1] - q[1]) < 1e-9 for q in deduped):
            deduped.append(pt)
    return deduped


def _from_sympy(expr, x, y) -> Poly2:
    import sympy

    poly = sympy.Poly(expr, x, y)
    terms = {}
    for (i, j), c in poly.terms():
        c = sympy.Rational(c)
        terms[(i, j)] = Fraction(c.p, c.q)
    return Poly2(terms)


# -- first integrals ---------------------------------------------------------


def lie_derivative(h: Poly2, vf: VectorField) -> Poly2:
    return h.partial("x") * vf.p + h.partial("y") * vf.q


def first_integral_check(vf: VectorField, h: Poly2, traj: Trajectory, n_samples: int = 2001) -> float:
    """Max drift of h along the trajectory; h must be exactly conserved."""
    if not lie_derivative(h, vf).is_zero:
        raise NotConserved("Lie derivative of the candidate is not the zero polynomial")
    samples = traj.sample(n_samples)
    h0 = h.evaluate_float(samples[0][1], samples[0][2])
    return max(abs(h.evaluate_float(px, py) - h0) for _, px, py in samples)


def conserved_quantity(tag: str, params: FamilyParams) -> Poly2:
    """Known polynomial first integrals of the Hamiltonian-like regimes."""
    c1, b1, a1 = params.c1, params.b1, params.a1
    half = Fraction(1, 2)
    if tag == "aa1":
        return Poly2({(2, 0): half, (0, 2): half, (2, 2): -c1 / 2})
    if tag == "aa2":
        return Poly2({(2, 0): half, (4, 0): -b1, (0, 2): half})
    if tag == "aa3":
        return Poly2({
            (2, 0): half, (3, 0): -a1 / 3, (4, 0): -c1 / 4,
            (0, 2): half, (1, 2): a1, (2, 2): -c1 / 2,
        })
    raise ValueError(f"no catalogued first integral for {tag!r}")


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

    @property
    def inconclusive_fraction(self) -> float:
        if not self.samples:
            return 0.0
        bad = sum(1 for _, v in self.samples if v.tag == "inconclusive")
        return bad / len(self.samples)

    def to_json(self) -> dict:
        return {
            "tag": self.tag,
            "witness": list(self.witness) if self.witness else None,
            "line_at_infinity": self.line_at_infinity,
            "extra_equilibria": [list(p) for p in self.extra_equilibria],
            "inconclusive_fraction": self.inconclusive_fraction,
            "samples": [
                {"point": list(pt), "verdict": v.to_json()} for pt, v in self.samples
            ],
        }


def sample_points(radii, angles: int = DEFAULT_ANGLES) -> list[tuple[float, float]]:
    pts = []
    for r in radii:
        for k in range(angles):
            theta = 2.0 * math.pi * k / angles
            pts.append((float(r) * math.cos(theta), float(r) * math.sin(theta)))
    return pts


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
    report = center_cases(params)
    if not report.is_center:
        warnings.warn("parameters do not satisfy any center condition", stacklevel=2)
    vf = build_system(params)
    line = infinite_equilibria(vf).line_of_equilibria
    extra = tuple(finite_equilibria(vf, math.inf))
    samples = []
    escape_witness = None
    periodic_seen = False
    for pt in sample_points(radii, angles):
        verdict = orbit_verdict(vf, pt, cfg)
        samples.append((pt, verdict))
        if verdict.tag == "escaping" and escape_witness is None:
            escape_witness = pt
        if verdict.tag == "periodic":
            periodic_seen = True
    if escape_witness is not None or extra:
        witness = escape_witness if escape_witness is not None else extra[0]
        tag = "not-global"
    elif periodic_seen:
        witness = None
        tag = "global-center-consistent"
    else:
        witness = None
        tag = "inconclusive"
    return GlobalVerdict(tag, witness, tuple(samples), extra, line)
