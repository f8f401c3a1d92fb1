"""Numerical orbit verification on top of the exact family oracles.

Floats live only here.  Every orbit runs through one engine: a single
adaptive Runge-Kutta 5(4) solver (scipy's RK45) with no end time, stepped
one accepted step at a time with the step's dense interpolant.  Each step
is scanned for sign changes of y at _SUBDIV points and every change is
bisected to 1e-12 in time, so section crossings arrive in time order as
the steps do.  Escape is an outward crossing of the escape radius between
two step ends, located by the same bisection; the last step is cut there
and the stream ends.  The return-map verdicts read the crossings of that
stream, and `integrate` collects its steps into one dense solution.  scipy
is imported only when an orbit is integrated, so the exact paths never
load it.  The finite-equilibrium scan stays exact (Groebner elimination
over the rationals) because the global-center criterion hinges on
uniqueness of the finite equilibrium.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .compactify import infinite_equilibria
from .family import FamilyParams, build_system, center_cases
from .poly import Poly2, VectorField
from .roots import real_roots

_T_GUARD = 1e-9
_SUBDIV = 6
_SCAN_OFFSETS = np.arange(_SUBDIV + 1) / _SUBDIV
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


@dataclass(frozen=True)
class OrbitVerdict:
    tag: str  # "periodic" | "escaping" | "inconclusive"
    period: float | None = None
    exit_time: float | None = None
    closure_error: float | None = None
    reason: str | None = None

    @classmethod
    def periodic(cls, period: float, closure_error: float) -> "OrbitVerdict":
        return cls("periodic", period=period, closure_error=closure_error)

    @classmethod
    def escaping(cls, exit_time: float) -> "OrbitVerdict":
        return cls("escaping", exit_time=exit_time)

    @classmethod
    def inconclusive(cls, reason: str) -> "OrbitVerdict":
        return cls("inconclusive", reason=reason)

    def to_json(self) -> dict:
        out: dict = {"tag": self.tag}
        if self.period is not None:
            out["period"] = self.period
        if self.exit_time is not None:
            out["exit_time"] = self.exit_time
        if self.closure_error is not None:
            out["closure_error"] = self.closure_error
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def _poly_expr(p: Poly2) -> str:
    if p.is_zero:
        return "0.0"
    parts = []
    for (i, j), c in sorted(p.terms.items()):
        factors = [repr(float(c))]
        if i:
            factors.append("x" if i == 1 else f"x**{i}")
        if j:
            factors.append("y" if j == 1 else f"y**{j}")
        parts.append("*".join(factors))
    return " + ".join(parts)


def compile_rhs(vf: VectorField):
    """Compile the field into a float right-hand side f(t, (x, y))."""
    src = (
        "def _rhs(t, z):\n"
        "    x = z[0]\n"
        "    y = z[1]\n"
        f"    return ({_poly_expr(vf.p)}, {_poly_expr(vf.q)})\n"
    )
    namespace: dict = {}
    exec(src, {"__builtins__": {}}, namespace)
    return namespace["_rhs"]


# -- the orbit engine ----------------------------------------------------------


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


def _radius_gap(z, r2: float) -> float:
    return float(z[0] * z[0] + z[1] * z[1] - r2)


def _steps(vf: VectorField, x0: tuple[float, float], cfg: IntegratorConfig):
    """Accepted RK45 steps from x0 as (t0, t1, dense), with no end in time.

    dense(t) interpolates the state over the step.  After an outward
    crossing of the escape radius the last step is cut at the exit time and
    the stream ends; a failed step raises StepUnderflow.
    """
    from scipy.integrate import RK45

    r2 = cfg.escape_radius**2
    solver = RK45(
        compile_rhs(vf), 0.0, np.array(x0, dtype=float), math.inf,
        rtol=cfg.rel_tol, atol=cfg.abs_tol,
    )
    gap = _radius_gap(solver.y, r2)
    while True:
        message = solver.step()
        if solver.status == "failed":
            raise StepUnderflow(message)
        t0, t1, dense = solver.t_old, solver.t, solver.dense_output()
        gap_before, gap = gap, _radius_gap(solver.y, r2)
        if gap_before <= 0.0 < gap:
            yield t0, _bisect_time(lambda t: _radius_gap(dense(t), r2), t0, t1), dense
            return
        yield t0, t1, dense


def _section_crossings(t0: float, t1: float, dense):
    """Sign changes of y over one step as (t, x, d) in time order, d = +1 upward."""
    taus = t0 + (t1 - t0) * _SCAN_OFFSETS
    signs = np.sign(dense(taus)[1])
    for i in np.nonzero(signs[:-1] * signs[1:] < 0.0)[0]:
        tc = _bisect_time(lambda t: float(dense(t)[1]), float(taus[i]), float(taus[i + 1]))
        yield tc, float(dense(tc)[0]), int(signs[i + 1])


def _section_direction(vf: VectorField, x: float) -> int:
    """+1 or -1 as the flow crosses y = 0 upward or downward at (x, 0); 0 if tangent."""
    q0 = vf.q.evaluate_float(x, 0.0)
    return (q0 > 0.0) - (q0 < 0.0)


def _read_orbit(
    vf: VectorField, x0: tuple[float, float], cfg: IntegratorConfig, direction: int | None
) -> OrbitVerdict:
    """The verdict read off one integration from x0.

    direction is the orientation of the return to look for when x0 lies on
    the section, or None when x0 must first be carried to its first hit of
    {y = 0, x > 0}; the return map then reads on in the same integration.
    Each phase gets its own max_time, counted from where it starts, and an
    exit time is counted from there too.
    """
    t_from, x_from, deadline = 0.0, float(x0[0]), cfg.max_time
    t_end = 0.0
    try:
        for t0, t1, dense in _steps(vf, x0, cfg):
            for tc, xc, d in _section_crossings(t0, t1, dense):
                if tc > deadline:
                    break
                if tc - t_from <= _T_GUARD or xc <= 0.0 or direction not in (None, d):
                    continue
                if direction is not None:
                    closure = abs(xc - x_from)
                    if closure <= cfg.section_closure_tol:
                        return OrbitVerdict.periodic(tc - t_from, closure)
                    return OrbitVerdict.inconclusive(f"section return displaced by {closure:.3e}")
                direction = _section_direction(vf, xc)
                if not direction:
                    return OrbitVerdict.inconclusive(_TANGENCY)
                t_from, x_from, deadline = tc, xc, tc + cfg.max_time
            if t1 > deadline:
                if direction is None:
                    reason = "orbit never reaches the section {y = 0, x > 0}"
                else:
                    reason = "no section return within max_time"
                return OrbitVerdict.inconclusive(reason)
            t_end = t1
    except StepUnderflow as exc:
        return OrbitVerdict.inconclusive(f"integrator failure: {exc}")
    return OrbitVerdict.escaping(t_end - t_from)


@dataclass
class Trajectory:
    """A dense orbit: one scipy OdeSolution over the accepted steps."""

    solution: object
    t_end: float
    escaped: bool
    escape_time: float | None

    def __call__(self, t: float) -> tuple[float, float]:
        z = self.solution(t)
        return float(z[0]), float(z[1])

    def sample(self, n: int) -> list[tuple[float, float, float]]:
        ts = np.linspace(0.0, self.t_end, n)
        xs, ys = self.solution(ts)
        return [(float(t), float(x), float(y)) for t, x, y in zip(ts, xs, ys)]


def integrate(
    vf: VectorField,
    x0: tuple[float, float],
    cfg: IntegratorConfig | None = None,
    t_final: float | None = None,
) -> Trajectory:
    """Integrate from x0 until t_final (default max_time) or escape."""
    from scipy.integrate import OdeSolution

    cfg = cfg or IntegratorConfig()
    t_final = cfg.max_time if t_final is None else t_final
    ts, pieces = [0.0], []
    for _, t1, dense in _steps(vf, x0, cfg):
        ts.append(t1)
        pieces.append(dense)
        if t1 > t_final:
            return Trajectory(OdeSolution(ts, pieces), t_final, False, None)
    return Trajectory(OdeSolution(ts, pieces), ts[-1], True, ts[-1])


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

    if p.is_zero:
        return sympy.Integer(0)
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
        if not coeffs or all(c == 0 for c in coeffs):
            continue
        if len(coeffs) == 1:
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


def _resultant_coeffs(P, Q, eliminate) -> list[Fraction]:
    import sympy

    res = sympy.resultant(P, Q, eliminate)
    keep = [s for s in (res.free_symbols or set())]
    if not keep:
        value = sympy.Rational(res)
        return [Fraction(value.p, value.q)]
    poly = sympy.Poly(res, keep[0])
    coeffs = [Fraction(0)] * (poly.degree() + 1)
    for (k,), c in poly.terms():
        c = sympy.Rational(c)
        coeffs[k] = Fraction(c.p, c.q)
    return coeffs


def finite_equilibria(vf: VectorField, radius: float = 1e3) -> list[tuple[float, float]]:
    """All real non-origin equilibria with |(x, y)| <= radius, found exactly.

    Candidate coordinates come from the two elimination resultants of
    (p, q); each candidate pair is confirmed either by exact rational
    evaluation or by bounding p and q over the (<= 1e-12 wide) enclosing
    box with exact interval arithmetic.  A common factor of the two
    components (a curve of equilibria) is divided out and witnessed by a
    single sample point on the curve.
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
    rx = _resultant_coeffs(p_expr, q_expr, y)
    ry = _resultant_coeffs(p_expr, q_expr, x)
    if all(c == 0 for c in rx) or all(c == 0 for c in ry):
        return sorted(set(found))
    if len(rx) == 1 or len(ry) == 1:
        return sorted(set(found))
    bound = Fraction(int(radius) + 1)
    xs = [r for r, _ in real_roots(rx) if abs(r.approx()) <= bound]
    ys = [r for r, _ in real_roots(ry) if abs(r.approx()) <= bound]
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
    extra = tuple(finite_equilibria(vf, cfg.escape_radius))
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
