"""Deterministic SVG phase portraits on the Poincare disc.

The plane is squeezed into the open unit disc by (x, y) -> (x, y)/(1 + r);
infinity becomes the boundary circle.  Output bytes depend only on the
inputs: coordinates are emitted with fixed precision and nothing carries
timestamps or generated ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .compactify import InfinityReport
from .flow import GlobalVerdict, IntegratorConfig, StepUnderflow, integrate
from .poly import VectorField

VERDICT_COLORS = {
    "periodic": "#2b6cb0",
    "escaping": "#c53030",
    "inconclusive": "#718096",
}


@dataclass(frozen=True)
class PortraitSpec:
    width: int = 640
    height: int = 640
    margin: float = 16.0
    samples_per_orbit: int = 600
    stroke_width: float = 1.1
    extra_time: float = 25.0


def disc_projection(x: float, y: float) -> tuple[float, float]:
    """Bijection of the plane onto the open unit disc; infinity -> boundary."""
    s = 1.0 / (1.0 + math.hypot(x, y))
    return x * s, y * s


def _fmt(value: float) -> str:
    out = f"{value:.3f}"
    return "0.000" if out == "-0.000" else out


class _Svg:
    def __init__(self, width: int, height: int):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        ]

    def circle(self, cx, cy, r, stroke="#000000", fill="none", width=1.5):
        self.parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
            f'stroke="{stroke}" stroke-width="{width}" fill="{fill}"/>'
        )

    def dot(self, cx, cy, r, fill):
        self.parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="{fill}"/>')

    def polyline(self, pts, stroke, width):
        coords = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in pts)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}" stroke-linejoin="round"/>'
        )

    def line(self, x1, y1, x2, y2, stroke, width):
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"/>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def render_portrait(
    vf: VectorField,
    verdict: GlobalVerdict,
    infinity: InfinityReport,
    spec: PortraitSpec | None = None,
    cfg: IntegratorConfig | None = None,
) -> str:
    """Draw the sampled orbits of a verdict inside the Poincare disc."""
    spec = spec or PortraitSpec()
    cfg = cfg or IntegratorConfig()
    svg = _Svg(spec.width, spec.height)
    cx, cy = spec.width / 2.0, spec.height / 2.0
    scale = min(spec.width, spec.height) / 2.0 - spec.margin

    def to_px(x: float, y: float) -> tuple[float, float]:
        dx, dy = disc_projection(x, y)
        return cx + scale * dx, cy - scale * dy

    svg.circle(cx, cy, scale, stroke="#000000", width=1.5)

    for point, orbit in verdict.samples:
        color = VERDICT_COLORS[orbit.tag]
        if orbit.tag == "periodic":
            t_final = orbit.period
        elif orbit.tag == "escaping":
            t_final = orbit.exit_time
        else:
            t_final = spec.extra_time
        try:
            traj = integrate(vf, point, cfg, t_final=t_final)
        except StepUnderflow:
            continue
        pts = [to_px(px, py) for _, px, py in traj.sample(spec.samples_per_orbit)]
        svg.polyline(pts, color, spec.stroke_width)

    for eq in verdict.extra_equilibria:
        ex, ey = to_px(eq[0], eq[1])
        svg.dot(ex, ey, 3.0, "#c53030")
    svg.dot(cx, cy, 3.0, "#000000")

    if infinity.line_of_equilibria:
        svg.circle(cx, cy, scale, stroke="#c53030", width=2.5)
    else:
        for eq in infinity.equilibria:
            u = eq.u.approx()
            if eq.chart.value == "U1":
                angles = [math.atan2(u, 1.0)]
            else:
                angles = [math.pi / 2.0]
            for theta in angles:
                for sign in (1.0, -1.0):
                    bx = math.cos(theta) * sign
                    by = math.sin(theta) * sign
                    x1, y1 = cx + scale * 0.96 * bx, cy - scale * 0.96 * by
                    x2, y2 = cx + scale * 1.04 * bx, cy - scale * 1.04 * by
                    svg.line(x1, y1, x2, y2, "#c53030", 2.0)
    return svg.render()
