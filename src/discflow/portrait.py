"""Deterministic SVG phase portraits on the Poincare disc.

The plane is squeezed into the open unit disc by (x, y) -> (x, y)/(1 + r);
infinity becomes the boundary circle.  Output bytes depend only on the
inputs: coordinates are emitted with fixed precision and nothing carries
timestamps or generated ids.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass

from .compactify import InfinityReport
from .flow import GlobalVerdict, IntegratorConfig
from .poly import VectorField

VERDICT_COLORS = {
    "periodic": "#2b6cb0",
    "escaping": "#c53030",
    "inconclusive": "#718096",
}


MARGIN = 16.0  # pixels between the disc and the image edge
SAMPLES_PER_ORBIT = 600
STROKE_WIDTH = 1.1
EXTRA_TIME = 25.0  # the longest an inconclusive orbit is drawn


@dataclass(frozen=True)
class PortraitSpec:
    width: int = 640
    height: int = 640

    def __post_init__(self):
        if not min(self.width, self.height) > 2 * MARGIN:
            raise ValueError(f"{self.width}x{self.height}: each side must exceed {2 * MARGIN:g}")


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

    def polyline(self, coords: str, stroke, width):
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
    """Draw the sampled orbits of a verdict inside the Poincare disc.

    Each orbit is one polyline of SAMPLES_PER_ORBIT points off the records its
    verdict carries, with no new integration: a periodic orbit over its
    period, an escaping one to its exit from the escape radius, an
    inconclusive one to EXTRA_TIME or its record's end, whichever comes first.
    On a reversible field the loop s, b, s', a, s is the start's record, its
    mirror (x, -y) in reverse, the mirror start's record, and on a periodic
    orbit its mirror in reverse, each piece whole and an equal share of the
    points.  A sample with no record (an equilibrium or tangency start) is
    skipped.  vf and cfg are not read.
    """
    spec = spec or PortraitSpec()
    svg = _Svg(spec.width, spec.height)
    cx, cy = spec.width / 2.0, spec.height / 2.0
    scale = min(spec.width, spec.height) / 2.0 - MARGIN

    svg.circle(cx, cy, scale, stroke="#000000", width=1.5)

    for _, orbit in verdict.samples:
        # the start's record is mirrored once the mirror start's exists (empty from a start on
        # the axis), and that one on a periodic loop: both then end on the axis
        mirror = orbit.mirror_trajectory
        parts = [(record, mirrored) for record, mirrored in (
            (orbit.trajectory, mirror is not None), (mirror, orbit.certificate == "reversible"))
            if record is not None and record.steps]
        if not parts:
            continue
        t_stop = {"periodic": orbit.period, "escaping": math.inf}.get(orbit.tag, EXTRA_TIME)
        n, points = SAMPLES_PER_ORBIT // sum(1 + mirrored for _, mirrored in parts), []
        for record, mirrored in parts:
            piece = record.sample(n, min(math.inf if mirrored else t_stop, record.t_end))
            points += piece + [(t, x, -y) for t, x, y in reversed(piece)] * mirrored
        # disc_projection inlined, one format per polyline; a point lies at least MARGIN
        # inside the image, so no -0.000
        flat = []
        for _, x, y in points:
            q = 1.0 / (1.0 + math.hypot(x, y))
            flat += (cx + scale * (x * q), cy - scale * (y * q))
        coords = " ".join(["%.3f,%.3f"] * (len(flat) // 2)) % tuple(flat)
        svg.polyline(coords, VERDICT_COLORS[orbit.tag], STROKE_WIDTH)

    for eq in verdict.extra_equilibria:
        dx, dy = disc_projection(*eq)
        svg.dot(cx + scale * dx, cy - scale * dy, 3.0, "#c53030")
    svg.dot(cx, cy, 3.0, "#000000")

    if infinity.line_of_equilibria:
        svg.circle(cx, cy, scale, stroke="#c53030", width=2.5)
    else:
        for eq in infinity.equilibria:
            theta = math.pi / 2.0  # U2's origin, and a U1 root past float range, is vertical
            if eq.chart.value == "U1":
                with suppress(OverflowError):
                    theta = math.atan2(eq.u.approx(), 1.0)
            for sign in (1.0, -1.0):
                bx = math.cos(theta) * sign
                by = math.sin(theta) * sign
                x1, y1 = cx + scale * 0.96 * bx, cy - scale * 0.96 * by
                x2, y2 = cx + scale * 1.04 * bx, cy - scale * 1.04 * by
                svg.line(x1, y1, x2, y2, "#c53030", 2.0)
    return svg.render()
