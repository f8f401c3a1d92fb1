import dataclasses
import math
import xml.etree.ElementTree as ET

import pytest
from test_flow import bisect_sample

from discflow import flow
from discflow.compactify import infinite_equilibria
from discflow.family import FamilyParams, build_system
from discflow.flow import IntegratorConfig, OrbitVerdict, global_center_verdict
from discflow.poly import VectorField, X, Y
from discflow.portrait import (
    EXTRA_TIME,
    MARGIN,
    SAMPLES_PER_ORBIT,
    VERDICT_COLORS,
    PortraitSpec,
    disc_projection,
    render_portrait,
)


class TestDiscProjection:
    def test_maps_into_open_disc(self):
        for x, y in [(0.0, 0.0), (3.0, -4.0), (1e6, 0.0), (-2.5, 7.1)]:
            px, py = disc_projection(x, y)
            assert math.hypot(px, py) < 1.0

    def test_radial_monotone_and_direction_preserving(self):
        last = -1.0
        for r in (0.1, 1.0, 10.0, 1e4):
            px, py = disc_projection(r, 0.0)
            assert py == 0.0 and px > last
            last = px
        # direction preserved
        px, py = disc_projection(3.0, 4.0)
        assert py / px == 4.0 / 3.0

    def test_infinity_approaches_boundary(self):
        px, _ = disc_projection(1e9, 0.0)
        assert 1.0 - px < 1e-8


class TestRenderPortrait:
    def test_deterministic_bytes_and_markers(self):
        params = FamilyParams.make(b1=-1, c1=4, d1=-3)
        cfg = IntegratorConfig()
        vf = build_system(params)
        verdict = global_center_verdict(params, cfg, sample_radii=(1.0,), angles=4)
        infinity = infinite_equilibria(vf)
        spec = PortraitSpec(width=300, height=300)
        one = render_portrait(vf, verdict, infinity, spec, cfg)
        two = render_portrait(vf, verdict, infinity, spec, cfg)
        assert one == two
        assert one.startswith("<svg")
        assert one.rstrip().endswith("</svg>")
        # extra equilibria are drawn as red dots, plus the origin marker
        assert one.count('fill="#c53030"') == len(verdict.extra_equilibria)
        assert 'fill="#000000"' in one

    def test_verdict_carries_the_infinity_report_it_used(self):
        params = FamilyParams.make(b2=1, d2=1)
        verdict = global_center_verdict(params, sample_radii=(1.0,), angles=2)
        assert verdict.infinity == infinite_equilibria(build_system(params))
        assert verdict.line_at_infinity == verdict.infinity.line_of_equilibria
        assert "infinity" not in verdict.to_json()
        assert dataclasses.replace(verdict, infinity=None) == verdict
        assert "infinity=" not in repr(verdict).replace("line_at_infinity=", "")

    def test_size_must_leave_a_positive_disc(self):
        # at 2*MARGIN or less the disc's radius min(w, h)/2 - MARGIN is not positive
        for width, height in [(32, 640), (640, 32), (20, 20), (0, 640), (-5, 640)]:
            with pytest.raises(ValueError):
                PortraitSpec(width=width, height=height)
        assert PortraitSpec(width=33, height=33).width == 33

    def test_line_at_infinity_highlighted(self):
        params = FamilyParams.make(b2=1, d2=1)
        cfg = IntegratorConfig()
        vf = build_system(params)
        verdict = global_center_verdict(params, cfg, sample_radii=(0.5,), angles=2)
        infinity = infinite_equilibria(vf)
        svg = render_portrait(vf, verdict, infinity, PortraitSpec(width=200, height=200), cfg)
        assert svg.count('stroke="#c53030"') >= 1


def _polylines(svg: str, stroke: str) -> list[list[tuple[float, float]]]:
    root = ET.fromstring(svg)
    return [
        [tuple(map(float, pair.split(","))) for pair in line.get("points").split()]
        for line in root.iter("{http://www.w3.org/2000/svg}polyline")
        if line.get("stroke") == stroke
    ]


def reference_polylines(verdict, spec: PortraitSpec) -> list[str]:
    """The polylines' points drawn point by point, each read off its record by the
    bisecting reader, through to_px and the -0.000 rule.  On a reversible member the
    start's record is followed, once the mirror start's record exists, by its mirror
    images in reverse, then by the mirror start's record and, on a "reversible" periodic
    orbit, by that record's mirror images in reverse: an equal share of the points each."""
    cx, cy = spec.width / 2.0, spec.height / 2.0
    scale = min(spec.width, spec.height) / 2.0 - MARGIN

    def to_px(x, y):
        dx, dy = disc_projection(x, y)
        return cx + scale * dx, cy - scale * dy

    def fmt(value):
        out = f"{value:.3f}"
        return "0.000" if out == "-0.000" else out

    lines = []
    for _, orbit in verdict.samples:
        traj, mirror = orbit.trajectory, orbit.mirror_trajectory
        if traj is None or not traj.steps:
            continue
        if mirror is None:  # no mirror start: the start's record alone
            t_stop = {"periodic": orbit.period, "escaping": traj.t_end}.get(orbit.tag, EXTRA_TIME)
            samples = bisect_sample(traj, SAMPLES_PER_ORBIT, min(t_stop, traj.t_end))
        else:
            closed = orbit.certificate == "reversible"
            t_stop = mirror.t_end if closed or orbit.tag == "escaping" else min(EXTRA_TIME, mirror.t_end)
            pieces = 2 + (1 + closed) * bool(mirror.steps)
            n = SAMPLES_PER_ORBIT // pieces
            half = bisect_sample(traj, n, traj.t_end)
            samples = half + [(t, x, -y) for t, x, y in half[::-1]]
            if mirror.steps:
                other = bisect_sample(mirror, n, t_stop)
                samples += other + ([(t, x, -y) for t, x, y in other[::-1]] if closed else [])
        assert len(samples) == SAMPLES_PER_ORBIT
        pts = [to_px(x, y) for _, x, y in samples]
        lines.append(" ".join(f"{fmt(px)},{fmt(py)}" for px, py in pts))
    return lines


class TestDrawnFromRecords:
    @pytest.mark.parametrize(
        "base, spec",
        [
            (dict(b1=-1, c1=4, d1=-3), PortraitSpec()),
            (dict(b2=1, d2=1), PortraitSpec(width=33, height=200)),
            (dict(b1=1, c1=-4, d1=3), PortraitSpec(width=300, height=120)),
            (dict(c1=2), PortraitSpec(width=200, height=260)),
        ],
        ids=["control", "line-at-infinity", "global", "inconclusive"],
    )
    def test_polylines_match_the_reference_drawing(self, base, spec):
        params = FamilyParams.make(**base)
        vf = build_system(params)
        verdict = global_center_verdict(params, sample_radii=(0.5, 2.0), angles=4)
        if base == dict(c1=2):  # two orbits that never reach the section, drawn to EXTRA_TIME
            long = [v for _, v in verdict.samples if v.tag == "inconclusive"]
            assert len(long) == 2 and all(v.trajectory.t_end > EXTRA_TIME for v in long)
        svg = render_portrait(vf, verdict, infinite_equilibria(vf), spec)
        lines = ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}polyline")
        drawn = [line.get("points") for line in lines]
        assert drawn == reference_polylines(verdict, spec) and len(drawn) == 8
        # a periodic orbit of a reversible member (all here but b2 = d2 = 1) is drawn from
        # half its loop; the global member's 8 orbits all are
        periodic = [v for _, v in verdict.samples if v.tag == "periodic"]
        assert all((v.certificate == "reversible") == flow._shape(vf)[2] for v in periodic)
        if base == dict(b1=1, c1=-4, d1=3):
            assert len(periodic) == 8

    def test_escape_past_the_mirror_start_matches_the_reference_drawing(self):
        # iii-line-a1's default fan has orbits that escape after the mirror start's carry:
        # the start's record, its mirror in reverse and the mirror start's record, 200 each
        params = FamilyParams.make(a1=1, b1=1, d1=-1)
        vf = build_system(params)
        verdict = global_center_verdict(params)
        past = [v for _, v in verdict.samples if v.tag == "escaping" and v.mirror_trajectory]
        assert len(past) >= 4 and all(v.mirror_trajectory.steps for v in past)
        spec = PortraitSpec(width=300, height=300)
        svg = render_portrait(vf, verdict, infinite_equilibria(vf), spec)
        lines = ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}polyline")
        assert [line.get("points") for line in lines] == reference_polylines(verdict, spec)

    def test_reversible_loop_is_drawn_closed(self):
        # on x' = y, y' = -x the half record from (1, 0) and its mirror make the unit circle
        orbit = flow.orbit_verdict(VectorField(Y, -X), (1.0, 0.0))
        verdict = flow.GlobalVerdict("global-center-consistent", None, (((1.0, 0.0), orbit),), (), False)
        spec = PortraitSpec(width=400, height=400)
        svg = render_portrait(None, verdict, infinite_equilibria(build_system(FamilyParams())), spec)
        [points] = _polylines(svg, VERDICT_COLORS["periodic"])
        scale = 200.0 - MARGIN
        assert len(points) == SAMPLES_PER_ORBIT and points[0] == points[-1]
        assert points[0] == pytest.approx((200.0 + scale / 2, 200.0), abs=1e-3)
        assert all(math.hypot(px - 200.0, py - 200.0) == pytest.approx(scale / 2, abs=2e-3)
                   for px, py in points)
        assert max(py for _, py in points) > 200.0 + 0.4 * scale > 200.0 - 0.4 * scale > min(
            py for _, py in points)

    def test_render_never_integrates(self, monkeypatch):
        params = FamilyParams.make(b1=-1, c1=4, d1=-3)
        vf = build_system(params)
        verdict = global_center_verdict(params, sample_radii=(0.25, 1.0), angles=4)
        infinity = infinite_equilibria(vf)

        def no_integration(*args, **kwargs):
            raise AssertionError("render_portrait integrated an orbit")

        monkeypatch.setattr(flow, "_kernel", no_integration)
        # a sample with no record (here built by hand) is skipped
        bare = ((2.0, 0.0), OrbitVerdict.inconclusive("no record"))
        with_bare = dataclasses.replace(verdict, samples=verdict.samples + (bare,))
        svg = render_portrait(vf, with_bare, infinity, PortraitSpec(width=200, height=200))
        assert all(v.trajectory.steps for _, v in verdict.samples)
        assert svg.count("<polyline") == len(verdict.samples)
        ET.fromstring(svg)

    @pytest.mark.parametrize(
        "base",
        [
            dict(a1=1, b1=1, d1=-1),
            dict(b1=1, b2=1, d1=-1, d2=1),
            dict(a2=1, b1=1, d1=-1),
            dict(a1=1, b1=1, c1=1, d1=3),
        ],
        ids=["iii-line-a1", "iii-line-b2", "iii-line-a2", "i-escape"],
    )
    def test_escaping_curves_reach_the_boundary(self, base):
        params = FamilyParams.make(**base)
        vf = build_system(params)
        verdict = global_center_verdict(params)
        spec = PortraitSpec()
        svg = render_portrait(vf, verdict, infinite_equilibria(vf), spec)
        curves = _polylines(svg, VERDICT_COLORS["escaping"])
        assert len(curves) == sum(1 for _, v in verdict.samples if v.tag == "escaping") > 0
        c = spec.width / 2.0
        scale = c - MARGIN
        for curve in curves:
            px, py = curve[-1]
            assert 1.0 - math.hypot(px - c, py - c) / scale < 0.02
