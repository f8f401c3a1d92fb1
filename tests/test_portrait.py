import dataclasses
import math
import xml.etree.ElementTree as ET

import pytest

from discflow import flow
from discflow.compactify import infinite_equilibria
from discflow.family import FamilyParams, build_system
from discflow.flow import IntegratorConfig, OrbitVerdict, global_center_verdict
from discflow.portrait import (
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


class TestDrawnFromRecords:
    def test_render_never_integrates(self, monkeypatch):
        params = FamilyParams.make(b1=-1, c1=4, d1=-3)
        vf = build_system(params)
        verdict = global_center_verdict(params, sample_radii=(0.25, 1.0), angles=4)
        infinity = infinite_equilibria(vf)

        def no_integration(*args, **kwargs):
            raise AssertionError("render_portrait integrated an orbit")

        monkeypatch.setattr(flow, "integrate", no_integration)
        monkeypatch.setattr(flow, "_steps", no_integration)
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
        scale = c - spec.margin
        for curve in curves:
            px, py = curve[-1]
            assert 1.0 - math.hypot(px - c, py - c) / scale < 0.02
