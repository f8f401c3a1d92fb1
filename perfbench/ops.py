"""The timed operations of each workload, plain and traced.

A plain op calls what a user calls: `global_center_verdict`, the in-process
`discflow portrait` path, the exact pipeline, or one `discflow` subprocess.
A traced op makes the same public calls the plain op makes internally, in the
same order, each inside a span, and must produce byte-identical output.
Spans are recorded from here, around calls into the library; nothing in the
library is patched.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

from discflow import (
    ChartId,
    GlobalVerdict,
    IntegratorConfig,
    NotDivisible,
    build_system,
    center_cases,
    chart_field,
    classify_point,
    finite_equilibria,
    global_cases,
    global_center_verdict,
    infinite_equilibria,
    orbit_verdict,
    run_chain,
)
from discflow.flow import DEFAULT_ANGLES, DEFAULT_RADII, sample_points
from discflow.portrait import PortraitSpec, render_portrait

CFG = IntegratorConfig()
AUDIT_CHARTS = (ChartId.U1, ChartId.U2, ChartId.V1, ChartId.V2)
AUDIT_CHAIN = [("blowup",), ("rescale", "u", 1)]
# The blowup command runs AUDIT_CHAIN, written in the CLI's step syntax.
CLI_COMMANDS = (
    ("decide", ()),
    ("compactify", ("--chart", "u1")),
    ("compactify", ("--chart", "u2")),
    ("blowup", ("--chart", "u2", "--steps", "blowup,rescale:u:1")),
)
CLI_TIMEOUT_S = 60


class Spans:
    """In-memory span log: one dict per call, with the span that caused it."""

    def __init__(self):
        self.records: list[dict] = []
        self.op = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def __call__(self, name: str):
        """Yields the span's record, so callers can add counts to it."""
        rec = {"name": name, "op": self.op, "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.records))
        self.records.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def no_span(name: str):
    return contextlib.nullcontext({})


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# -- verify-global ---------------------------------------------------------------


def verdict_plain(params) -> GlobalVerdict:
    return global_center_verdict(params)


def verdict_traced(params, span) -> GlobalVerdict:
    """`global_center_verdict` rebuilt from its public steps (default config)."""
    with span("family.center_cases"):
        center_cases(params)
    with span("family.build_system"):
        vf = build_system(params)
    with span("compactify.infinite_equilibria") as attrs:
        infinity = infinite_equilibria(vf)
    attrs["points"] = len(infinity.equilibria)
    with span("flow.finite_equilibria") as attrs:
        extra = tuple(finite_equilibria(vf, CFG.escape_radius))
    attrs["points"] = len(extra)
    samples = []
    points = sample_points(DEFAULT_RADII, DEFAULT_ANGLES)
    for k, pt in enumerate(points):
        with span("flow.orbit_verdict") as attrs:
            verdict = orbit_verdict(vf, pt, CFG)
        attrs.update(
            radius=DEFAULT_RADII[k // DEFAULT_ANGLES], tag=verdict.tag,
            sim_time=verdict.period if verdict.tag == "periodic" else verdict.exit_time,
            closure=verdict.closure_error,
        )
        samples.append((pt, verdict))
    escaping = [pt for pt, v in samples if v.tag == "escaping"]
    if escaping or extra:
        tag, witness = "not-global", escaping[0] if escaping else extra[0]
    elif any(v.tag == "periodic" for _, v in samples):
        tag, witness = "global-center-consistent", None
    else:
        tag, witness = "inconclusive", None
    return GlobalVerdict(tag, witness, tuple(samples), extra, infinity.line_of_equilibria)


# -- portrait-center -------------------------------------------------------------


def portrait_plain(params):
    """The `discflow portrait` path, in process, with its defaults."""
    vf = build_system(params)
    verdict = global_center_verdict(params, CFG)
    infinity = infinite_equilibria(vf)
    svg = render_portrait(vf, verdict, infinity, PortraitSpec(), CFG)
    return verdict, infinity, svg


def portrait_traced(params, span):
    vf = build_system(params)
    verdict = verdict_traced(params, span)
    with span("compactify.infinite_equilibria") as attrs:
        infinity = infinite_equilibria(vf)
    attrs["points"] = len(infinity.equilibria)
    with span("portrait.render") as attrs:
        svg = render_portrait(vf, verdict, infinity, PortraitSpec(), CFG)
    attrs["svg_bytes"] = len(svg.encode())
    return verdict, infinity, svg


# -- exact-audit -----------------------------------------------------------------


def audit(params, span=no_span) -> dict:
    """The exact pipeline for one member; plain when `span` is `no_span`."""
    with span("family.center_cases"):
        center = center_cases(params)
    with span("family.global_cases"):
        statements = global_cases(params)
    with span("family.build_system"):
        vf = build_system(params)
    charts = {}
    with span("compactify.chart_field"):
        for chart in AUDIT_CHARTS:
            cf = chart_field(vf, chart)
            charts[chart.value] = (cf, cf.to_json())
    with span("compactify.infinite_equilibria") as attrs:
        infinity = infinite_equilibria(vf)
    attrs["points"] = len(infinity.equilibria)
    classes = []
    with span("classify.classify_point") as attrs:
        for eq in infinity.equilibria:
            if eq.u.kind == "rational":
                field = charts[eq.chart.value][0].field
                classes.append(classify_point(field, (eq.u.a, Fraction(0))).to_json())
    attrs["points"] = len(classes)
    with span("desing.run_chain") as attrs:
        try:
            chain = run_chain(charts["U2"][0].field, AUDIT_CHAIN).to_json(("u", "v"))
        except NotDivisible:
            chain = "refused"
    attrs["refused"] = chain == "refused"
    with span("flow.finite_equilibria") as attrs:
        finite = finite_equilibria(vf, 1e3)
    attrs["points"] = len(finite)
    return {
        "center": center, "global": statements, "vf": vf, "charts": charts,
        "infinity": infinity, "classes": classes, "chain": chain, "finite": finite,
    }


def audit_json(out: dict) -> str:
    return canonical({
        "center": out["center"].to_json(), "global": out["global"].to_json(),
        "vf": list(out["vf"].text()), "charts": {k: j for k, (_, j) in out["charts"].items()},
        "infinity": out["infinity"].to_json(), "classes": out["classes"],
        "chain": out["chain"], "finite": out["finite"],
    })


# -- cli ---------------------------------------------------------------------------


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_cli(root: str, args: list[str]) -> tuple[int, str]:
    """One `discflow` subprocess; waits for it and kills it on timeout."""
    proc = subprocess.run(
        [sys.executable, "-m", "discflow.cli", *args], cwd=root, env=cli_env(root),
        capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def cli_expected(kind: str, extra: tuple, params) -> tuple[set, str | None]:
    """Allowed exit codes and the exact stdout the command must print."""
    vf = build_system(params)
    if kind == "decide":
        code = 0 if global_cases(params).is_global else 1 if center_cases(params).is_center else 2
        return {code}, None
    chart = ChartId(extra[1].upper())
    cf = chart_field(vf, chart)
    if kind == "compactify":
        payload = {"params": params.to_json(), "chart_field": cf.to_json(),
                   "infinity": infinite_equilibria(vf).to_json()}
        return {0}, json.dumps(payload, indent=2) + "\n"
    try:
        payload = run_chain(cf.field, AUDIT_CHAIN).to_json(("u", "v"))
    except NotDivisible:
        return {3}, ""
    payload["chart"] = cf.chart.value
    payload["n_used"] = cf.n_used
    return {0}, json.dumps(payload, indent=2) + "\n"


def time_subprocess(root: str, code: str, repeats: int) -> float:
    """Median wall time of `python -c code` with the checkout's src on the path."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=cli_env(root),
                       check=True, timeout=CLI_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]
