"""Metrics from op records and spans, and the environment record.

End-to-end metrics come from the plain (untraced) ops, at the machine's
nominal speed (see `reference_s`).  Per-layer metrics
come from the spans of a traced run: busy times are seconds per op, counts
are taken over round 0 of the workload, which is fixed by the seed, so they
repeat exactly for the same seed.  A layer the workload does not call
reports 0.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import time
from collections import defaultdict

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s.p50", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("flow.orbit_verdict_s.p50", "s", "lower"),
    ("flow.orbit_verdict_s.tail", "s", "lower"),
    ("flow.orbit_verdict_s.r0_5", "s", "lower"),
    ("flow.orbit_verdict_s.r1", "s", "lower"),
    ("flow.orbit_verdict_s.r2", "s", "lower"),
    ("flow.orbit_verdict_s.r5", "s", "lower"),
    ("flow.orbit_s_per_sim_time", "s/t", "lower"),
    ("flow.orbits.periodic", "count", "higher"),
    ("flow.orbits.escaping", "count", "lower"),
    ("flow.orbits.inconclusive", "count", "lower"),
    ("flow.closure_err.max", "abs", "lower"),
    ("flow.escape_false_negatives", "count", "lower"),
    ("flow.finite_equilibria_s", "s", "lower"),
    ("flow.extra_equilibria", "count", "higher"),
    ("portrait.render_s", "s", "lower"),
    ("portrait.svg_bytes", "bytes", "lower"),
    ("compactify.chart_field_s", "s", "lower"),
    ("compactify.infinite_equilibria_s", "s", "lower"),
    ("compactify.infinity_points", "count", "higher"),
    ("desing.run_chain_s", "s", "lower"),
    ("desing.chain_refused", "count", "lower"),
    ("classify.classify_point_s", "s", "lower"),
    ("classify.points", "count", "higher"),
    ("family.center_cases_s", "s", "lower"),
    ("family.global_cases_s", "s", "lower"),
    ("family.build_system_s", "s", "lower"),
    ("cli.interp_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.command_s.decide", "s", "lower"),
    ("cli.command_s.compactify", "s", "lower"),
    ("cli.command_s.blowup", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.glue_frac", "ratio", "lower"),
)

RADII = (("r0_5", 0.5), ("r1", 1.0), ("r2", 2.0), ("r5", 5.0))


def tail(values: list[float]):
    """(percentile, value, n): the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    ordered = sorted(values)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(q / 100.0 * n)
        if n - rank >= 10:
            return q, ordered[rank - 1], n
    return None


# On a shared host the speed of one core drifts by a third within minutes, and
# the ops of a run slow down and speed up with it.  So the runner times this
# fixed pure-Python loop between ops, and the end-to-end times are reported at
# the nominal speed, at which the loop takes REFERENCE_NOMINAL_S: each op time
# is divided by the slowdown read just before and after it.  The detail line
# has the unadjusted times.  The loop is the benchmark's own code, so a
# change to the program moves the reported times as it moves the wall times.
REFERENCE_LOOPS = 400_000
REFERENCE_NOMINAL_S = 0.05


def reference_s() -> float:
    """Wall time of the reference loop, now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REFERENCE_LOOPS):
        x = i * 1e-6
        acc += x * x - 0.5 * x
    return time.perf_counter() - t0


def slowdown(reference_samples: list[float]) -> float:
    """How much slower than nominal the machine ran: 1.0 at nominal speed."""
    return statistics.median(reference_samples) / REFERENCE_NOMINAL_S


def set_slowdowns(op_records: list[dict], reference_samples: list[float]) -> None:
    """Each op's slowdown, from the reference samples just before and after the
    stretch of ops it belongs to (`rec["reference"]` indexes the one before)."""
    for rec in op_records:
        k = rec["reference"]
        rec["slowdown"] = slowdown(reference_samples[k:k + 2])


def peak_rss_mb(children: bool) -> float:
    """Peak RSS of this process, or of the largest child it has waited for."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(setup_s: float, op_records: list[dict], rss_mb: float, adjusted: bool = True) -> dict:
    """The end-to-end metrics; `adjusted`: each op time divided by its slowdown."""
    times = [rec["plain_s"] / (rec["slowdown"] if adjusted else 1.0) for rec in op_records]
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(times) / sum(times),
        "op_s.p50": statistics.median(times),
        "peak_rss_mb": rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(spans: list[dict], op_records: list[dict], probes: dict) -> dict:
    n_ops = len(op_records)
    round0 = {rec["id"] for rec in op_records if rec["round"] == 0}
    by_name = defaultdict(list)
    child_s = defaultdict(float)
    for span in spans:
        span["s"] = span["end"] - span["start"]
        by_name[span["name"]].append(span)
        if span["parent"] is not None:
            child_s[span["parent"]] += span["s"]

    def busy(name, keep=lambda s: True):
        return sum(s["s"] for s in by_name[name] if keep(s)) / n_ops

    def count0(name, attr):
        return sum(s[attr] for s in by_name[name] if s["op"] in round0)

    orbits = by_name["flow.orbit_verdict"]
    orbit_s = [s["s"] for s in orbits]
    orbit_tail = tail(orbit_s)
    finished = [s for s in orbits if s["sim_time"] is not None]
    closures = [s["closure"] for s in orbits if s["op"] in round0 and s["closure"] is not None]
    values = {
        "flow.orbit_verdict_s.p50": statistics.median(orbit_s) if orbit_s else 0.0,
        "flow.orbit_verdict_s.tail": orbit_tail[1] if orbit_tail else 0.0,
        "flow.orbit_s_per_sim_time": (sum(s["s"] for s in finished) / sum(s["sim_time"] for s in finished)
                                      if finished else 0.0),
        "flow.closure_err.max": max(closures, default=0.0),
        "flow.escape_false_negatives": sum(
            rec["kinds"].count("escape_false_negative") for rec in op_records if rec["round"] == 0),
        "flow.finite_equilibria_s": busy("flow.finite_equilibria"),
        "flow.extra_equilibria": count0("flow.finite_equilibria", "points"),
        "portrait.render_s": busy("portrait.render"),
        "portrait.svg_bytes": count0("portrait.render", "svg_bytes"),
        "compactify.chart_field_s": busy("compactify.chart_field"),
        "compactify.infinite_equilibria_s": busy("compactify.infinite_equilibria"),
        "compactify.infinity_points": count0("compactify.infinite_equilibria", "points"),
        "desing.run_chain_s": busy("desing.run_chain"),
        "desing.chain_refused": count0("desing.run_chain", "refused"),
        "classify.classify_point_s": busy("classify.classify_point"),
        "classify.points": count0("classify.classify_point", "points"),
        "family.center_cases_s": busy("family.center_cases"),
        "family.global_cases_s": busy("family.global_cases"),
        "family.build_system_s": busy("family.build_system"),
        "cli.interp_s": probes["interp_s"],
        "cli.import_s": probes["import_s"],
        "trace.overhead_frac": (sum(rec["traced_s"] for rec in op_records)
                                / sum(rec["plain_s"] for rec in op_records) - 1.0),
    }
    for label, radius in RADII:
        values[f"flow.orbit_verdict_s.{label}"] = busy(
            "flow.orbit_verdict", lambda s, r=radius: s["radius"] == r)
    for tag in ("periodic", "escaping", "inconclusive"):
        values[f"flow.orbits.{tag}"] = sum(1 for s in orbits if s["op"] in round0 and s["tag"] == tag)
    for command in ("decide", "compactify", "blowup"):
        spent = [s["s"] for s in by_name[f"cli.command.{command}"]]
        values[f"cli.command_s.{command}"] = statistics.median(spent) if spent else 0.0
    op_spans = [(i, s) for i, s in enumerate(spans) if s["name"] == "op"]
    total = sum(s["s"] for _, s in op_spans)
    values["trace.glue_frac"] = sum(s["s"] - child_s[i] for i, s in op_spans) / total
    return {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in PER_LAYER}


def source_digest(root: str) -> str:
    """sha256 over the library sources, in path order."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "discflow")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_sha(root: str):
    """HEAD's commit from the .git directory, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:  # no .git, or a packed ref
        return None


def environment(root: str, seed: int) -> dict:
    import numpy
    import scipy
    import sympy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "kernel": os.uname().release,
        "machine": os.uname().machine,
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root),
        "seed": seed,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith(("_NUM_THREADS", "_MAX_THREADS")) or k == "PYTHONHASHSEED"},
    }
