"""Run one discflow benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verify-global --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
One client process, pinned to one CPU, runs a closed loop: an op starts when
the previous one has finished, and CLI subprocesses run one at a time.  The
run goes through rounds of members and stops at the first round that ends
after --seconds, so every run measures the same mix of members.  It checks
every output and prints two JSON lines: a detail record (environment,
members, failure kinds) and, last, {"correct", "attempted", "failed",
"metrics"}.  --trace 0 reports the end-to-end metrics of untraced ops;
--trace 1 runs every op untraced and then rebuilt from public calls inside
spans, requires byte-identical output, and reports the per-layer metrics.
End-to-end times are reported at the machine's nominal speed, read from a
reference loop timed between ops (report.py says why).  The full record,
with the spans, is written to perfbench/out/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_CHILDREN = 2
SETUP_REFERENCES = 3
PROBE_REPEATS = 3
REFERENCE_EVERY_S = 0.5  # op time between two samples of the reference loop
WORKLOAD_NAMES = ("verify-global", "portrait-center", "exact-audit", "cli")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for setup_s)")
    return parser.parse_args(argv)


def import_library():
    """Import discflow from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "discflow", "__init__.py")):
        raise SystemExit(f"error: no discflow sources under {SRC}")
    sys.path.insert(0, SRC)
    import discflow

    if os.path.dirname(os.path.dirname(os.path.abspath(discflow.__file__))) != SRC:
        raise SystemExit(f"error: discflow imported from {discflow.__file__}, not {SRC}")


def set_up(args):
    """Import, generate round 0 and warm up; returns (workload, round 0)."""
    import_library()
    import workloads

    workload = workloads.make(args.workload, ROOT)
    first = workload.round(args.seed, 0)
    workload.warm_up()
    return workload, first


def child_setups(args) -> list[tuple[float, float]]:
    """(set-up time, slowdown) of fresh processes, each measured by the child itself."""
    times = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((result["setup_s"], result["slowdown"]))
    return times


def run_op(workload, item, rnd, op_id, spans):
    """One op: plain (timed), checked, and in a traced run rebuilt in spans."""
    import checks

    rec = {"id": op_id, "round": rnd, "label": item[0], "kinds": []}
    if spans is not None:
        from sympy.core.cache import clear_cache

        clear_cache()  # the rebuild must not find the plain op's results cached
    t0 = time.perf_counter()
    try:
        out = workload.plain(item)
    except Exception:
        rec["plain_s"] = time.perf_counter() - t0
        rec["kinds"].append("raised")
        rec["error"] = traceback.format_exc()
        out = None
    else:
        rec["plain_s"] = time.perf_counter() - t0
        rec["kinds"] += workload.check(item, out)
        rec["orbit_tags"] = workload.orbit_tags(out)
    if spans is not None:
        clear_cache()
        spans.op = op_id
        t0 = time.perf_counter()
        try:
            with spans("op"):
                traced = workload.traced(item, spans)
        except Exception:
            rec["kinds"].append("raised")
            rec["error"] = traceback.format_exc()
            traced = None
        rec["traced_s"] = time.perf_counter() - t0
        if out is not None and traced is not None and workload.canonical(traced) != workload.canonical(out):
            rec["kinds"].append("trace_mismatch")
    rec["failed"] = any(k not in checks.KNOWN_LIMITS for k in rec["kinds"])
    return rec


def pin_to_one_cpu():
    """Run on the first allowed CPU only, with every child process.

    The CPUs of a shared host can differ in speed by half at the same moment
    (a busy sibling thread), and the scheduler moves a process between them.
    Pinned, the ops and the reference loop that measures the machine's speed
    share one CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    pin_to_one_cpu()
    args = parse_args(argv)
    if args.seconds < 0:
        raise SystemExit("error: --seconds must not be negative")
    workload, first = set_up(args)
    own_setup = time.perf_counter() - T_START
    import report

    # the set-up's own slowdown, read right after it
    references = [report.reference_s() for _ in range(SETUP_REFERENCES)]
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup, "slowdown": report.slowdown(references)}))
        return 0

    import members
    import ops

    setups = [(own_setup, report.slowdown(references))]
    spans = ops.Spans() if args.trace else None
    records, described = [], []
    since_reference = 0.0
    rnd, items = 0, first
    begin = time.perf_counter()
    while True:
        for item in items:
            described.append(f"r{rnd}:{item[0]}:{members.describe(item[1])}")
            rec = run_op(workload, item, rnd, len(records), spans)
            rec["reference"] = len(references) - 1  # the sample taken just before it
            records.append(rec)
            since_reference += rec["plain_s"]
            if since_reference >= REFERENCE_EVERY_S:
                references.append(report.reference_s())
                since_reference = 0.0
        if time.perf_counter() - begin >= args.seconds:
            break
        rnd += 1
        items = workload.round(args.seed, rnd)
    # before the set-up children run, so that on `cli` only discflow processes count
    rss_mb = report.peak_rss_mb(workload.peak_rss_of_children)
    if since_reference:
        references.append(report.reference_s())
    report.set_slowdowns(records, references)
    if spans is None:
        setups += child_setups(args)
    setup_s = statistics.median(s / slowdown for s, slowdown in setups)
    raw_setup_s = statistics.median(s for s, _ in setups)

    kinds: dict = {}
    for rec in records:
        for kind in rec["kinds"]:
            kinds[kind] = kinds.get(kind, 0) + 1
    failed = sum(rec["failed"] for rec in records)
    plain = [rec["plain_s"] for rec in records]
    tags = [tag for rec in records for tag in rec.get("orbit_tags", ())]
    op_tail = report.tail(plain)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": rnd + 1, "ops": len(records),
        "setups": [{"s": s, "slowdown": slowdown} for s, slowdown in setups],
        "slowdown": sum(plain) / sum(rec["plain_s"] / rec["slowdown"] for rec in records),
        "reference_samples_s": references,
        "unadjusted": {k: m["value"] for k, m in
                       report.end_to_end(raw_setup_s, records, rss_mb, adjusted=False).items()},
        "op_s.tail": {"percentile": op_tail[0], "value": op_tail[1], "samples": op_tail[2]}
        if op_tail else None,
        "failed_frac": failed / len(records), "failure_kinds": kinds,
        "inconclusive_frac": tags.count("inconclusive") / len(tags) if tags else None,
        "environment": report.environment(ROOT, args.seed), "members": described,
        "errors": [rec["error"] for rec in records if "error" in rec][:3],
    }
    if spans is None:
        metrics = report.end_to_end(setup_s, records, rss_mb)
    else:
        probes = {
            "interp_s": ops.time_subprocess(ROOT, "pass", PROBE_REPEATS),
            "import_s": ops.time_subprocess(ROOT, "import discflow.cli", PROBE_REPEATS),
        }
        metrics = report.per_layer(spans.records, records, probes)

    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "metrics": metrics, "ops": records,
                   "spans": spans.records if spans else []}, fh, default=str)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
