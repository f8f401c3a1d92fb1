"""Tests of the benchmark itself: seeded generators and output checks.

    python3 -m pytest -q perfbench/selftest.py

Every check must fire on a planted bad output, so that a clean benchmark run
means the outputs were checked, not that the checks were vacuous.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pytest  # noqa: E402

import checks  # noqa: E402
import members  # noqa: E402
import ops  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402
from discflow import (  # noqa: E402
    ChartId,
    FamilyParams,
    GlobalVerdict,
    OrbitVerdict,
    Poly2,
    VectorField,
    build_system,
    center_cases,
    chart_field,
    global_cases,
    infinite_equilibria,
)
from discflow.compactify import ChartField, InfinityEquilibrium, InfinityReport  # noqa: E402
from discflow.roots import RealRoot  # noqa: E402

TOL = ops.CFG.section_closure_tol
GLOBAL = FamilyParams.make(b1="1/20", c1="-1/5", d1="3/20")
NOT_GLOBAL = FamilyParams.make(a1=1, b1=1, c1=1, d1=3)


# -- generators ---------------------------------------------------------------------


@pytest.mark.parametrize("panel", [members.VERIFY_GLOBAL, members.PORTRAIT_CENTER])
def test_panel_is_deterministic_per_seed(panel):
    assert members.panel_round(panel, 7, 2) == members.panel_round(panel, 7, 2)
    assert members.panel_round(panel, 7, 2) != members.panel_round(panel, 8, 2)


def test_free_draws_are_deterministic_per_seed():
    first = members.free_round(7, 3, 4, set())
    assert first == members.free_round(7, 3, 4, set())
    assert first != members.free_round(8, 3, 4, set())


def test_members_of_a_run_are_distinct():
    drawn = [p for r in range(6) for _, p in members.panel_round(members.VERIFY_GLOBAL, 1, r)]
    assert len(set(drawn)) == len(drawn)
    seen: set = set()
    drawn = [p for r in range(6) for _, p in members.free_round(1, r, 4, seen)]
    assert len(set(drawn)) == len(drawn) == len(seen)
    assert members.WARMUP not in seen


def test_membership_is_exact():
    for _, p in members.panel_round(members.VERIFY_GLOBAL, 3, 0):
        assert global_cases(p).is_global
    for _, p in members.panel_round(members.PORTRAIT_CENTER, 3, 0):
        assert center_cases(p).is_center and not global_cases(p).is_global
    assert any(infinite_equilibria(build_system(p)).line_of_equilibria
               for _, p in members.panel_round(members.PORTRAIT_CENTER, 3, 0))
    drawn = members.free_round(3, 0, 4, set())
    assert {center_cases(p).is_center for _, p in drawn} == {True, False}


def test_stratum_check_rejects_a_member_outside_it():
    with pytest.raises(AssertionError):
        members.check_stratum(NOT_GLOBAL, members.VERIFY_GLOBAL[0])


# -- verdict checks -----------------------------------------------------------------


def _verdict(tag, witness, orbits, extra=()):
    points = [(0.5 * (k + 1), 0.0) for k in range(len(orbits))]
    return GlobalVerdict(tag, witness, tuple(zip(points, orbits)), tuple(extra), False)


PERIODIC = OrbitVerdict.periodic(6.28, 1e-9)
ESCAPING = OrbitVerdict.escaping(3.0)


INCONCLUSIVE = OrbitVerdict.inconclusive("no section return within max_time")


def test_correct_verdicts_pass():
    assert checks.check_verdict(GLOBAL, _verdict("global-center-consistent", None, [PERIODIC] * 2), TOL) == []
    assert checks.check_verdict(NOT_GLOBAL, _verdict("not-global", (1.0, 0.0), [PERIODIC, ESCAPING]), TOL) == []


def test_flipped_verdict_tag_is_an_oracle_disagreement():
    flipped = _verdict("global-center-consistent", None, [PERIODIC] * 2)
    assert checks.check_verdict(NOT_GLOBAL, flipped, TOL) == ["oracle_disagree"]
    extra_witness = _verdict("not-global", (3.0, 4.0), [PERIODIC], extra=[(3.0, 4.0)])
    assert checks.check_verdict(GLOBAL, extra_witness, TOL) == ["oracle_disagree"]


def test_an_engine_that_escapes_or_gives_up_everywhere_disagrees():
    everywhere_escaping = _verdict("not-global", (0.5, 0.0), [ESCAPING] * 4)
    everywhere_inconclusive = _verdict("inconclusive", None, [INCONCLUSIVE] * 4)
    for st, p in members.panel_round(members.VERIFY_GLOBAL, 1, 0):
        check = lambda v: checks.check_verdict(p, v, TOL, st.escape_fn)  # noqa: E731
        assert check(everywhere_inconclusive) == ["oracle_disagree"], st.label
        expected = ["escape_false_negative"] if st.escape_fn else ["oracle_disagree"]
        assert check(everywhere_escaping) == expected, st.label
    assert [st.label for st in members.VERIFY_GLOBAL if st.escape_fn] == ["e-fn", "f-fn-a1"]
    for st, p in members.panel_round(members.PORTRAIT_CENTER, 1, 0):
        assert checks.check_verdict(p, everywhere_inconclusive, TOL, st.escape_fn) == ["oracle_disagree"]


def test_escape_is_a_known_limit_only_on_a_known_false_negative():
    escaped = _verdict("not-global", (1.0, 0.0), [PERIODIC, ESCAPING])
    kinds = checks.check_verdict(GLOBAL, escaped, TOL, escape_fn=True)
    assert kinds == ["escape_false_negative"]
    assert set(kinds) <= set(checks.KNOWN_LIMITS)
    assert checks.check_verdict(GLOBAL, escaped, TOL) == ["oracle_disagree"]
    # a fixed false negative passes
    fixed = _verdict("global-center-consistent", None, [PERIODIC] * 2)
    assert checks.check_verdict(GLOBAL, fixed, TOL, escape_fn=True) == []


def test_open_orbit_fails_closure():
    loose = OrbitVerdict.periodic(6.28, 10 * TOL)
    assert checks.check_verdict(GLOBAL, _verdict("global-center-consistent", None, [loose]), TOL) == [
        "closure_over_tol"]


def test_not_global_without_witness():
    assert checks.check_verdict(NOT_GLOBAL, _verdict("not-global", None, [ESCAPING]), TOL) == ["witness_missing"]
    assert checks.check_verdict(NOT_GLOBAL, _verdict("not-global", (9.0, 9.0), [ESCAPING]), TOL) == [
        "witness_missing"]


def test_svg_check():
    assert checks.check_svg('<svg xmlns="http://www.w3.org/2000/svg"><rect/></svg>\n') == []
    assert checks.check_svg('<svg xmlns="http://www.w3.org/2000/svg"><rect/>\n') == ["svg_malformed"]
    assert checks.check_svg("<html></html>") == ["svg_malformed"]


# -- exact checks -------------------------------------------------------------------

SAMPLE = FamilyParams.make(a1=1, a2="-1/2", b1=2, b2=1, c1="1/3", c2=-1, d1=1, d2="3/2")


@pytest.mark.parametrize("chart", ["U1", "U2", "V1", "V2"])
def test_chart_identity_fires_on_a_perturbed_coefficient(chart):
    vf = build_system(SAMPLE)
    cf = chart_field(vf, ChartId(chart))
    assert checks.check_charts(vf, {chart: cf}) == []
    terms = dict(cf.field.q.terms)
    key = min(terms)
    terms[key] += Fraction(1, 7)
    bad = ChartField(cf.chart, VectorField(cf.field.p, Poly2(terms)), cf.n_used)
    assert checks.check_charts(vf, {chart: bad}) == ["chart_identity"]


def _report_with_each_root_kind():
    """Infinity reports from free draws until U1 had rational, surd and interval roots."""
    found = {}
    for rnd in range(40):
        for _, p in members.free_round(11, rnd, 4, set()):
            vf = build_system(p)
            rep = infinite_equilibria(vf)
            for eq in rep.equilibria:
                if eq.chart is ChartId.U1:
                    found.setdefault(eq.u.kind, (vf, rep))
        if len(found) == 3:
            return found
    raise AssertionError(f"only root kinds {sorted(found)} found")


def test_infinity_roots_check_every_root_kind():
    for kind, (vf, rep) in _report_with_each_root_kind().items():
        assert checks.check_infinity(vf, rep) == [], kind
        moved = []
        for eq in rep.equilibria:
            u = eq.u
            if u.kind == kind and eq.chart is ChartId.U1:
                shift = Fraction(1, 7919)
                u = {"rational": lambda r: RealRoot.rational(r.a + shift),
                     "surd": lambda r: RealRoot.surd(r.a + shift, r.b, r.r),
                     "interval": lambda r: RealRoot.interval(r.lo + shift, r.hi + shift)}[kind](u)
            moved.append(InfinityEquilibrium(eq.chart, u, eq.multiplicity))
        bad = InfinityReport(tuple(moved), rep.line_of_equilibria, rep.n_used)
        assert checks.check_infinity(vf, bad) == ["infinity_root"], kind


def test_infinity_check_rejects_a_false_u2_point_and_a_false_line():
    vf = build_system(FamilyParams.make(a1=1, a2=1))  # quadratic: y^2 in p, so U2's origin moves
    rep = infinite_equilibria(vf)
    assert checks.check_infinity(vf, rep) == []
    assert not any(eq.chart is ChartId.U2 for eq in rep.equilibria)
    u2 = InfinityEquilibrium(ChartId.U2, RealRoot.rational(0), 1)
    bad = InfinityReport(rep.equilibria + (u2,), False, rep.n_used)
    assert checks.check_infinity(vf, bad) == ["infinity_root"]
    assert checks.check_infinity(vf, InfinityReport((), True, rep.n_used)) == ["infinity_root"]


def test_audit_output_passes_its_checks():
    for _, p in members.free_round(5, 0, 2, set()):
        out = ops.audit(p)
        assert checks.check_audit(out) == []
        assert ops.audit_json(out) == ops.audit_json(ops.audit(p, ops.Spans()))


# -- cli checks ---------------------------------------------------------------------


def test_cli_check_fires_on_wrong_exit_code_and_output():
    allowed, expected = ops.cli_expected("decide", (), NOT_GLOBAL)
    assert allowed == {1}
    assert checks.check_cli("decide", 1, "{}", allowed, expected) == []
    assert checks.check_cli("decide", 0, "{}", allowed, expected) == ["exit_code"]
    allowed, expected = ops.cli_expected("compactify", ("--chart", "u1"), SAMPLE)
    assert checks.check_cli("compactify", 0, expected, allowed, expected) == []
    assert checks.check_cli("compactify", 0, expected.replace("u", "w"), allowed, expected) == [
        "chart_identity"]
    assert checks.check_cli("compactify", 3, "", allowed, expected) == ["exit_code"]
    allowed, expected = ops.cli_expected("blowup", ("--chart", "u2", "--steps", "x"), SAMPLE)
    assert checks.check_cli("blowup", 1, expected or "", allowed, expected) == ["exit_code"]


# -- the runner ---------------------------------------------------------------------


class _Planted:
    def __init__(self, plain, traced):
        self._plain, self._traced = plain, traced

    def plain(self, item):
        return self._plain()

    def traced(self, item, span):
        return self._traced()

    def check(self, item, out):
        return []

    def canonical(self, out):
        return json.dumps(out)

    def orbit_tags(self, out):
        return []


def _boom():
    raise ZeroDivisionError("planted")


def test_runner_records_raised_and_trace_mismatch():
    item = ("x", GLOBAL, None)
    rec = run.run_op(_Planted(_boom, lambda: 1), item, 0, 0, None)
    assert rec["kinds"] == ["raised"] and rec["failed"]
    rec = run.run_op(_Planted(lambda: 1, lambda: 2), item, 0, 0, ops.Spans())
    assert rec["kinds"] == ["trace_mismatch"] and rec["failed"]
    rec = run.run_op(_Planted(lambda: 1, lambda: 1), item, 0, 0, ops.Spans())
    assert rec["kinds"] == [] and not rec["failed"]


def test_traced_verdict_matches_the_library_byte_for_byte():
    params = {st.label: p for st, p in members.panel_round(members.PORTRAIT_CENTER, 1, 0)}["i-escape"]  # cheap
    plain = ops.verdict_plain(params)
    spans = ops.Spans()
    assert ops.canonical(ops.verdict_traced(params, spans).to_json()) == ops.canonical(plain.to_json())
    assert sum(s["name"] == "flow.orbit_verdict" for s in spans.records) == 32


def test_end_to_end_times_are_given_at_nominal_speed():
    nominal = report.REFERENCE_NOMINAL_S
    recs = [{"plain_s": 1.0, "reference": 0}, {"plain_s": 4.0, "reference": 1}]
    report.set_slowdowns(recs, [2 * nominal, 2 * nominal, 6 * nominal])
    assert [rec["slowdown"] for rec in recs] == pytest.approx([2.0, 4.0])
    raw = report.end_to_end(0.5, recs, 100.0, adjusted=False)
    adjusted = report.end_to_end(0.5, recs, 100.0)
    assert raw["op_s.p50"]["value"] == 2.5 and raw["ops_per_s"]["value"] == 0.4
    assert adjusted["op_s.p50"]["value"] == pytest.approx(0.75)
    assert adjusted["ops_per_s"]["value"] == pytest.approx(2 / 1.5)
    assert adjusted["peak_rss_mb"] == raw["peak_rss_mb"]


def test_tail_needs_ten_samples_beyond():
    assert report.tail(list(range(19))) is None
    assert report.tail(list(range(20)))[0] == 50.0
    assert report.tail([float(v) for v in range(1000)])[:2] == (99.0, 989.0)


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(report.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(report.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
