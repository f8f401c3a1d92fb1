"""The four workloads: members per round, warm-up, the op and its checks.

A workload item is (label, params, extra): `extra` is the member's stratum
for the panel workloads, and for `cli` the argument list, the allowed exit
codes and the expected stdout; for `exact-audit` it is None.  `plain(item)` is
the timed op, `traced(item, span)` rebuilds it from public calls, `check(item,
out)` returns failure kinds and `canonical(out)` the text two outputs must
share byte for byte.  `peak_rss_of_children` says whether the program's peak
RSS is that of the benchmark's child processes rather than its own.
"""

from __future__ import annotations

import json
import os

import checks
import members
import ops
from discflow import build_system, finite_equilibria, global_center_verdict, infinite_equilibria
from discflow.portrait import render_portrait


class VerifyGlobal:
    peak_rss_of_children = False

    def round(self, seed, rnd):
        return [(st.label, p, st) for st, p in members.panel_round(members.VERIFY_GLOBAL, seed, rnd)]

    def warm_up(self):
        # first solve_ivp and first sympy use, on a member outside every panel
        global_center_verdict(members.WARMUP, sample_radii=(0.5,), angles=2)

    def plain(self, item):
        return ops.verdict_plain(item[1])

    def traced(self, item, span):
        return ops.verdict_traced(item[1], span)

    def check(self, item, out):
        return checks.check_verdict(item[1], out, ops.CFG.section_closure_tol, item[2].escape_fn)

    def canonical(self, out):
        return ops.canonical(out.to_json())

    def orbit_tags(self, out):
        return [v.tag for _, v in out.samples]


class PortraitCenter:
    peak_rss_of_children = False

    def round(self, seed, rnd):
        return [(st.label, p, st) for st, p in members.panel_round(members.PORTRAIT_CENTER, seed, rnd)]

    def warm_up(self):
        verdict = global_center_verdict(members.WARMUP, sample_radii=(0.5,), angles=2)
        vf = build_system(members.WARMUP)
        render_portrait(vf, verdict, infinite_equilibria(vf))

    def plain(self, item):
        return ops.portrait_plain(item[1])

    def traced(self, item, span):
        return ops.portrait_traced(item[1], span)

    def check(self, item, out):
        verdict, infinity, svg = out
        vf = build_system(item[1])
        return (checks.check_verdict(item[1], verdict, ops.CFG.section_closure_tol, item[2].escape_fn)
                + checks.check_infinity(vf, infinity) + checks.check_svg(svg))

    def canonical(self, out):
        verdict, infinity, svg = out
        return ops.canonical([verdict.to_json(), infinity.to_json(), svg])

    def orbit_tags(self, out):
        return [v.tag for _, v in out[0].samples]


class ExactAudit:
    per_kind = 4
    peak_rss_of_children = False

    def __init__(self):
        self.seen = set()

    def round(self, seed, rnd):
        drawn = members.free_round(seed, rnd, self.per_kind, self.seen)
        return [(kind, p, None) for kind, p in drawn]

    def warm_up(self):
        ops.audit(members.WARMUP)
        finite_equilibria(build_system(members.WARMUP))

    def plain(self, item):
        return ops.audit(item[1])

    def traced(self, item, span):
        return ops.audit(item[1], span)

    def check(self, item, out):
        return checks.check_audit(out)

    def canonical(self, out):
        return ops.audit_json(out)

    def orbit_tags(self, out):
        return []


class Cli:
    # the discflow subprocesses (warm-up and ops), not the client that checks them
    peak_rss_of_children = True

    def __init__(self, root: str):
        self.root = root
        self.seen = set()
        self.dir = os.path.join(root, "perfbench", "out", "params")

    def write_params(self, tag: str, params) -> str:
        os.makedirs(self.dir, exist_ok=True)
        path = os.path.join(self.dir, f"{tag}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(params.to_json(), fh)
        return os.path.relpath(path, self.root)

    def round(self, seed, rnd):
        """Every command on one member of every kind."""
        items = []
        drawn = members.free_round(seed, rnd, len(ops.CLI_COMMANDS), self.seen)
        for k, (kind, params) in enumerate(drawn):
            command, flags = ops.CLI_COMMANDS[k // len(members.FREE_KINDS)]
            path = self.write_params(f"s{seed}-r{rnd}-{k}-{kind}", params)
            args = [command, "--params", path, *flags]
            items.append((command, params, (args, *ops.cli_expected(command, flags, params))))
        return items

    def warm_up(self):
        path = self.write_params("warmup", members.WARMUP)
        ops.run_cli(self.root, ["decide", "--params", path])

    def plain(self, item):
        return ops.run_cli(self.root, item[2][0])

    def traced(self, item, span):
        with span(f"cli.command.{item[0]}"):
            return ops.run_cli(self.root, item[2][0])

    def check(self, item, out):
        _, allowed, expected = item[2]
        return checks.check_cli(item[0], out[0], out[1], allowed, expected)

    def canonical(self, out):
        return ops.canonical(list(out))

    def orbit_tags(self, out):
        return []


def make(name: str, root: str):
    table = {"verify-global": VerifyGlobal, "portrait-center": PortraitCenter,
             "exact-audit": ExactAudit}
    if name == "cli":
        return Cli(root)
    return table[name]()
