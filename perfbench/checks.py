"""Output checks.  Each returns the failure kinds it found (empty when correct).

Kinds that make an op fail:

- `raised`            the op raised (recorded by the runner).
- `oracle_disagree`   the verdict tag is not the one `global_cases` gives:
                      "global-center-consistent" on a global member and
                      "not-global" on any other.  "inconclusive" is always a
                      disagreement, since every panel member has a verdict.
- `closure_over_tol`  a periodic sample closes at or above section_closure_tol.
- `witness_missing`   a "not-global" verdict has neither an escaping sample
                      nor an extra equilibrium at its witness.
- `svg_malformed`     the portrait does not parse as XML.
- `chart_identity`    a chart field disagrees, at exact rational points, with
                      the defining U1/U2 (and V1/V2) formula, or a CLI chart
                      report disagrees with the in-process one.
- `infinity_root`     a reported infinite equilibrium does not zero the
                      chart polynomial, exactly or by a sign change.
- `exit_code`         `decide` exits other than the oracle says, or
                      `blowup` / `compactify` exit or print other than the
                      in-process pipeline.

`escape_false_negative` is counted but does not fail the op: a member of a
stratum marked as a known escape-radius false negative (and only such a member)
whose fan has an orbit leaving the escape radius gets "not-global" with that
orbit as witness.  The README documents this limit of the fixed radius.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from fractions import Fraction

from discflow import ChartId, global_cases

KNOWN_LIMITS = ("escape_false_negative",)

# v != 0 everywhere: the chart maps need 1/v.
_CHART_POINTS = [(Fraction(u), Fraction(v)) for u, v in
                 ((0, 1), (1, 2), (-3, 1), (Fraction(2, 3), -1), (5, Fraction(-1, 4)))]


def check_verdict(params, verdict, closure_tol: float, escape_fn: bool = False) -> list[str]:
    """`escape_fn`: the member is a known escape-radius false negative."""
    kinds = []
    expected = "global-center-consistent" if global_cases(params).is_global else "not-global"
    escaping = [pt for pt, v in verdict.samples if v.tag == "escaping"]
    if verdict.tag != expected:
        known = escape_fn and verdict.tag == "not-global" and escaping and verdict.witness == escaping[0]
        kinds.append("escape_false_negative" if known else "oracle_disagree")
    if any(v.tag == "periodic" and not v.closure_error < closure_tol for _, v in verdict.samples):
        kinds.append("closure_over_tol")
    if verdict.tag == "not-global":
        witness = None if verdict.witness is None else tuple(verdict.witness)
        extra = [tuple(p) for p in verdict.extra_equilibria]
        if witness is None or (witness not in [tuple(p) for p in escaping] and witness not in extra):
            kinds.append("witness_missing")
    return kinds


def check_svg(svg: str) -> list[str]:
    try:
        root = ET.fromstring(svg)
    except ET.ParseError:
        return ["svg_malformed"]
    return [] if root.tag.endswith("svg") else ["svg_malformed"]


def _chart_formula(vf, chart: ChartId, n: int, u: Fraction, v: Fraction):
    """(u', v') of the chart at (u, v), straight from the definition."""
    if chart in (ChartId.U1, ChartId.V1):
        x, y = 1 / v, u / v
        big_p, big_q = vf.p.evaluate(x, y), vf.q.evaluate(x, y)
        du, dv = v**n * (big_q - u * big_p), -(v ** (n + 1)) * big_p
    else:
        x, y = u / v, 1 / v
        big_p, big_q = vf.p.evaluate(x, y), vf.q.evaluate(x, y)
        du, dv = v**n * (big_p - u * big_q), -(v ** (n + 1)) * big_q
    sign = -1 if chart in (ChartId.V1, ChartId.V2) and (n - 1) % 2 else 1
    return sign * du, sign * dv


def check_charts(vf, charts: dict) -> list[str]:
    """`charts` maps a chart name to its ChartField."""
    for name, cf in charts.items():
        chart = ChartId(name)
        for u, v in _CHART_POINTS:
            got = (cf.field.p.evaluate(u, v), cf.field.q.evaluate(u, v))
            if got != _chart_formula(vf, chart, cf.n_used, u, v):
                return ["chart_identity"]
    return []


def _infinity_polys(vf, n: int) -> tuple[list[Fraction], Fraction]:
    """U1's u-equation on v = 0, q_n(1, u) - u*p_n(1, u), as coefficients, and
    the coefficient of y**n in p_n, which vanishes iff U2's origin is an
    equilibrium."""
    p_n, q_n = vf.p.homogeneous_part(n), vf.q.homogeneous_part(n)
    coeffs = [Fraction(0)] * (n + 2)
    for (_, j), c in q_n.terms.items():
        coeffs[j] += c
    for (_, j), c in p_n.terms.items():
        coeffs[j + 1] -= c
    return coeffs, p_n.coefficient(0, n)


def _eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _eval_surd(coeffs, a: Fraction, b: Fraction, r: Fraction) -> tuple[Fraction, Fraction]:
    """Exact value at a + b*sqrt(r), as (A, B) meaning A + B*sqrt(r)."""
    acc_a, acc_b = Fraction(0), Fraction(0)
    for c in reversed(coeffs):
        acc_a, acc_b = acc_a * a + acc_b * b * r + c, acc_a * b + acc_b * a
    return acc_a, acc_b


def _derivative(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:]


def _is_root(coeffs, root, multiplicity: int) -> bool:
    if root.kind == "rational":
        return _eval(coeffs, root.a) == 0
    if root.kind == "surd":
        return _eval_surd(coeffs, root.a, root.b, root.r) == (0, 0)
    # a root of multiplicity m is a simple root of the (m-1)-th derivative
    for _ in range(multiplicity - 1):
        coeffs = _derivative(coeffs)
    lo, hi = _eval(coeffs, root.lo), _eval(coeffs, root.hi)
    return lo == 0 or hi == 0 or (lo > 0) != (hi > 0)


def check_infinity(vf, report) -> list[str]:
    g1, p_top = _infinity_polys(vf, report.n_used)
    if report.line_of_equilibria:
        return [] if not any(g1) and p_top == 0 else ["infinity_root"]
    for eq in report.equilibria:
        if eq.chart is ChartId.U2:
            ok = eq.u.kind == "rational" and eq.u.a == 0 and p_top == 0
        else:
            ok = _is_root(g1, eq.u, eq.multiplicity)
        if not ok:
            return ["infinity_root"]
    return []


def check_audit(out: dict) -> list[str]:
    charts = {name: cf for name, (cf, _) in out["charts"].items()}
    return check_charts(out["vf"], charts) + check_infinity(out["vf"], out["infinity"])


def check_cli(kind: str, code: int, stdout: str, allowed: set, expected: str | None) -> list[str]:
    if code not in allowed:
        return ["exit_code"]
    if expected is not None and stdout != expected:
        return ["chart_identity" if kind == "compactify" else "exit_code"]
    return []

