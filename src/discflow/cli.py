"""Command-line surface: decide, compactify, blowup, verify, portrait.

Reports go to --out (or stdout); errors go to stderr only.  Exit codes for
`decide`: 0 global center, 1 center but not global, 2 no center, 3 bad
input.  `verify` mirrors its verdict the same way.  Every command exits 3,
with one `error:` line and no report, on bad input; for `blowup` that
includes a chain `desing.run_chain` refuses ("chain failed: ...").  Each
step in `--steps` takes a fixed number of arguments (see `desing.STEPS`).
"""

from __future__ import annotations

import argparse
import json
import sys

from .family import FamilyParams, build_system, center_cases, global_cases
from .poly import NotDivisible, rat

# Each command imports the layers it runs, so `decide` loads neither the charts
# nor the orbit engine.

EXIT_GLOBAL = 0
EXIT_NOT_GLOBAL = 1
EXIT_NO_CENTER = 2
EXIT_BAD_INPUT = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_BAD_INPUT):
        super().__init__(message)
        self.code = code


def _load_params(path: str) -> FamilyParams:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return FamilyParams.from_json(text)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except (ValueError, TypeError, RecursionError) as exc:  # RecursionError: deep nesting
        raise CliError(f"bad parameter file {path}: {exc}") from exc


def _emit(payload, out_path: str | None) -> None:
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _parse_steps(raw: str) -> list[tuple]:
    """Split 'name:arg:...' tokens; desing.apply_step checks and converts them."""
    steps = [tuple(token.strip().split(":")) for token in raw.split(",") if token.strip()]
    if not steps:
        raise CliError("empty step list")
    return steps


def _chart_from_flag(raw: str):
    from .compactify import ChartId

    try:
        return ChartId(raw.upper())
    except ValueError as exc:
        raise CliError(f"unknown chart {raw!r}") from exc


def _config_from_args(args):
    from .flow import IntegratorConfig

    kwargs = {}
    if args.tol is not None:
        kwargs["section_closure_tol"] = args.tol
    if args.max_time is not None:
        kwargs["max_time"] = args.max_time
    try:
        return IntegratorConfig(**kwargs)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _radii_from_args(args) -> tuple | None:
    if args.radii is None:
        return None
    try:
        radii = tuple(float(rat(tok)) for tok in args.radii.split(",") if tok.strip())
    except (ValueError, OverflowError) as exc:
        raise CliError(f"bad radii list {args.radii!r}: {exc}") from exc
    if not radii or any(r <= 0 for r in radii):
        raise CliError(f"bad radii list {args.radii!r}")
    return radii


def cmd_decide(args) -> int:
    params = _load_params(args.params)
    center = center_cases(params)
    global_report = global_cases(params)
    if global_report.is_global:
        verdict, code = "global-center", EXIT_GLOBAL
    elif center.is_center:
        verdict, code = "center-not-global", EXIT_NOT_GLOBAL
    else:
        verdict, code = "no-center", EXIT_NO_CENTER
    _emit(
        {
            "params": params.to_json(),
            "center": center.to_json(),
            "global": global_report.to_json(),
            "verdict": verdict,
        },
        args.out,
    )
    return code


def cmd_compactify(args) -> int:
    from .compactify import chart_field, infinite_equilibria

    params = _load_params(args.params)
    vf = build_system(params)
    chart = _chart_from_flag(args.chart)
    cf = chart_field(vf, chart)
    report = infinite_equilibria(vf)
    _emit(
        {
            "params": params.to_json(),
            "chart_field": cf.to_json(),
            "infinity": report.to_json(),
        },
        args.out,
    )
    return 0


def cmd_blowup(args) -> int:
    from .compactify import chart_field
    from .desing import ChainTooDeep, run_chain

    params = _load_params(args.params)
    vf = build_system(params)
    chart = _chart_from_flag(args.chart)
    cf = chart_field(vf, chart)
    steps = _parse_steps(args.steps)
    try:
        chain = run_chain(cf.field, steps)
    except (NotDivisible, ValueError, ChainTooDeep) as exc:
        raise CliError(f"chain failed: {exc}") from exc
    payload = chain.to_json(("u", "v"))
    payload["chart"] = chart.value
    payload["n_used"] = cf.n_used
    _emit(payload, args.out)
    return 0


def _global_verdict(args):
    """The parameters, the config and the global-center verdict of `verify` or `portrait`."""
    from .flow import global_center_verdict

    params, cfg = _load_params(args.params), _config_from_args(args)
    try:
        return params, cfg, global_center_verdict(params, cfg, sample_radii=_radii_from_args(args))
    except OverflowError as exc:
        raise CliError(f"parameters beyond float range: {exc}") from exc


def cmd_verify(args) -> int:
    params, cfg, verdict = _global_verdict(args)
    _emit({"params": params.to_json(), "config": vars(cfg) | {}, **verdict.to_json()}, args.out)
    if verdict.tag == "global-center-consistent":
        return EXIT_GLOBAL
    if verdict.tag == "not-global":
        return EXIT_NOT_GLOBAL
    return EXIT_NO_CENTER


def cmd_portrait(args) -> int:
    from .portrait import PortraitSpec, render_portrait

    try:
        spec = PortraitSpec(width=args.width, height=args.height)
    except ValueError as exc:
        raise CliError(f"bad portrait size {exc}") from exc
    params, cfg, verdict = _global_verdict(args)
    svg = render_portrait(build_system(params), verdict, verdict.infinity, spec, cfg)
    _emit(svg, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discflow",
        description="Center and global-center analysis of a cubic planar family",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, chart=False, steps=False, numeric=False, size=False):
        p.add_argument("--params", required=True, help="JSON file with a1..d2 as 'p/q' strings")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        if chart:
            p.add_argument("--chart", default="u1", help="local chart (u1 or u2)")
        if steps:
            p.add_argument(
                "--steps",
                required=True,
                help="comma list: blowup | rescale:VAR:K | twist:A | shear:B | translate:X:Y",
            )
        if numeric:
            p.add_argument("--tol", type=float, default=None, help="section closure tolerance")
            p.add_argument("--max-time", type=float, default=None, help="integration horizon")
            p.add_argument("--radii", default=None, help="comma list of sample radii")
        if size:
            p.add_argument("--width", type=int, default=640)
            p.add_argument("--height", type=int, default=640)

    p_decide = sub.add_parser("decide", help="exact center / global-center decision")
    common(p_decide)
    p_decide.set_defaults(func=cmd_decide)

    p_comp = sub.add_parser("compactify", help="chart field and infinite equilibria")
    common(p_comp, chart=True)
    p_comp.set_defaults(func=cmd_compactify)

    p_blow = sub.add_parser("blowup", help="run a blow-up chain in a chart")
    common(p_blow, chart=True, steps=True)
    p_blow.set_defaults(func=cmd_blowup)

    p_verify = sub.add_parser("verify", help="numerical global-center verdict")
    common(p_verify, numeric=True)
    p_verify.set_defaults(func=cmd_verify)

    p_portrait = sub.add_parser("portrait", help="SVG phase portrait on the disc")
    common(p_portrait, numeric=True, size=True)
    p_portrait.set_defaults(func=cmd_portrait)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
