"""Command-line front end.

Subcommands: ``analyze`` (paired or replicated CSV in, stats out),
``simulate`` (write one synthetic case's data, reports and plots),
``table1`` (the four canonical cases side by side), ``predict-cov``
(closed-form covariance between difference and weighted average) and
``replicate-variance`` (pooled within-subject variances). Only this module opens files.

Exit codes: 0 success, 2 usage or validation problem, 3 numerical
degeneracy (rank-deficient draw, constant axis).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .agreement import (
    AxisKind,
    Direction,
    WeightPair,
    WithinSubjectVariance,
    analyze,
    estimate_variances,
    paired_from_replicates,
    predicted_covariance,
)
from .io import (
    emit_report,
    format_table,
    parse_paired,
    parse_replicated,
    render_plot_svg,
    write_paired,
)
from .numerics import DegenerateDataError
from .synthesis import CASE_PRESETS, _run_both_axes, preset_config, preset_results

__all__ = ["main", "run", "build_parser"]


def _read(path) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="")


def _print_result(result, confidence: float) -> None:
    if result.axis is AxisKind.WEIGHTED_AVERAGE:
        w = result.weights
        axis_desc = f"weighted average (alpha={w.alpha:.6g}, beta={w.beta:.6g})"
    else:
        axis_desc = "arithmetic mean"
    fit = result.fit
    print(f"n: {result.n}")
    print(f"direction: {result.direction.value}")
    print(f"axis: {axis_desc}")
    print(f"bias: {result.bias:.6g}")
    print(f"loa: [{result.loa_low:.6g}, {result.loa_high:.6g}]")
    print(f"r: {fit.r:.6g}   p: {fit.p_value:.6g}")
    print(f"k: {fit.slope:.6g}   {100 * confidence:.12g}% CI: "
          f"({fit.ci_low:.6g}, {fit.ci_high:.6g})")


def _cmd_analyze(args) -> int:
    has_sw = args.swa is not None or args.swb is not None
    if has_sw and (args.swa is None or args.swb is None):
        raise ValueError("--swa and --swb must be given together")
    if has_sw and args.replicates is not None:
        raise ValueError("--swa/--swb conflict with --replicates; pick one variance source")
    if args.input is None and args.replicates is None:
        raise ValueError("provide --input (paired CSV) or --replicates (replicated CSV)")

    reps = None if args.replicates is None else parse_replicated(_read(args.replicates))
    sample = (paired_from_replicates(reps) if args.input is None
              else parse_paired(_read(args.input)))

    variances = None
    if args.classic:
        if has_sw or (reps is not None and args.input is not None):
            print(
                "warning: --classic ignores the supplied within-subject variances",
                file=sys.stderr,
            )
    elif has_sw:
        variances = WithinSubjectVariance(s_wa2=args.swa, s_wb2=args.swb)
    elif reps is not None:
        variances = estimate_variances(reps)
    else:
        raise ValueError("weighted analysis needs --replicates or --swa/--swb "
                         "(or pass --classic for the mean axis)")

    result = analyze(
        sample,
        axis=AxisKind.ARITHMETIC_MEAN if variances is None else AxisKind.WEIGHTED_AVERAGE,
        direction=args.direction,
        confidence=args.confidence,
        variances=variances,
    )
    _print_result(result, args.confidence)
    if args.report is not None:
        _write(args.report, emit_report(result))
    if args.plot is not None:
        _write(args.plot, render_plot_svg(result))
    return 0


def _cmd_simulate(args) -> int:
    config = preset_config(
        args.case,
        n=args.n,
        sigma_c=args.sigma_c,
        seed=args.seed,
        exact_moments=args.exact_moments == "true",
    )
    sample, classic, weighted = _run_both_axes(config, args.direction)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "pairs.csv", write_paired(sample))
    _write(out / "report_mean.json", emit_report(classic))
    _write(out / "report_weighted.json", emit_report(weighted))
    _write(out / "plot_mean.svg", render_plot_svg(classic))
    _write(out / "plot_weighted.svg", render_plot_svg(weighted))
    print(f"case {args.case}: wrote pairs.csv, 2 reports and 2 plots to {out}")
    return 0


def _cmd_table1(args) -> int:
    print(format_table(preset_results()), end="")
    return 0


def _cmd_predict_cov(args) -> int:
    value = predicted_covariance(
        WeightPair(alpha=args.alpha, beta=args.beta),
        WithinSubjectVariance(s_wa2=args.swa, s_wb2=args.swb),
        direction=args.direction,
    )
    print(f"{value:.12g}")
    return 0


def _cmd_replicate_variance(args) -> int:
    v = estimate_variances(parse_replicated(_read(args.input)))
    print(f"s_w2 A: {v.s_wa2:.12g}\ns_w2 B: {v.s_wb2:.12g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="methodagree",
        description="Agreement analysis for measurement methods of unequal precision.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a paired or replicated dataset")
    p.add_argument("--input", help="paired CSV (subject,a,b)")
    p.add_argument("--replicates", help="replicated CSV (subject,method,replicate,value)")
    p.add_argument("--swa", type=float, help="within-subject variance of method A")
    p.add_argument("--swb", type=float, help="within-subject variance of method B")
    p.add_argument("--classic", action="store_true",
                   help="difference vs arithmetic mean (ignores variances)")
    p.add_argument("--direction", choices=[d.value for d in Direction], default="b-a")
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--plot", help="write an SVG plot here")
    p.add_argument("--report", help="write a JSON report here")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="generate one synthetic case")
    p.add_argument("--case", required=True, choices=sorted(CASE_PRESETS))
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--sigma-c", dest="sigma_c", type=float, default=10.0)
    p.add_argument("--exact-moments", dest="exact_moments", choices=("true", "false"),
                   default="true")
    p.add_argument("--direction", choices=[d.value for d in Direction], default="b-a")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("table1", help="run the four canonical cases and print the table")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("predict-cov",
                       help="closed-form covariance of difference vs weighted average")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--swa", type=float, required=True)
    p.add_argument("--swb", type=float, required=True)
    p.add_argument("--direction", choices=[d.value for d in Direction], default="a-b")
    p.set_defaults(func=_cmd_predict_cov)

    p = sub.add_parser("replicate-variance",
                       help="pooled within-subject variance per method")
    p.add_argument("--input", required=True,
                   help="replicated CSV (subject,method,replicate,value)")
    p.set_defaults(func=_cmd_replicate_variance)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DegenerateDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
