"""Command-line front end.

Subcommands: ``estimate`` (one dataset through one estimator), ``simulate``
(replication studies against known truth), ``verify-eif`` (numerical
derivative versus influence function over the catalog), and ``report``
(render simulation JSON as a text table and optional SVG histogram).

Every JSON payload embeds the tool version, the fully resolved
configuration, the seed, and the wall clock; the ``result`` block is a
deterministic function of the embedded configuration.  Exit codes: 0
success, 1 validation problem, 2 numerical failure (a logistic fit that did
not converge, running out of memory and numpy's LinAlgError and
FloatingPointError included), 3 verification failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from typing import Optional

import numpy as np

from . import __version__
from .config import RunConfig, parse_config_file, resolve_method
from .distributions import load_csv
from .errors import (
    ConfigError,
    InfluenceLabError,
    NumericalError,
    ValidationError,
    VerificationError,
    exit_code_for,
)
from .estimands import from_config
from .estimation import DEFAULT_ALPHA, DEFAULT_FOLDS, LearnerSettings, estimate
from .gateaux import (
    DEFAULT_TOLERANCE,
    SMOOTH_CASES,
    SMOOTH_TOLERANCE,
    SWEEP_PLAN,
    SweepResult,
    oracle_sweep,
    smooth_sweep,
)
from .simulation import (
    ARM_SETTINGS,
    dgp_by_name,
    double_robustness_experiment,
    run_replications,
)

TOOL_NAME = "influence-lab"


class _Parser(argparse.ArgumentParser):
    """Argument errors are validation errors, not usage-code-2 exits."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def _envelope(command: str, config: dict, seed: int, result, started: float) -> dict:
    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "command": command,
        "config": config,
        "seed": seed,
        "wall_clock_seconds": round(time.perf_counter() - started, 3),
        "result": result,
    }


def _emit(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _cmd_estimate(args) -> int:
    started = time.perf_counter()
    cfg: RunConfig = parse_config_file(args.config)
    if args.data is not None:
        if not cfg.roles:
            raise ConfigError(
                "--data needs role.<column> entries in the config's [data] section"
            )
        cfg = dataclasses.replace(cfg, data_path=args.data, dgp_name=None, n=None)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if cfg.data_path is not None:
        dataset = load_csv(cfg.data_path, cfg.roles)
    else:
        dataset = dgp_by_name(cfg.dgp_name).generate(cfg.n, cfg.seed)
    report = estimate(
        cfg.spec,
        dataset,
        method=cfg.method,
        settings=cfg.settings,
        folds=cfg.folds,
        seed=cfg.seed,
        alpha=cfg.alpha,
    )
    payload = _envelope(
        "estimate", cfg.resolved(), cfg.seed,
        report.to_json(include_eif=args.emit_eif), started,
    )
    _emit(payload, args.out or cfg.out)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    started = time.perf_counter()
    method = resolve_method(args.method)
    dgp = dgp_by_name(args.dgp)
    spec = from_config(args.estimand)
    config = {
        "dgp": args.dgp,
        "dgp_params": dgp.params(),
        "estimand": spec.describe(),
        "method": method,
        "n": args.n,
        "reps": args.reps,
        "seed": args.seed,
        "folds": args.folds,
        "alpha": DEFAULT_ALPHA,
    }
    if args.arms:
        arms = tuple(a.strip() for a in args.arms.split(","))
        if args.dgp != "ate-nonlinear":
            raise ConfigError(
                "--arms runs the misspecification experiment, which is defined "
                "on the ate-nonlinear process"
            )
        if spec.name != "ate":
            raise ConfigError(
                f"--arms runs the misspecification experiment, which estimates "
                f"the ate, not {spec.name}"
            )
        reports = double_robustness_experiment(
            n=args.n, R=args.reps, seed=args.seed, arms=arms,
            method=method, folds=args.folds,
        )
        config["arms"] = list(arms)
        config["learners"] = {arm: ARM_SETTINGS[arm].to_json() for arm in reports}
        result = {arm: rep.to_json(include_draws=True) for arm, rep in reports.items()}
    else:
        settings = LearnerSettings()
        rep = run_replications(
            dgp, spec, method=method, settings=settings, n=args.n, R=args.reps,
            seed=args.seed, folds=args.folds,
        )
        config["learners"] = settings.to_json()
        result = rep.to_json(include_draws=True)
    _emit(_envelope("simulate", config, args.seed, result, started), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify-eif
# ---------------------------------------------------------------------------


def _sweep_json(result: SweepResult, tolerance: float) -> dict:
    return {
        "checked": result.checked,
        "skipped": result.skipped,
        "worst_rel_error": result.worst_rel_error,
        "tolerance": tolerance,
        "failures": len(result.failures(tolerance)),
        "reports": [r.to_json() for r in result.reports],
    }


def _cmd_verify_eif(args) -> int:
    started = time.perf_counter()
    for flag, value, low in (("--trials", args.trials, 1), ("--seed", args.seed, 0)):
        if value < low:
            raise ConfigError(f"{flag} must be at least {low}, got {value}")
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0.0):
        raise ConfigError(f"--tolerance must be a finite number >= 0, got {args.tolerance!r}")
    only = None if args.spec == "all" else args.spec
    discrete_names = {entry.split(":")[0] for entry, _ in SWEEP_PLAN}
    smooth_names = {spec.name for spec, _, _ in SMOOTH_CASES}
    if only is not None and only not in discrete_names | smooth_names:
        raise ValidationError(
            f"no verification case covers estimand {args.spec!r}; "
            f"available: {', '.join(sorted(discrete_names | smooth_names))}"
        )
    t0_result = t1_result = smooth_result = SweepResult()
    if only is None or only in discrete_names:
        sweep = dict(trials=args.trials, seed=args.seed, keep="worst", only=only)
        t0_result = oracle_sweep(**sweep)
        t1_result = oracle_sweep(at_t=1.0, **sweep)
    if only is None or only in smooth_names:
        smooth_result = smooth_sweep(only)

    config = {
        "spec": args.spec,
        "trials": args.trials,
        "seed": args.seed,
        "tolerance": args.tolerance,
        "smooth_tolerance": SMOOTH_TOLERANCE,
    }
    result = {
        "point_mass_t0": _sweep_json(t0_result, args.tolerance),
        "identity_t1": _sweep_json(t1_result, args.tolerance),
        "smooth_families": _sweep_json(smooth_result, SMOOTH_TOLERANCE),
    }
    result["failures"] = failures = sum(block["failures"] for block in result.values())
    _emit(_envelope("verify-eif", config, args.seed, result, started), args.out)
    if failures:
        raise VerificationError(
            f"{failures} influence-function check(s) exceeded tolerance"
        )
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

_TABLE_COLUMNS = (
    ("dgp", "dgp", "s"),
    ("estimand", "estimand", "s"),
    ("method", "method", "s"),
    ("arm", "arm", "s"),
    ("n", "n", "d"),
    ("R", "completed", "d"),
    ("bias", "bias", "+.5f"),
    ("sd", "empirical_sd", ".5f"),
    ("mean_se", "mean_se", ".5f"),
    ("coverage", "coverage", ".3f"),
    ("rmse", "rmse", ".5f"),
)


def _report_rows(data) -> list:
    """Normalize report JSON (one report, an arm map, or a list) to a list."""
    if isinstance(data, dict) and "result" in data:
        data = data["result"]
    if isinstance(data, dict) and "bias" in data:
        rows = [data]
    elif isinstance(data, dict):
        rows = list(data.values())
    elif isinstance(data, list):
        rows = data
    else:
        rows = []
    if not rows or not all(isinstance(r, dict) and "bias" in r for r in rows):
        raise ConfigError("report input is not a simulation result payload")
    return rows


def _format_cell(report: dict, source: str, kind: str) -> str:
    if source == "estimand":
        value = report["estimand"]["name"]
    else:
        value = report[source]
    if kind == "s":
        return str(value)
    return format(value, kind)


def render_table(reports: list) -> str:
    header = [label for label, _, _ in _TABLE_COLUMNS]
    rows = [
        [_format_cell(rep, source, kind) for _, source, kind in _TABLE_COLUMNS]
        for rep in reports
    ]
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) for i in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _standardized_draws(reports: list) -> list:
    draws = []
    for rep in reports:
        if "psi_hats" not in rep or "ses" not in rep:
            raise ConfigError(
                "report input has no per-replication draws; re-run simulate "
                "so psi_hats and ses are embedded"
            )
        truth = rep["truth"]
        for psi, se in zip(rep["psi_hats"], rep["ses"]):
            if se > 0:
                draws.append((psi - truth) / se)
    if not draws:
        raise ConfigError("report input contains no usable draws")
    return draws


def render_svg(draws: list, bins: int = 40, span: float = 4.0) -> str:
    """Histogram of standardized estimates with the standard normal curve.

    The histogram is density-scaled so the N(0,1) overlay is directly
    comparable; draws beyond +-span are clipped into the edge bins.
    """
    width, height, margin = 640, 400, 45.0
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    edges = [-span + 2 * span * i / bins for i in range(bins + 1)]
    counts = [0] * bins
    for value in draws:
        idx = int((min(max(value, -span), span) + span) / (2 * span) * bins)
        counts[min(idx, bins - 1)] += 1
    bin_width = 2 * span / bins
    densities = [c / (len(draws) * bin_width) for c in counts]
    peak = max(max(densities), 1.0 / math.sqrt(2 * math.pi)) * 1.1

    def sx(value: float) -> float:
        return margin + (value + span) / (2 * span) * plot_w

    def sy(density: float) -> float:
        return height - margin - density / peak * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for lo, density in zip(edges, densities):
        if density == 0:
            continue
        parts.append(
            f'<rect x="{sx(lo):.2f}" y="{sy(density):.2f}" '
            f'width="{plot_w / bins:.2f}" height="{height - margin - sy(density):.2f}" '
            f'fill="#7aa6c2" stroke="#33536b" stroke-width="0.5"/>'
        )
    curve = []
    steps = 200
    for i in range(steps + 1):
        z = -span + 2 * span * i / steps
        density = math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
        curve.append(f"{sx(z):.2f},{sy(density):.2f}")
    parts.append(
        f'<polyline points="{" ".join(curve)}" fill="none" stroke="#b03a2e" '
        f'stroke-width="1.8"/>'
    )
    axis_y = height - margin
    parts.append(
        f'<line x1="{margin}" y1="{axis_y}" x2="{width - margin}" y2="{axis_y}" '
        f'stroke="black" stroke-width="1"/>'
    )
    for tick in range(-int(span), int(span) + 1):
        x = sx(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{axis_y}" x2="{x:.2f}" y2="{axis_y + 5}" '
            f'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{axis_y + 18}" font-size="11" '
            f'text-anchor="middle" font-family="monospace">{tick}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.2f}" y="{height - 8}" font-size="12" '
        f'text-anchor="middle" font-family="monospace">'
        "(estimate - truth) / estimated se</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_report(args) -> int:
    try:
        with open(args.input) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read report input {args.input!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.input}: not valid JSON: {exc}") from exc
    reports = _report_rows(data)
    table = render_table(reports)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(table)
    else:
        sys.stdout.write(table)
    if args.svg:
        svg = render_svg(_standardized_draws(reports))
        with open(args.svg, "w") as fh:
            fh.write(svg)
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog=TOOL_NAME, description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_est = sub.add_parser("estimate", help="run one estimator on one dataset")
    p_est.add_argument("--config", required=True, help="path to the INI run config")
    p_est.add_argument("--data", help="csv path; overrides the config's [data] path")
    p_est.add_argument("--seed", type=int, help="override the config's seed")
    p_est.add_argument(
        "--emit-eif", action="store_true",
        help="embed the per-row influence values in the JSON output",
    )
    p_est.add_argument("--out", help="write JSON here instead of standard output")
    p_est.set_defaults(func=_cmd_estimate)

    p_sim = sub.add_parser("simulate", help="replication study against known truth")
    p_sim.add_argument("--dgp", required=True, help="data-generating process name")
    p_sim.add_argument("--estimand", default="ate", help="catalog estimand name")
    p_sim.add_argument("--method", default="one-step", help="estimator name")
    p_sim.add_argument("--n", type=int, default=1000, help="sample size per replication")
    p_sim.add_argument("--reps", type=int, default=200, help="number of replications")
    p_sim.add_argument("--seed", type=int, default=0, help="master seed")
    p_sim.add_argument("--folds", type=int, default=DEFAULT_FOLDS, help="cross-fitting folds")
    p_sim.add_argument(
        "--arms",
        help="comma-separated misspecification arms; runs the four-arm experiment",
    )
    p_sim.add_argument("--out", help="write JSON here instead of standard output")
    p_sim.set_defaults(func=_cmd_simulate)

    p_ver = sub.add_parser("verify-eif", help="derivative-vs-EIF verification sweep")
    p_ver.add_argument("--spec", default="all", help="estimand name or 'all'")
    p_ver.add_argument("--trials", type=int, default=50, help="random laws per estimand")
    p_ver.add_argument("--seed", type=int, default=7, help="sweep seed")
    p_ver.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="relative tolerance for the finite-support checks",
    )
    p_ver.add_argument("--out", help="write JSON here instead of standard output")
    p_ver.set_defaults(func=_cmd_verify_eif)

    p_rep = sub.add_parser("report", help="render simulation JSON as table and SVG")
    p_rep.add_argument("--in", dest="input", required=True, help="simulation JSON path")
    p_rep.add_argument("--out", help="write the text table here instead of stdout")
    p_rep.add_argument("--svg", help="write an SVG histogram of standardized errors")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            return args.func(args)
        except (MemoryError, np.linalg.LinAlgError, FloatingPointError) as exc:
            detail = f": {exc}" if str(exc) else ""
            raise NumericalError(f"{type(exc).__name__}{detail}") from exc
    except InfluenceLabError as exc:
        print(f"{TOOL_NAME}: error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
