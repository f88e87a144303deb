"""Command-line entry point.

Subcommands: ``analyze`` (full pipeline), ``sensitivity`` (leave-one-out
only), ``score`` (official scores and ranking only), ``matrix`` (dump the
bootstrap score matrix).  Exit codes: 0 success, 1 data or analysis error,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from .model import (
    TIEBREAK_KEYS,
    AnalysisConfig,
    DataError,
    Dataset,
    Mechanism,
    default_stratified,
    load_dataset,
)
from .report import build_report, canonical_json, emit_csv, emit_json, emit_plot_data
from .resampling import generate_score_matrix, write_matrix_csv
from .scoring import MECHANISMS, ScoringError, compute_scores, official_ranking
from .sensitivity import aggregate_json_obj, leave_one_out_analysis, write_flags_csv

__all__ = ["main", "run_cli"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must fit in 64 unsigned bits, got {text}")
    return value


def _alpha(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"alpha must be in (0, 1), got {text}")
    return value


def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="run results file (.csv or .json)")
    parser.add_argument(
        "--config", help="competition config JSON (cutoff, strata, reference data)"
    )
    parser.add_argument(
        "--mechanism",
        required=True,
        choices=tuple(MECHANISMS),
        help="scoring mechanism",
    )
    parser.add_argument(
        "--par-k",
        type=_positive_int,
        default=10,
        metavar="K",
        help="penalty factor for the par_k mechanism (default 10)",
    )
    parser.add_argument(
        "--tiebreak",
        action="append",
        choices=TIEBREAK_KEYS,
        default=None,
        help="tiebreak key appended to the ranking chain (repeatable)",
    )


def _add_sampling_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--replicates",
        type=_positive_int,
        default=10_000,
        metavar="K",
        help="bootstrap replicate count (default 10000)",
    )
    parser.add_argument(
        "--seed", type=_seed, default=0, help="master seed for replicate substreams"
    )
    parser.add_argument(
        "--stratified",
        choices=("auto", "on", "off"),
        default="auto",
        help="per-stratum resampling; auto = on iff the dataset declares >= 2 strata",
    )


def _add_threads_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--threads",
        type=_positive_int,
        default=1,
        help="accepted for compatibility; replicates are generated on one thread, "
        "so it changes neither output nor speed",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankbench",
        description="Bootstrap-based robustness analysis of solver competition rankings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full pipeline: score matrix, ranking, report")
    _add_io_flags(analyze)
    _add_sampling_flags(analyze)
    _add_threads_flag(analyze)
    analyze.add_argument("--alpha", type=_alpha, default=0.05, help="significance level")
    analyze.add_argument("--output", required=True, help="report JSON destination")
    analyze.add_argument(
        "--with-sensitivity",
        action="store_true",
        help="include the leave-one-instance-out analysis in the report",
    )
    analyze.add_argument("--plot-data", help="also write CI chart data CSV here")
    analyze.add_argument(
        "--top",
        type=_positive_int,
        default=10,
        help="row limit for --plot-data (default 10)",
    )
    analyze.add_argument("--csv-dir", help="also write the report sections as CSVs here")

    sens = sub.add_parser("sensitivity", help="leave-one-instance-out analysis only")
    _add_io_flags(sens)
    sens.add_argument("--output", required=True, help="per-instance flags CSV destination")
    sens.add_argument("--json", help="also write the aggregate JSON block here")

    score = sub.add_parser("score", help="official scores and ranking only")
    _add_io_flags(score)
    score.add_argument("--output", help="destination (default: stdout)")

    matrix = sub.add_parser("matrix", help="dump the bootstrap score matrix as CSV")
    _add_io_flags(matrix)
    _add_sampling_flags(matrix)
    _add_threads_flag(matrix)
    matrix.add_argument("--output", required=True, help="matrix CSV destination")

    return parser


def _mechanism(ns: argparse.Namespace) -> Mechanism:
    return Mechanism(ns.mechanism, par_penalty=ns.par_k)


def _tiebreak(ns: argparse.Namespace) -> tuple[str, ...]:
    return tuple(ns.tiebreak) if ns.tiebreak else ()


def _analysis_config(ns: argparse.Namespace, d: Dataset) -> AnalysisConfig:
    if ns.stratified == "auto":
        stratified = default_stratified(d)
    else:
        stratified = ns.stratified == "on"
    return AnalysisConfig(
        mechanism=_mechanism(ns),
        replicates_k=ns.replicates,
        alpha=getattr(ns, "alpha", 0.05),
        master_seed=ns.seed,
        stratified=stratified,
        tiebreak=_tiebreak(ns),
    )


def _cmd_analyze(ns: argparse.Namespace) -> int:
    d = load_dataset(ns.input, config=ns.config)
    cfg = _analysis_config(ns, d)
    m = generate_score_matrix(d, cfg, threads=ns.threads)
    extras = leave_one_out_analysis(d, cfg) if ns.with_sensitivity else None
    report = build_report(d, cfg, m, extras)
    emit_json(report, ns.output)
    if ns.plot_data:
        emit_plot_data(report, ns.plot_data, top=ns.top)
    if ns.csv_dir:
        emit_csv(report, ns.csv_dir)
    return 0


def _cmd_sensitivity(ns: argparse.Namespace) -> int:
    d = load_dataset(ns.input, config=ns.config)
    cfg = AnalysisConfig(mechanism=_mechanism(ns), tiebreak=_tiebreak(ns))
    rep = leave_one_out_analysis(d, cfg)
    write_flags_csv(rep, ns.output)
    block = canonical_json(aggregate_json_obj(rep))
    if ns.json:
        with open(ns.json, "w", encoding="utf-8") as fh:
            fh.write(block)
    sys.stdout.write(block)
    return 0


def _cmd_score(ns: argparse.Namespace) -> int:
    d = load_dataset(ns.input, config=ns.config)
    mech = _mechanism(ns)
    scores = compute_scores(d, mech)
    official = official_ranking(scores, d, _tiebreak(ns))
    obj = {
        "mechanism": mech.id,
        "ranking": [
            {"solver": s, "rank": official.ranks[s], "score": scores[s]}
            for s in official.order
        ],
        "scores": scores,
    }
    text = canonical_json(obj)
    if ns.output:
        with open(ns.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_matrix(ns: argparse.Namespace) -> int:
    d = load_dataset(ns.input, config=ns.config)
    cfg = _analysis_config(ns, d)
    m = generate_score_matrix(d, cfg, threads=ns.threads)
    write_matrix_csv(m, ns.output)
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "sensitivity": _cmd_sensitivity,
    "score": _cmd_score,
    "matrix": _cmd_matrix,
}


def run_cli(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[ns.command](ns)
    except (DataError, ScoringError, ValueError, OSError) as exc:
        print(f"rankbench: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
