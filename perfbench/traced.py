"""One traced ``rankbench analyze`` invocation, in process.

Usage::

    python3 perfbench/traced.py SPANS_JSON analyze --input ... --output ...

The module-level names each layer calls through are wrapped where the
caller looks them up, then ``rankbench.cli.run_cli`` runs the analyze
command unchanged, so the calls happen in ``_cmd_analyze``'s order and
the report bytes are the untraced ones.  Each wrapped call records a span
(name, start, end, parent, counters); spans stay in memory and are
written to SPANS_JSON once, after the command has finished.  A wrapped
name the package no longer has is listed as absent.

:func:`layer_metrics` turns one invocation's spans into per-layer numbers.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time

__all__ = ["LAYER_METRICS", "Tracer", "layer_metrics"]

# (module, attribute looked up by the caller, span name)
WRAPPED = (
    ("cli", "load_dataset", "model.load_dataset"),
    ("scoring", "run_contributions", "scoring.run_contributions"),
    ("resampling", "run_contributions", "scoring.run_contributions"),
    ("sensitivity", "run_contributions", "scoring.run_contributions"),
    ("report", "official_ranking", "scoring.official_ranking"),
    ("sensitivity", "official_ranking", "scoring.official_ranking"),
    ("cli", "generate_score_matrix", "resampling.generate_score_matrix"),
    ("resampling", "draw_uniform_replicate", "resampling.draw"),
    ("resampling", "draw_stratified_replicate", "resampling.draw"),
    ("resampling", "aggregate_from_counts", "resampling.aggregate"),
    ("resampling", "min_ranks_rows", "resampling.min_ranks"),
    ("cli", "leave_one_out_analysis", "sensitivity.leave_one_out"),
    ("report", "robust_ranking", "ranking.robust_ranking"),
    ("ranking", "bootstrap_p", "stats.bootstrap_p"),
    ("report", "percentile_ci", "stats.percentile_ci"),
    ("cli", "build_report", "report.build_report"),
    ("cli", "emit_json", "report.emit_json"),
)

# Counters taken from a call's arguments and result, per span name.
COUNTERS = {
    "model.load_dataset": lambda args, result: {"rows": len(result.results)},
    "resampling.draw": lambda args, result: {"words": len(result)},
    "sensitivity.leave_one_out": lambda args, result: {"rescorings": len(result.flags)},
    "ranking.robust_ranking": lambda args, result: {"rounds": len(result.iteration_log)},
    "report.emit_json": lambda args, result: {"bytes": os.path.getsize(args[1])},
}

# metric name -> (unit, span name it is derived from)
LAYER_METRICS = {
    "model.load_dataset_s": ("s", "model.load_dataset"),
    "model.rss_growth_mb": ("MB", "model.load_dataset"),
    "model.rows": ("count", "model.load_dataset"),
    "scoring.run_contributions_s": ("s", "scoring.run_contributions"),
    "scoring.official_ranking_s": ("s", "scoring.official_ranking"),
    "scoring.official_ranking_calls": ("count", "scoring.official_ranking"),
    "resampling.generate_score_matrix_s": ("s", "resampling.generate_score_matrix"),
    "resampling.self_s": ("s", "resampling.generate_score_matrix"),
    "resampling.draw_s": ("s", "resampling.draw"),
    "resampling.draw_calls": ("count", "resampling.draw"),
    "resampling.words": ("count", "resampling.draw"),
    "resampling.aggregate_s": ("s", "resampling.aggregate"),
    "resampling.min_ranks_s": ("s", "resampling.min_ranks"),
    "sensitivity.leave_one_out_s": ("s", "sensitivity.leave_one_out"),
    "sensitivity.self_s": ("s", "sensitivity.leave_one_out"),
    "sensitivity.rescorings": ("count", "sensitivity.leave_one_out"),
    "ranking.robust_ranking_s": ("s", "ranking.robust_ranking"),
    "ranking.rounds": ("count", "ranking.robust_ranking"),
    "stats.bootstrap_p_s": ("s", "stats.bootstrap_p"),
    "stats.bootstrap_p_calls": ("count", "stats.bootstrap_p"),
    "stats.percentile_ci_s": ("s", "stats.percentile_ci"),
    "report.build_report_s": ("s", "report.build_report"),
    "report.self_s": ("s", "report.build_report"),
    "report.emit_json_s": ("s", "report.emit_json"),
    "report.bytes": ("bytes", "report.emit_json"),
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder for one single-threaded invocation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.wrapped: set[str] = set()
        self._open: list[int] = []

    def wrap(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            return
        self.wrapped.add(name)
        count = COUNTERS.get(name)
        watch_rss = name == "model.load_dataset"

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = [name, 0, 0, parent, {}]
            self.spans.append(span)
            self._open.append(index)
            rss_before = _maxrss_mb() if watch_rss else 0.0
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._open.pop()
            if count is not None:
                span[4] = count(args, result)
            if watch_rss:
                span[4]["rss_growth_mb"] = _maxrss_mb() - rss_before
            return result

        setattr(module, attr, traced)


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of ``intervals``."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(spans: list[list], absent: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced invocation; absent layers are left out."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))

    def spans_of(name):
        return [(i, s) for i, s in enumerate(spans) if s[0] == name]

    def seconds(name):
        return sum(s[2] - s[1] for _, s in spans_of(name)) / 1e9

    def self_seconds(name):
        own = sum(s[2] - s[1] - _covered(children.get(i, [])) for i, s in spans_of(name))
        return own / 1e9

    def counter(name, key):
        return sum(s[4].get(key, 0) for _, s in spans_of(name))

    first_contrib = spans_of("scoring.run_contributions")[:1]
    values = {
        "model.load_dataset_s": seconds("model.load_dataset"),
        "model.rss_growth_mb": counter("model.load_dataset", "rss_growth_mb"),
        "model.rows": counter("model.load_dataset", "rows"),
        "scoring.run_contributions_s": sum(s[2] - s[1] for _, s in first_contrib) / 1e9,
        "scoring.official_ranking_s": seconds("scoring.official_ranking"),
        "scoring.official_ranking_calls": len(spans_of("scoring.official_ranking")),
        "resampling.generate_score_matrix_s": seconds("resampling.generate_score_matrix"),
        "resampling.self_s": self_seconds("resampling.generate_score_matrix"),
        "resampling.draw_s": seconds("resampling.draw"),
        "resampling.draw_calls": len(spans_of("resampling.draw")),
        "resampling.words": counter("resampling.draw", "words"),
        "resampling.aggregate_s": seconds("resampling.aggregate"),
        "resampling.min_ranks_s": seconds("resampling.min_ranks"),
        "sensitivity.leave_one_out_s": seconds("sensitivity.leave_one_out"),
        "sensitivity.self_s": self_seconds("sensitivity.leave_one_out"),
        "sensitivity.rescorings": counter("sensitivity.leave_one_out", "rescorings"),
        "ranking.robust_ranking_s": seconds("ranking.robust_ranking"),
        "ranking.rounds": counter("ranking.robust_ranking", "rounds"),
        "stats.bootstrap_p_s": seconds("stats.bootstrap_p"),
        "stats.bootstrap_p_calls": len(spans_of("stats.bootstrap_p")),
        "stats.percentile_ci_s": seconds("stats.percentile_ci"),
        "report.build_report_s": seconds("report.build_report"),
        "report.self_s": self_seconds("report.build_report"),
        "report.emit_json_s": seconds("report.emit_json"),
        "report.bytes": counter("report.emit_json", "bytes"),
    }
    return {k: v for k, v in values.items() if LAYER_METRICS[k][1] not in absent}


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    # Imported here: run.py imports this module without the package on its path.
    from rankbench import cli

    tracer = Tracer()
    for module, attr, name in WRAPPED:
        try:
            tracer.wrap(importlib.import_module(f"rankbench.{module}"), attr, name)
        except ModuleNotFoundError:
            continue
    code = cli.run_cli(cli_argv)
    absent = sorted({name for _, _, name in WRAPPED} - tracer.wrapped)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "absent": absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
