"""Assembly of the analysis products into stable, machine-readable outputs.

The report body is built entirely from JSON-native values so that emitting
and re-parsing it reproduces the report field for field, and so the JSON
bytes are a pure function of the inputs (sorted keys, shortest round-trip
float repr).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import AnalysisConfig, Dataset
from .ranking import (
    RobustRanking,
    empirical_win_fractions,
    inversion_count,
    mean_rank_iqr,
    robust_ranking,
    tied_pair_count,
)
from .resampling import ScoreMatrix
from .scoring import OfficialRanking, compute_scores, official_ranking, resolve_mechanism
from .sensitivity import FLAG_NAMES, SensitivityReport
from .stats import holm_steps, nearest_rank_quantile, percentile_ci

__all__ = [
    "AnalysisReport",
    "build_report",
    "emit_csv",
    "emit_json",
    "emit_plot_data",
    "report_json_obj",
]

PLOT_DATA_HEADER = "solver,official_rank,official_score,median_score,ci_lower,ci_upper"


@dataclass(frozen=True)
class AnalysisReport:
    """All analysis products, held as JSON-native structures.

    ``official`` lists solvers in tie-broken order; ``solvers`` carries the
    per-solver statistics; ``diagnostics`` holds the group/tie/inversion/
    rank-IQR table for the full field and the top-10 / top-3 prefixes,
    recomputable from the other sections.
    """

    config: dict
    dataset: dict
    official: list
    solvers: dict
    win_fractions: dict
    groups: list
    iterations: list
    diagnostics: dict
    sensitivity: dict | None


def _holm_rows(p_values: dict[str, float], alpha: float) -> list[dict]:
    """One grouping round's tests in Holm order, keyed by solver."""
    solvers = list(p_values)
    return [
        {
            "solver": solvers[step.index],
            "p_value": step.p_value,
            "threshold": step.threshold,
            "rejected": step.rejected,
        }
        for step in holm_steps(list(p_values.values()), alpha)
    ]


def _sensitivity_obj(extras: SensitivityReport) -> dict:
    return {
        "counts": dict(extras.counts),
        "depths": dict(extras.depths),
        "instances": {
            instance: {name: bool(getattr(f, name)) for name in FLAG_NAMES}
            for instance, f in extras.flags.items()
        },
    }


def _diagnostics_for(
    subset: tuple[str, ...],
    official: OfficialRanking,
    robust: RobustRanking,
    m: ScoreMatrix,
) -> dict:
    count, pairs = inversion_count(official, robust, subset)
    return {
        "depth": len(subset),
        "solvers": list(subset),
        "groups": len({robust.group_index[s] for s in subset}),
        "tied_pairs": tied_pair_count(robust, subset),
        "inversions": count,
        "inversion_pairs": [list(pair) for pair in pairs],
        "mean_rank_iqr": mean_rank_iqr(m, subset),
    }


def build_report(
    d: Dataset,
    cfg: AnalysisConfig,
    m: ScoreMatrix,
    extras: SensitivityReport | None = None,
) -> AnalysisReport:
    """Assemble every analysis product for one (dataset, config, matrix).

    The matrix must have been generated under the same config; a seed,
    stratification or mechanism mismatch is an error.
    """
    mech = resolve_mechanism(cfg.mechanism)
    expected = {
        "master_seed": cfg.master_seed,
        "stratified": cfg.stratified,
        "mechanism": mech.id,
    }
    if dict(m.provenance) != expected:
        raise ValueError(
            f"score matrix provenance {m.provenance} does not match config {expected}"
        )
    if m.solver_order != d.solvers:
        raise ValueError("score matrix solver order does not match the dataset")

    sv = compute_scores(d, mech)
    official = official_ranking(sv, d, cfg.tiebreak)
    wins = empirical_win_fractions(m)
    robust = robust_ranking(m, cfg.alpha)

    solvers = {}
    for s in d.solvers:
        scores = np.sort(m.column(s))
        ranks = np.sort(m.rank_column(s))
        ci = percentile_ci(scores, cfg.alpha)
        solvers[s] = {
            "official_rank": official.ranks[s],
            "official_score": sv.scores[s],
            "median_score": nearest_rank_quantile(scores, 0.5),
            "ci_lower": ci.lower,
            "ci_upper": ci.upper,
            "win_fraction": wins[s],
            "rank_q25": int(nearest_rank_quantile(ranks, 0.25)),
            "rank_median": int(nearest_rank_quantile(ranks, 0.5)),
            "rank_q75": int(nearest_rank_quantile(ranks, 0.75)),
            "group": robust.group_index[s],
            "fractional_rank": robust.fractional_rank[s],
        }

    diagnostics = {
        "all": _diagnostics_for(official.order, official, robust, m),
        "top10": _diagnostics_for(official.top(min(10, len(d.solvers))), official, robust, m),
        "top3": _diagnostics_for(official.top(min(3, len(d.solvers))), official, robust, m),
    }

    return AnalysisReport(
        config={
            "mechanism": mech.id,
            "replicates": cfg.replicates_k,
            "alpha": cfg.alpha,
            "master_seed": cfg.master_seed,
            "stratified": cfg.stratified,
            "tiebreak": list(cfg.tiebreak),
        },
        dataset={
            "solvers": len(d.solvers),
            "runs": len(d.runs),
            "instances": len(d.instances),
            "strata": len(d.stratum_order),
            "cutoff_seconds": None if math.isinf(d.cutoff) else d.cutoff,
        },
        official=[
            {"solver": s, "rank": official.ranks[s], "score": sv.scores[s]}
            for s in official.order
        ],
        solvers=solvers,
        win_fractions=dict(wins.fractions),
        groups=[
            {
                "index": g.index,
                "fractional_rank": g.fractional_rank,
                "members": list(g.members),
            }
            for g in robust.groups
        ],
        iterations=[
            {
                "winner": record.winner,
                "members": list(record.members),
                "tests": _holm_rows(record.p_values, cfg.alpha),
            }
            for record in robust.iteration_log
        ],
        diagnostics=diagnostics,
        sensitivity=None if extras is None else _sensitivity_obj(extras),
    )


def report_json_obj(r: AnalysisReport) -> dict:
    return {
        "config": r.config,
        "dataset": r.dataset,
        "official": r.official,
        "solvers": r.solvers,
        "win_fractions": r.win_fractions,
        "groups": r.groups,
        "iterations": r.iterations,
        "diagnostics": r.diagnostics,
        "sensitivity": r.sensitivity,
    }


def canonical_json(obj) -> str:
    """Sorted keys, two-space indent, shortest round-trip floats."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def emit_json(r: AnalysisReport, path: str | Path) -> None:
    Path(path).write_text(canonical_json(report_json_obj(r)), encoding="utf-8")


def emit_plot_data(r: AnalysisReport, path: str | Path, top: int = 10) -> None:
    """CI chart data for the first ``top`` officially ranked solvers."""
    if top < 1:
        raise ValueError(f"top must be positive, got {top}")
    lines = [PLOT_DATA_HEADER]
    for row in r.official[:top]:
        s = row["solver"]
        stats = r.solvers[s]
        lines.append(
            ",".join(
                [
                    s,
                    str(stats["official_rank"]),
                    repr(float(stats["official_score"])),
                    repr(float(stats["median_score"])),
                    repr(float(stats["ci_lower"])),
                    repr(float(stats["ci_upper"])),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_SOLVER_CSV_FIELDS = (
    "official_rank",
    "official_score",
    "median_score",
    "ci_lower",
    "ci_upper",
    "win_fraction",
    "rank_q25",
    "rank_median",
    "rank_q75",
    "group",
    "fractional_rank",
)


def emit_csv(r: AnalysisReport, directory: str | Path) -> list[Path]:
    """Write the report sections as CSV tables under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name: str, header: str, rows) -> None:
        path = directory / name
        body = "\n".join([header, *rows])
        path.write_text(body + "\n", encoding="utf-8")
        written.append(path)

    emit(
        "official.csv",
        "solver,rank,score",
        (f"{row['solver']},{row['rank']},{row['score']!r}" for row in r.official),
    )
    emit(
        "solvers.csv",
        "solver," + ",".join(_SOLVER_CSV_FIELDS),
        (
            s + "," + ",".join(str(r.solvers[s][f]) for f in _SOLVER_CSV_FIELDS)
            for s in (row["solver"] for row in r.official)
        ),
    )
    emit(
        "groups.csv",
        "group,fractional_rank,solver",
        (
            f"{g['index']},{g['fractional_rank']!r},{member}"
            for g in r.groups
            for member in g["members"]
        ),
    )
    emit(
        "iterations.csv",
        "iteration,winner,solver,p_value,threshold,rejected",
        (
            f"{i},{it['winner']},{t['solver']},{t['p_value']!r},"
            f"{t['threshold']!r},{int(t['rejected'])}"
            for i, it in enumerate(r.iterations, start=1)
            for t in it["tests"]
        ),
    )
    emit(
        "diagnostics.csv",
        "section,depth,groups,tied_pairs,inversions,mean_rank_iqr",
        (
            f"{name},{d['depth']},{d['groups']},{d['tied_pairs']},"
            f"{d['inversions']},{d['mean_rank_iqr']!r}"
            for name, d in r.diagnostics.items()
        ),
    )
    if r.sensitivity is not None:
        emit(
            "sensitivity.csv",
            "instance," + ",".join(FLAG_NAMES),
            (
                instance + "," + ",".join(str(int(f[name])) for name in FLAG_NAMES)
                for instance, f in r.sensitivity["instances"].items()
            ),
        )
    return written
