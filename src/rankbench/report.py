"""Assembly of the analysis products into stable, machine-readable outputs.

The report body is built entirely from JSON-native values so that emitting
and re-parsing it reproduces the report field for field, and so the JSON
bytes are a pure function of the inputs (sorted keys, shortest round-trip
float repr).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .model import AnalysisConfig, Dataset, write_csv
from .ranking import (
    RobustRanking,
    empirical_win_fractions,
    inversion_count,
    robust_ranking,
    tied_pair_count,
)
from .resampling import ScoreMatrix
from .scoring import OfficialRanking, compute_scores, official_ranking, resolve_mechanism
from .sensitivity import FLAG_NAMES, SensitivityReport
from .stats import holm_steps, nearest_rank_index, percentile_ci

__all__ = [
    "build_report",
    "emit_csv",
    "emit_json",
    "emit_plot_data",
]

PLOT_DATA_HEADER = "solver,official_rank,official_score,median_score,ci_lower,ci_upper"


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
        "instances": {instance: f.as_dict() for instance, f in extras.flags.items()},
    }


def _diagnostics_for(
    subset: tuple[str, ...],
    official: OfficialRanking,
    robust: RobustRanking,
    solvers: dict,
) -> dict:
    count, pairs = inversion_count(official, robust, subset)
    # Integer spans, so the mean is their exact sum divided once.
    spans = [solvers[s]["rank_q75"] - solvers[s]["rank_q25"] for s in subset]
    return {
        "depth": len(subset),
        "solvers": list(subset),
        "groups": len({robust.group_index[s] for s in subset}),
        "tied_pairs": tied_pair_count(robust, subset),
        "inversions": count,
        "inversion_pairs": [list(pair) for pair in pairs],
        "mean_rank_iqr": sum(spans) / len(spans),
    }


def build_report(
    d: Dataset,
    cfg: AnalysisConfig,
    m: ScoreMatrix,
    extras: SensitivityReport | None = None,
) -> dict:
    """The canonical report of one (dataset, config, matrix), as JSON-native
    values: what :func:`emit_json` writes and :func:`emit_csv` and
    :func:`emit_plot_data` read.

    ``official`` lists solvers in tie-broken order; ``solvers`` carries the
    per-solver statistics; ``diagnostics`` holds the group/tie/inversion/
    rank-IQR table for the full field and the top-10 / top-3 prefixes,
    recomputable from the other sections.  The matrix must have been
    generated under the same config; a seed, stratification or mechanism
    mismatch is an error.
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

    scores = compute_scores(d, mech)
    official = official_ranking(scores, d, cfg.tiebreak)
    wins = empirical_win_fractions(m)
    robust = robust_ranking(m, cfg.alpha)

    # Every per-solver replicate statistic is a row of the sorted columns.
    sorted_scores = np.sort(m.scores, axis=0)
    sorted_ranks = np.sort(m.replicate_ranks, axis=0)
    median = sorted_scores[nearest_rank_index(0.5, m.k) - 1].tolist()
    rank_q25, rank_median, rank_q75 = (
        sorted_ranks[nearest_rank_index(q, m.k) - 1].tolist() for q in (0.25, 0.5, 0.75)
    )
    solvers = {}
    for j, s in enumerate(d.solvers):
        ci = percentile_ci(sorted_scores[:, j], cfg.alpha)
        solvers[s] = {
            "official_rank": official.ranks[s],
            "official_score": scores[s],
            "median_score": median[j],
            "ci_lower": ci.lower,
            "ci_upper": ci.upper,
            "win_fraction": wins[s],
            "rank_q25": rank_q25[j],
            "rank_median": rank_median[j],
            "rank_q75": rank_q75[j],
            "group": robust.group_index[s],
            "fractional_rank": robust.fractional_rank[s],
        }

    return {
        "config": {
            "mechanism": mech.id,
            "replicates": cfg.replicates_k,
            "alpha": cfg.alpha,
            "master_seed": cfg.master_seed,
            "stratified": cfg.stratified,
            "tiebreak": list(cfg.tiebreak),
        },
        "dataset": {
            "solvers": len(d.solvers),
            "runs": len(d.runs),
            "instances": len(d.instances),
            "strata": len(d.stratum_order),
            "cutoff_seconds": None if math.isinf(d.cutoff) else d.cutoff,
        },
        "official": [
            {"solver": s, "rank": official.ranks[s], "score": scores[s]}
            for s in official.order
        ],
        "solvers": solvers,
        "win_fractions": wins,
        "groups": [
            {
                "index": g.index,
                "fractional_rank": g.fractional_rank,
                "members": list(g.members),
            }
            for g in robust.groups
        ],
        "iterations": [
            {
                "winner": record.winner,
                "members": list(record.members),
                "tests": _holm_rows(record.p_values, cfg.alpha),
            }
            for record in robust.iteration_log
        ],
        "diagnostics": {
            name: _diagnostics_for(official.top(depth), official, robust, solvers)
            for name, depth in (("all", len(d.solvers)), ("top10", 10), ("top3", 3))
        },
        "sensitivity": None if extras is None else _sensitivity_obj(extras),
    }


def canonical_json(obj) -> str:
    """Sorted keys, two-space indent, shortest round-trip floats."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def emit_json(r: dict, path: str | Path) -> None:
    Path(path).write_text(canonical_json(r), encoding="utf-8")


def emit_plot_data(r: dict, path: str | Path, top: int = 10) -> None:
    """CI chart data for the first ``top`` officially ranked solvers."""
    if top < 1:
        raise ValueError(f"top must be positive, got {top}")
    header = PLOT_DATA_HEADER.split(",")
    write_csv(
        path,
        header,
        (
            [row["solver"], *(r["solvers"][row["solver"]][f] for f in header[1:])]
            for row in r["official"][:top]
        ),
    )


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


def emit_csv(r: dict, directory: str | Path) -> list[Path]:
    """Write the report sections as CSV tables under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name: str, header: str, rows) -> None:
        path = directory / name
        write_csv(path, header.split(","), rows)
        written.append(path)

    emit(
        "official.csv",
        "solver,rank,score",
        ([row["solver"], row["rank"], row["score"]] for row in r["official"]),
    )
    emit(
        "solvers.csv",
        "solver," + ",".join(_SOLVER_CSV_FIELDS),
        (
            [row["solver"], *(r["solvers"][row["solver"]][f] for f in _SOLVER_CSV_FIELDS)]
            for row in r["official"]
        ),
    )
    emit(
        "groups.csv",
        "group,fractional_rank,solver",
        (
            [g["index"], g["fractional_rank"], member]
            for g in r["groups"]
            for member in g["members"]
        ),
    )
    emit(
        "iterations.csv",
        "iteration,winner,solver,p_value,threshold,rejected",
        (
            [i, it["winner"], t["solver"], t["p_value"], t["threshold"], int(t["rejected"])]
            for i, it in enumerate(r["iterations"], start=1)
            for t in it["tests"]
        ),
    )
    emit(
        "diagnostics.csv",
        "section,depth,groups,tied_pairs,inversions,mean_rank_iqr",
        (
            [name, d["depth"], d["groups"], d["tied_pairs"], d["inversions"], d["mean_rank_iqr"]]
            for name, d in r["diagnostics"].items()
        ),
    )
    if r["sensitivity"] is not None:
        emit(
            "sensitivity.csv",
            "instance," + ",".join(FLAG_NAMES),
            (
                [instance, *(int(f[name]) for name in FLAG_NAMES)]
                for instance, f in r["sensitivity"]["instances"].items()
            ),
        )
    return written
