"""Leave-one-instance-out fragility analysis of the official ranking.

Each instance is removed with all of its seeds, the competition is
re-scored on the remainder, and the resulting ranking is compared to the
baseline: over the full listing and over the top-10 / top-3 prefixes,
distinguishing composition changes (the prefix set differs) from pure
order changes (same set, different sequence).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import AnalysisConfig, Dataset, write_csv
from .scoring import OfficialRanking, Scorer, ScoringError, drop_one_totals, ranking_rows

__all__ = [
    "InstanceFlags",
    "SensitivityReport",
    "aggregate_json_obj",
    "leave_one_out_analysis",
    "prefix_changes",
    "write_flags_csv",
]

FLAG_NAMES = ("any_change", "top10_comp", "top10_order", "top3_comp", "top3_order")


@dataclass(frozen=True)
class InstanceFlags:
    """Change flags for one removed instance."""

    any_change: bool
    top10_comp: bool
    top10_order: bool
    top3_comp: bool
    top3_order: bool

    def as_dict(self) -> dict[str, bool]:
        return {name: getattr(self, name) for name in FLAG_NAMES}


@dataclass(frozen=True, eq=False)
class SensitivityReport:
    """Per-instance flags, aggregate counts, and the baseline ranking.

    ``depths`` records the prefix lengths actually compared (10 and 3,
    clamped to the solver count).
    """

    baseline: OfficialRanking
    flags: dict[str, InstanceFlags]
    counts: dict[str, int]
    depths: dict[str, int]


def prefix_changes(
    base: np.ndarray, listings: np.ndarray, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """Classify how the first ``depth`` listed solvers moved in each row.

    ``base`` is one listing of solver indices and ``listings`` a (rows x S)
    array of them.  A set difference between the prefixes is a composition
    change, a reordering of the same set an order change; the two returned
    bool arrays are never both true.
    """
    top = listings[:, :depth]
    comp = (np.sort(top, axis=1) != np.sort(base[:depth])).any(axis=1)
    moved = (top != base[:depth]).any(axis=1)
    return comp, moved & ~comp


def leave_one_out_analysis(d: Dataset, cfg: AnalysisConfig) -> SensitivityReport:
    """Remove each instance in turn and compare the re-scored listing.

    Row 0 scores every run (the baseline); row ``j + 1`` drops instance
    ``j``.  Every row is rounded once, exactly as the official scores are
    (:func:`~rankbench.scoring.drop_one_totals`); all rows are ranked in
    one call.
    """
    if len(d.instances) < 2:
        raise ValueError("leave-one-out analysis needs at least 2 instances")

    n = len(d.runs)
    scorer = Scorer(d, cfg.mechanism, cfg.tiebreak)
    # Every kept set is a subset of these runs, so one check covers them all.
    message = scorer.missing(np.arange(n, dtype=np.int64))
    if message is not None:
        raise ScoringError(message)
    scores, chains, overflow = scorer.rows(drop_one_totals)
    if overflow is not None:
        row, message = overflow
        prefix = f"without instance {d.instances[row - 1]!r}: " if row else ""
        raise ScoringError(prefix + message)

    listings, ranks = ranking_rows(d.solvers, scores, chains)
    base, variants = listings[0], listings[1:]
    depth10 = min(10, len(d.solvers))
    depth3 = min(3, len(d.solvers))
    columns = dict(
        zip(
            FLAG_NAMES,
            (
                (variants != base).any(axis=1),
                *prefix_changes(base, variants, depth10),
                *prefix_changes(base, variants, depth3),
            ),
        )
    )
    flags = {
        instance: InstanceFlags(**{name: bool(col[j]) for name, col in columns.items()})
        for j, instance in enumerate(d.instances)
    }
    return SensitivityReport(
        baseline=OfficialRanking.from_row(d.solvers, base, ranks[0]),
        flags=flags,
        counts={name: int(col.sum()) for name, col in columns.items()},
        depths={"top10": depth10, "top3": depth3},
    )


def write_flags_csv(report: SensitivityReport, path: str | Path) -> None:
    """Per-instance flag table, one 0/1 row per removed instance."""
    write_csv(
        path,
        ["instance", *FLAG_NAMES],
        ([instance, *map(int, f.as_dict().values())] for instance, f in report.flags.items()),
    )


def aggregate_json_obj(report: SensitivityReport) -> dict:
    """Aggregate block: counts per flag plus the compared prefix depths."""
    return {
        "instances": len(report.flags),
        "counts": dict(report.counts),
        "depths": dict(report.depths),
    }
