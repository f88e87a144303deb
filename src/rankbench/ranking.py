"""Robust grouped ranking over a bootstrap score matrix, plus diagnostics.

The grouping loop: pick the replicate-level winner among the solvers still
in play, test every other remaining solver against it one-sidedly, correct
the family with Holm, fold the non-rejected solvers into the winner's
group, and continue on the rejected rest.  Groups receive fractional
mid-ranks so the rank sum is invariant under grouping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .resampling import ScoreMatrix
from .scoring import OfficialRanking
from .stats import bootstrap_p, holm_bonferroni, nearest_rank_quantile

__all__ = [
    "IterationRecord",
    "RankGroup",
    "RobustRanking",
    "empirical_win_fractions",
    "fractional_ranks",
    "inversion_count",
    "robust_ranking",
    "tied_pair_count",
]


@dataclass(frozen=True)
class RankGroup:
    """One block of statistically indistinguishable solvers.

    Members are ordered by median replicate score descending, then
    solver_id ascending; every member shares ``fractional_rank``.
    """

    index: int
    members: tuple[str, ...]
    fractional_rank: float


@dataclass(frozen=True)
class IterationRecord:
    """One grouping round: the winner, its pairwise p-values against every
    other remaining solver, the Holm-rejected solvers, and the resulting
    group membership."""

    winner: str
    p_values: dict[str, float]
    rejected: tuple[str, ...]
    members: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class RobustRanking:
    """Ordered groups partitioning the solver set, with the grouping log."""

    groups: tuple[RankGroup, ...]
    iteration_log: tuple[IterationRecord, ...]

    @cached_property
    def group_index(self) -> dict[str, int]:
        return {s: g.index for g in self.groups for s in g.members}

    @cached_property
    def fractional_rank(self) -> dict[str, float]:
        return {s: g.fractional_rank for g in self.groups for s in g.members}

    @cached_property
    def solvers(self) -> frozenset[str]:
        return frozenset(self.group_index)


def _first_place_mask(scores: np.ndarray) -> np.ndarray:
    """(k x S) bool: solver ties-or-takes the row maximum score."""
    return scores == scores.max(axis=1, keepdims=True)


def empirical_win_fractions(m: ScoreMatrix) -> dict[str, float]:
    """Share of replicates in which each solver attains the top raw score.

    A replicate's firsts are the solvers no one strictly out-scores in that
    row, ties included, so the fractions can sum past 1.
    """
    counts = _first_place_mask(m.scores).sum(axis=0)
    return {s: float(c) / m.k for s, c in zip(m.solver_order, counts)}


def fractional_ranks(group_sizes: list[int]) -> list[float]:
    """Mid-rank of each group: positions a..b collapse to (a + b) / 2."""
    ranks = []
    start = 1
    for size in group_sizes:
        if size < 1:
            raise ValueError(f"group sizes must be positive, got {size}")
        end = start + size - 1
        ranks.append((start + end) / 2)
        start = end + 1
    return ranks


def robust_ranking(m: ScoreMatrix, alpha: float) -> RobustRanking:
    """Group solvers that cannot be statistically separated from the round
    winner, Holm-corrected at level ``alpha``, iterating on the rest.

    A round's winner places first, ties included, in the most replicates
    among the remaining solvers; ties go to the highest nearest-rank median
    score, then to the smallest solver_id.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    ordered = np.sort(m.scores, axis=0)  # each column sorted once, for its median
    median_of = {
        s: nearest_rank_quantile(ordered[:, j], 0.5) for j, s in enumerate(m.solver_order)
    }

    remaining = list(m.solver_order)
    raw_groups: list[tuple[str, ...]] = []
    log: list[IterationRecord] = []
    while remaining:
        columns = [m.solver_idx(s) for s in remaining]
        firsts = dict(zip(remaining, _first_place_mask(m.scores[:, columns]).sum(axis=0)))
        winner = min(remaining, key=lambda s: (-firsts[s], -median_of[s], s))
        others = [s for s in remaining if s != winner]
        p_values = {s: bootstrap_p(m, winner, s, alpha).p_value for s in others}
        rejected_idx = holm_bonferroni([p_values[s] for s in others], alpha) if others else set()
        rejected = tuple(s for j, s in enumerate(others) if j in rejected_idx)
        members = [winner] + [s for j, s in enumerate(others) if j not in rejected_idx]
        members.sort(key=lambda s: (-median_of[s], s))
        raw_groups.append(tuple(members))
        log.append(
            IterationRecord(
                winner=winner,
                p_values=p_values,
                rejected=rejected,
                members=tuple(members),
            )
        )
        remaining = [s for s in remaining if s in rejected]

    ranks = fractional_ranks([len(g) for g in raw_groups])
    groups = tuple(
        RankGroup(index=i, members=g, fractional_rank=r)
        for i, (g, r) in enumerate(zip(raw_groups, ranks), start=1)
    )
    return RobustRanking(groups=groups, iteration_log=tuple(log))


def _resolve_subset(universe: tuple[str, ...], subset) -> set[str]:
    if subset is None:
        return set(universe)
    subset = set(subset)
    unknown = subset - set(universe)
    if unknown:
        raise ValueError(f"unknown solver ids in subset: {sorted(unknown)}")
    return subset


def tied_pair_count(robust: RobustRanking, subset=None) -> int:
    """Number of within-group solver pairs, optionally restricted."""
    chosen = _resolve_subset(tuple(robust.solvers), subset)
    total = 0
    for group in robust.groups:
        n = sum(1 for s in group.members if s in chosen)
        total += n * (n - 1) // 2
    return total


def inversion_count(
    official: OfficialRanking, robust: RobustRanking, subset=None
) -> tuple[int, list[tuple[str, str]]]:
    """Pairs the two rankings order oppositely.

    A pair (worse, better) is inverted when the official ranks put ``worse``
    strictly below ``better`` but the robust grouping puts ``worse`` in a
    strictly earlier group.  Pairs are listed in official-listing order of
    the better-ranked solver, then of the worse-ranked one.
    """
    if set(official.order) != robust.solvers:
        raise ValueError("official and robust rankings cover different solvers")
    chosen = _resolve_subset(official.order, subset)
    listing = [s for s in official.order if s in chosen]
    pairs = []
    for i, better in enumerate(listing):
        for worse in listing[i + 1 :]:
            if official.ranks[worse] <= official.ranks[better]:
                continue
            if robust.group_index[worse] < robust.group_index[better]:
                pairs.append((worse, better))
    return len(pairs), pairs

