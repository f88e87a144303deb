"""Competition scoring mechanisms and the official-style ranking.

Every mechanism reduces a multiset of runs to one real score per solver,
oriented higher-is-better (penalized-runtime scores are negated).  All
mechanisms are per-run additive: each (solver, run) pair has a fixed
contribution and a multiset is scored by summing (or averaging) the
contributions of its entries, so duplicated entries count twice.

:data:`MECHANISMS` is the one table of mechanisms; official scores,
bootstrap replicates and leave-one-out all score and rank through the
functions of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import Dataset, Mechanism, RunKey, RunRecord

__all__ = [
    "MECHANISMS",
    "MechanismRule",
    "OfficialRanking",
    "ScoreVector",
    "ScoringError",
    "UnknownMechanismError",
    "aggregate_contributions",
    "aggregate_from_counts",
    "compute_scores",
    "find_missing_entry",
    "min_ranks_rows",
    "official_ranking",
    "ranking_rows",
    "resolve_mechanism",
    "run_contributions",
    "tiebreak_run_matrices",
]


class ScoringError(Exception):
    """A mechanism could not be evaluated on the given data."""


class UnknownMechanismError(ScoringError):
    """The mechanism identifier is not one of the supported ids."""


# ---------------------------------------------------------------------------
# The mechanism table


def _solved_within(d: Dataset) -> np.ndarray:
    """(solvers x runs) bool: successful and within the cutoff."""
    return d.success_matrix & (d.cpu_time <= d.cutoff)


def _solved_count(d: Dataset, mech: Mechanism) -> np.ndarray:
    return _solved_within(d).astype(np.float64)


def _optimal_count(d: Dataset, mech: Mechanism) -> np.ndarray:
    return d.optimal_matrix.astype(np.float64)


def _par_k(d: Dataset, mech: Mechanism) -> np.ndarray:
    if mech.par_penalty < 1:
        raise ScoringError(f"par_k penalty must be >= 1, got {mech.par_penalty}")
    if not math.isfinite(d.cutoff):
        raise ScoringError(
            "par_k requires a finite cutoff; provide cutoff_seconds in the config"
        )
    return np.where(_solved_within(d), d.cpu_time, mech.par_penalty * d.cutoff)


def _ipc_quality(d: Dataset, mech: Mechanism) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = d.best_known_vector[None, :] / d.quality
    ratio = np.where(d.quality == 0, np.nan, ratio)
    return np.where(d.success_matrix, ratio, 0.0)


def _ipc_agile(d: Dataset, mech: Mechanism) -> np.ndarray:
    # Runs at or faster than the reference (ratio <= 1) score 1.
    times = np.maximum(d.cpu_time, 1.0)
    ref = np.maximum(d.reference_time_vector, 1.0)[None, :]
    value = 1.0 / (1.0 + np.log10(np.maximum(times / ref, 1.0)))
    return np.where(_solved_within(d), value, 0.0)


def _mean_metric(d: Dataset, mech: Mechanism) -> np.ndarray:
    # Quality is required on every record, solved or not.
    return d.quality.copy()


def _sum(totals: np.ndarray, size: int) -> np.ndarray:
    return totals


def _mean(totals: np.ndarray, size: int) -> np.ndarray:
    return totals / size


def _neg_mean(totals: np.ndarray, size: int) -> np.ndarray:
    return -totals / size


def _why_no_quality_ratio(rec: RunRecord, where: str, rk: RunKey) -> str:
    if rec.quality is None:
        return f"{where} is solved but has no quality value"
    if rec.quality == 0:
        return f"{where} has quality 0 (ratio undefined)"
    return f"no best_known_quality reference for run {rk.label()}"


def _why_no_reference_time(rec: RunRecord, where: str, rk: RunKey) -> str:
    return f"no reference_time reference for run {rk.label()}"


def _why_no_quality(rec: RunRecord, where: str, rk: RunKey) -> str:
    return f"{where} has no quality value"


@dataclass(frozen=True)
class MechanismRule:
    """How one mechanism scores.

    ``contributions`` builds the (|S|, |R|) per-run contribution matrix,
    NaN where a contribution is undefined; ``finish`` turns per-solver
    contribution totals over a multiset of ``size`` entries into scores;
    ``explain_nan`` says why a (record, run) contribution is NaN, for the
    mechanisms that can produce one.

    Cutoff semantics: ``solved_count``, ``par_k`` and ``ipc_agile`` credit
    a run only when it is successful and ``cpu_time <= cutoff``;
    ``optimal_count`` and ``ipc_quality`` ignore ``cpu_time``;
    ``mean_metric`` uses the quality of every record, whatever its status.
    """

    contributions: Callable[[Dataset, Mechanism], np.ndarray]
    finish: Callable[[np.ndarray, int], np.ndarray]
    explain_nan: Callable[[RunRecord, str, RunKey], str] | None = None


MECHANISMS: dict[str, MechanismRule] = {
    "solved_count": MechanismRule(_solved_count, _sum),
    "optimal_count": MechanismRule(_optimal_count, _sum),
    "par_k": MechanismRule(_par_k, _neg_mean),
    "ipc_quality": MechanismRule(_ipc_quality, _sum, _why_no_quality_ratio),
    "ipc_agile": MechanismRule(_ipc_agile, _sum, _why_no_reference_time),
    "mean_metric": MechanismRule(_mean_metric, _mean, _why_no_quality),
}


def resolve_mechanism(mechanism: Mechanism | str) -> Mechanism:
    """The :class:`Mechanism` for an id or mechanism, checked against the table."""
    if isinstance(mechanism, str):
        mechanism = Mechanism(mechanism)
    if mechanism.name not in MECHANISMS:
        raise UnknownMechanismError(f"unknown scoring mechanism {mechanism.name!r}")
    return mechanism


# ---------------------------------------------------------------------------
# Scores


@dataclass(frozen=True)
class ScoreVector:
    """Per-solver scores for one multiset of runs; higher is better."""

    scores: dict[str, float]

    def as_array(self, solver_order: tuple[str, ...]) -> np.ndarray:
        return np.array([self.scores[s] for s in solver_order], dtype=np.float64)


def run_contributions(d: Dataset, mechanism: Mechanism | str) -> np.ndarray:
    """Per-(solver, run) contribution matrix for ``mechanism``.

    Shape (|S|, |R|), float64.  Entries that cannot be evaluated (missing
    quality or reference data) are NaN; they only become an error when a
    scored multiset actually selects them.
    """
    mech = resolve_mechanism(mechanism)
    return MECHANISMS[mech.name].contributions(d, mech)


def aggregate_contributions(
    contributions: np.ndarray, entries: np.ndarray, mechanism: Mechanism
) -> np.ndarray:
    """Score every solver on one multiset given its contribution matrix."""
    if len(entries) == 0:
        return np.zeros(contributions.shape[0])
    totals = contributions[:, entries].sum(axis=1)
    return MECHANISMS[mechanism.name].finish(totals, len(entries))


def aggregate_from_counts(
    clean_contributions: np.ndarray, counts: np.ndarray, mechanism: Mechanism, size: int
) -> np.ndarray:
    """Multiset scores from selection counts (NaN already zeroed).

    ``counts`` is (|R|,) or (rows, |R|); the result transposes contribution
    rows into the trailing axis.
    """
    totals = counts @ clean_contributions.T
    return MECHANISMS[mechanism.name].finish(totals, size)


def find_missing_entry(
    d: Dataset, mechanism: Mechanism, contributions: np.ndarray, entries: np.ndarray
) -> str | None:
    """Message for the first NaN contribution selected by ``entries``, if any."""
    selected = contributions[:, entries]
    if not np.isnan(selected).any():
        return None
    bad = np.argwhere(np.isnan(selected))
    # First failing entry in multiset order, then solver order.
    entry_pos, solver_idx = min((int(e), int(s)) for s, e in bad)
    solver = d.solvers[solver_idx]
    rk = d.runs[int(entries[entry_pos])]
    where = f"solver {solver!r} on run {rk.label()}"
    explain = MECHANISMS[mechanism.name].explain_nan
    return f"{mechanism.name}: {explain(d.results[(solver, rk)], where, rk)}"


def compute_scores(
    d: Dataset, mechanism: Mechanism | str, entries: np.ndarray | None = None
) -> ScoreVector:
    """Score every solver over the run multiset ``entries`` (default: all of R).

    ``entries`` indexes ``d.runs`` and may repeat.  Raises
    :class:`ScoringError` when the mechanism needs data the dataset does
    not carry for a selected run (quality, reference entry, or a finite
    cutoff for par_k), naming the first offending entry.
    """
    mech = resolve_mechanism(mechanism)
    n = len(d.runs)
    if entries is None:
        entries = np.arange(n, dtype=np.int64)
    entries = np.asarray(entries, dtype=np.int64)
    if len(entries) and (entries.min() < 0 or entries.max() >= n):
        raise ValueError("multiset entry out of range for dataset runs")
    contributions = run_contributions(d, mech)
    message = find_missing_entry(d, mech, contributions, entries)
    if message is not None:
        raise ScoringError(message)
    values = aggregate_contributions(contributions, entries, mech)
    return ScoreVector({s: float(v) for s, v in zip(d.solvers, values)})


# ---------------------------------------------------------------------------
# Ranking


def tiebreak_run_matrices(d: Dataset, tiebreak: tuple[str, ...]) -> list[np.ndarray]:
    """Per-(solver, run) contribution matrices of the tiebreak chain.

    A multiset's key value is the sum of its entries' contributions,
    ascending is better; ``total_time`` contributes the cpu_time of
    successful within-cutoff runs and 0 otherwise.
    """
    matrices = []
    for key in tiebreak:
        if key != "total_time":
            raise ValueError(f"unknown tiebreak key {key!r}")
        matrices.append(np.where(_solved_within(d), d.cpu_time, 0.0))
    return matrices


def min_ranks_rows(scores: np.ndarray, chain: list[np.ndarray]) -> np.ndarray:
    """Row-wise competition min-ranks of a (k x S) score matrix.

    ``chain`` holds tiebreak key arrays, each (S,) or (k x S), ascending
    is better; ranks depend only on equality classes of (score, chain),
    never on solver ids.
    """
    k, s = scores.shape
    neg = -scores
    keys = [np.broadcast_to(vec, (k, s)) for vec in reversed(chain)]
    order = np.lexsort((*keys, neg), axis=1)

    new_block = np.zeros((k, s), dtype=bool)
    new_block[:, 0] = True
    for arr in (neg, *(np.broadcast_to(vec, (k, s)) for vec in chain)):
        in_order = np.take_along_axis(arr, order, axis=1)
        new_block[:, 1:] |= in_order[:, 1:] != in_order[:, :-1]

    positions = np.broadcast_to(np.arange(s), (k, s))
    block_start = np.maximum.accumulate(np.where(new_block, positions, 0), axis=1)
    ranks = np.empty((k, s), dtype=np.int32)
    np.put_along_axis(ranks, order, (block_start + 1).astype(np.int32), axis=1)
    return ranks


def ranking_rows(
    solvers: tuple[str, ...], scores: np.ndarray, chain: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Listing order and min-ranks of every row of a (rows x S) score matrix.

    Each listing row holds solver indices sorted by score descending, then
    the chain ascending, then solver_id ascending; ranks come from
    :func:`min_ranks_rows` and ignore the solver_id step.
    """
    rows, s = scores.shape
    ordinal = np.empty(s, dtype=np.int64)
    ordinal[sorted(range(s), key=solvers.__getitem__)] = np.arange(s)
    keys = [np.broadcast_to(vec, (rows, s)) for vec in (ordinal, *reversed(chain))]
    return np.lexsort((*keys, -scores), axis=1), min_ranks_rows(scores, chain)


@dataclass(frozen=True)
class OfficialRanking:
    """Solvers sorted by (score desc, tiebreak chain, solver_id asc).

    ``ranks`` are competition min-ranks ("1224"): solvers tied on score and
    the whole tiebreak chain share the smallest position of their tie block.
    The final solver_id key orders the listing only and never affects ranks.
    """

    order: tuple[str, ...]
    ranks: dict[str, int]

    @classmethod
    def from_row(
        cls, solvers: tuple[str, ...], order: np.ndarray, ranks: np.ndarray
    ) -> "OfficialRanking":
        """One row of :func:`ranking_rows` as solver ids."""
        return cls(
            order=tuple(solvers[i] for i in order),
            ranks={solvers[i]: int(ranks[i]) for i in order},
        )

    def top(self, depth: int) -> tuple[str, ...]:
        return self.order[:depth]


def official_ranking(
    sv: ScoreVector, d: Dataset, tiebreak: tuple[str, ...] = ()
) -> OfficialRanking:
    """Rank solvers by score with min-rank ties.

    The listing is sorted by score descending, then by the tiebreak chain
    (currently ``total_time``: total cpu_time over successful runs,
    ascending), then solver_id ascending.  Ranks ignore the solver_id step:
    solvers equal on score and the whole chain share a rank.
    """
    chain = [spent.sum(axis=1) for spent in tiebreak_run_matrices(d, tiebreak)]
    orders, ranks = ranking_rows(d.solvers, sv.as_array(d.solvers)[None, :], chain)
    return OfficialRanking.from_row(d.solvers, orders[0], ranks[0])
