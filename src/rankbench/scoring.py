"""Competition scoring mechanisms and the official-style ranking.

Every mechanism reduces a multiset of runs to one real score per solver,
oriented higher-is-better (penalized-runtime scores are negated).  All
mechanisms are per-run additive: each (solver, run) pair has a fixed
contribution and a multiset is scored by summing (or averaging) the
contributions of its entries, so duplicated entries count twice.

:data:`MECHANISMS` is the one table of mechanisms and :class:`Scorer` the
one path that scores rows of run multisets: official scores, bootstrap
replicates and leave-one-out all go through it, and every total they rank
is the exact sum of its contributions rounded once
(:func:`aggregate_from_counts`, :func:`drop_one_totals`).
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
    "Scorer",
    "ScoringError",
    "UnknownMechanismError",
    "aggregate_from_counts",
    "combine_limbs",
    "compute_scores",
    "drop_one_totals",
    "min_ranks_rows",
    "official_ranking",
    "ranking_rows",
    "resolve_mechanism",
    "run_contributions",
    "split_limbs",
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
    with np.errstate(all="ignore"):
        ratio = d.best_known_vector[None, :] / d.quality
    ratio = np.where(d.quality == 0, np.nan, ratio)
    return np.where(d.success_matrix, ratio, 0.0)


def _ipc_agile(d: Dataset, mech: Mechanism) -> np.ndarray:
    # Runs at or faster than the reference (ratio <= 1) score 1.  The log
    # is libm's, of the credited runs' ratios only: numpy's log10 kernels
    # differ in the last bit between CPU dispatch levels.
    credited = _solved_within(d)
    ref = np.broadcast_to(np.maximum(d.reference_time_vector, 1.0), credited.shape)[credited]
    ratios = np.maximum(np.maximum(d.cpu_time[credited], 1.0) / ref, 1.0).tolist()
    logs = np.fromiter(map(math.log10, ratios), dtype=np.float64, count=len(ratios))
    value = np.zeros(credited.shape)
    value[credited] = 1.0 / (1.0 + logs)
    return value


def _mean_metric(d: Dataset, mech: Mechanism) -> np.ndarray:
    # Quality is required on every record, solved or not.
    return d.quality.copy()


def _sum(totals: np.ndarray, size) -> np.ndarray:
    return totals


def _mean(totals: np.ndarray, size) -> np.ndarray:
    return totals / size


def _neg_mean(totals: np.ndarray, size) -> np.ndarray:
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
    contribution totals over a multiset of ``size`` entries into scores
    (``size`` may be an array that broadcasts against the totals);
    ``explain_nan`` says why a (record, run) contribution is NaN, for the
    mechanisms that can produce one.

    Cutoff semantics: ``solved_count``, ``par_k`` and ``ipc_agile`` credit
    a run only when it is successful and ``cpu_time <= cutoff``;
    ``optimal_count`` and ``ipc_quality`` ignore ``cpu_time``;
    ``mean_metric`` uses the quality of every record, whatever its status.
    """

    contributions: Callable[[Dataset, Mechanism], np.ndarray]
    finish: Callable[[np.ndarray, int | np.ndarray], np.ndarray]
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


def run_contributions(d: Dataset, mechanism: Mechanism | str) -> np.ndarray:
    """Per-(solver, run) contribution matrix for ``mechanism``.

    Shape (|S|, |R|), float64.  Entries that cannot be evaluated (missing
    quality or reference data) are NaN; they only become an error when a
    scored multiset actually selects them.  An infinite contribution (an
    overflowing quality ratio or penalty) raises :class:`ScoringError`
    naming the solver and the run.
    """
    mech = resolve_mechanism(mechanism)
    contributions = MECHANISMS[mech.name].contributions(d, mech)
    infinite = np.argwhere(np.isinf(contributions))
    if len(infinite):
        si, ri = infinite[0]
        raise ScoringError(
            f"{mech.name}: solver {d.solvers[si]!r} on run {d.runs[ri].label()} "
            f"has a non-finite contribution ({contributions[si, ri]})"
        )
    return contributions


# ---------------------------------------------------------------------------
# Exact aggregation
#
# A matrix is split once into integer-valued limbs on one power-of-two grid
# (pre-rounding, as in Demmel & Nguyen, "Parallel Reproducible Summation",
# IEEE TC 2015).  Every product of a count row with a limb is then an
# integer below 2**53, which float64 holds exactly, so its value does not
# depend on BLAS threads, blocking or the order of the runs.  The per-limb
# totals are combined in one correctly rounded step (the final step of
# math.fsum; Ogita, Rump & Oishi, "Accurate Sum and Dot Product", SISC 2005).


def split_limbs(matrix: np.ndarray, n: int) -> list[tuple[int, np.ndarray]]:
    """Split ``matrix`` (NaN read as 0) exactly into integer-valued limbs.

    Returns ``(exponent, limb)`` pairs, highest first, with ``matrix ==
    sum(np.ldexp(limb, exponent))`` exactly and every ``|limb| < 2**w``,
    ``w = 53 - n.bit_length()``: a product with a count row that sums to at
    most ``n`` is exact.  The grid starts at the matrix's largest binary
    exponent and limbs are added until nothing is left, so an
    integer-valued matrix of small values takes one limb.
    """
    residual = np.where(np.isnan(matrix), 0.0, matrix)
    if not np.isfinite(residual).all():
        raise ValueError("cannot aggregate non-finite contributions")
    width = 53 - n.bit_length()
    exponent = int(np.frexp(np.abs(residual).max(initial=0.0))[1])
    limbs: list[tuple[int, np.ndarray]] = []
    while not limbs or residual.any():
        exponent -= width
        limb = np.trunc(np.ldexp(residual, -exponent)) + 0.0  # + 0.0 clears -0.0
        residual = residual - np.ldexp(limb, exponent)
        limbs.append((exponent, limb))
    return limbs


@np.errstate(over="ignore", invalid="ignore")
def combine_limbs(totals: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """Correctly rounded ``sum(np.ldexp(total, exponent))`` over exact
    per-limb totals of :func:`split_limbs` limbs (highest first).

    The total arrays are overwritten.  A sum beyond the float64 range
    comes out non-finite, without a warning (see :meth:`Scorer.rows`).
    """
    exponents = [exponent for exponent, _ in totals]
    digits = [total for _, total in totals]
    if len(digits) > 2:
        # Carry upwards: every digit below the top lands in [0, 2**w), so
        # the parts stop overlapping and those below the top are >= 0.
        for j in range(len(digits) - 1, 0, -1):
            carry = np.floor(np.ldexp(digits[j], exponents[j] - exponents[j - 1]))
            digits[j] -= np.ldexp(carry, exponents[j - 1] - exponents[j])
            digits[j - 1] += carry
    parts = [np.ldexp(digit, exponent, out=digit) for exponent, digit in zip(exponents, digits)]
    if len(parts) <= 2:  # one add of two exact floats rounds correctly
        return np.add(*parts, out=parts[0]) if len(parts) == 2 else parts[0]
    # The last step of math.fsum: add from the top while the sum is exact;
    # a halfway error of the first rounded addition goes up when a part
    # below it is non-zero.
    hi, error = parts[0], np.zeros_like(parts[0])
    stop = np.full(hi.shape, len(parts))
    for j, part in enumerate(parts[1:], start=1):
        total = hi + part
        lost = part - (total - hi)
        open_ = stop == len(parts)
        hi, error = np.where(open_, total, hi), np.where(open_, lost, error)
        stop = np.where(open_ & (lost != 0), j, stop)
    below = np.arange(len(parts)).reshape((-1,) + (1,) * hi.ndim) > stop
    tail = ((np.stack(parts) != 0) & below).any(axis=0)
    up = hi + 2 * error
    return np.where(tail & (error > 0) & (up - hi == 2 * error), up, hi)


def aggregate_from_counts(
    limbs: list[tuple[int, np.ndarray]], counts: np.ndarray
) -> np.ndarray:
    """Totals ``counts @ matrix.T`` of a :func:`split_limbs` matrix, exact
    and correctly rounded.

    ``counts`` is (rows, |R|) selection counts whose rows sum to at most
    the ``n`` of the split; the result is (rows, matrix rows).  Each limb
    product is exact, so the totals are identical under any BLAS thread
    count, blocking or run order.
    """
    return combine_limbs([(exponent, counts @ limb.T) for exponent, limb in limbs])


def drop_one_totals(limbs: list[tuple[int, np.ndarray]], groups: tuple) -> np.ndarray:
    """(groups + 1, matrix rows) totals of a :func:`split_limbs` matrix over
    all its columns, then over all but each group of an ``(order, counts,
    starts)`` grouping such as :attr:`Dataset.instance_layout`.  A drop-one
    limb total is the whole one minus the group's, which is exact, so each
    row is rounded once."""
    order, _, starts = groups
    totals = []
    for exponent, limb in limbs:
        per_group = np.add.reduceat(limb[:, order], starts, axis=1).T
        whole = per_group.sum(axis=0)
        totals.append((exponent, np.vstack([whole, whole - per_group])))
    return combine_limbs(totals)


def _non_finite_total(
    totals: np.ndarray, solvers: tuple[str, ...], what: str
) -> tuple[int, str] | None:
    """Row and message of the first non-finite entry of (rows x S) ``totals``.

    Contributions are finite, so such a total is an exact sum beyond the
    float64 range; ``what`` names the mechanism or tiebreak key summed.
    """
    bad = ~np.isfinite(totals)
    if not bad.any():
        return None
    row, col = np.argwhere(bad)[0]
    return int(row), (
        f"{what}: the total of solver {solvers[col]!r} is beyond the float64 range "
        f"({totals[row, col]})"
    )


class Scorer:
    """Scores rows of run multisets of one competition.

    Built once per (dataset, mechanism, tiebreak chain, ``n``), it holds the
    contributions, the runs with a NaN contribution, and the ``(what,
    limbs)`` of the mechanism and of each tiebreak key, split for multisets
    of at most ``n`` entries.
    """

    def __init__(self, d: Dataset, mechanism: Mechanism | str, tiebreak: tuple[str, ...], n: int):
        self.d = d
        self.mechanism = resolve_mechanism(mechanism)
        self.contributions = run_contributions(d, self.mechanism)
        self._nan_runs = np.isnan(self.contributions).any(axis=0)
        self._any_nan = self._nan_runs.any()  # hoisted out of every missing() call
        matrices = (self.contributions, *tiebreak_run_matrices(d, tiebreak))
        whats = (self.mechanism.name, *tiebreak)
        self.limbs = [(what, split_limbs(matrix, n)) for what, matrix in zip(whats, matrices)]

    def missing(self, entries: np.ndarray) -> str | None:
        """Message for the first NaN contribution that ``entries`` selects,
        in multiset order and then solver order, or None."""
        if not (self._any_nan and self._nan_runs[entries].any()):
            return None
        run = int(entries[np.argmax(self._nan_runs[entries])])
        solver = self.d.solvers[int(np.argmax(np.isnan(self.contributions[:, run])))]
        rk = self.d.runs[run]
        where = f"solver {solver!r} on run {rk.label()}"
        explain = MECHANISMS[self.mechanism.name].explain_nan
        return f"{self.mechanism.name}: {explain(self.d.results[(solver, rk)], where, rk)}"

    def rows(self, aggregate: Callable, sizes: int | np.ndarray) -> tuple:
        """``(scores, chain totals, overflow)`` of the rows whose totals
        ``aggregate(limbs)`` gives for each split matrix (for instance
        :func:`aggregate_from_counts` or :func:`drop_one_totals`), each row
        a multiset of ``sizes`` entries.  ``overflow`` is the smallest row
        with a total beyond the float64 range and its message (on one row
        the mechanism before the chain keys), or None."""
        totals = [aggregate(limbs) for _, limbs in self.limbs]
        found = [
            _non_finite_total(total, self.d.solvers, what)
            for (what, _), total in zip(self.limbs, totals)
        ]
        overflow = min(filter(None, found), key=lambda row_message: row_message[0], default=None)
        return MECHANISMS[self.mechanism.name].finish(totals[0], sizes), totals[1:], overflow


def compute_scores(
    d: Dataset, mechanism: Mechanism | str, entries: np.ndarray | None = None
) -> dict[str, float]:
    """Score every solver over the run multiset ``entries`` (default: all of R),
    as ``{solver: score}``; higher is better.

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
    scorer = Scorer(d, mech, (), len(entries))
    message = scorer.missing(entries)
    if message is not None:
        raise ScoringError(message)
    values = np.zeros(len(d.solvers))  # an empty multiset scores +0.0 by every mechanism
    if len(entries):
        counts = np.bincount(entries, minlength=n)[None, :].astype(np.float64)
        scores, _, overflow = scorer.rows(
            lambda limbs: aggregate_from_counts(limbs, counts), len(entries)
        )
        if overflow is not None:
            raise ScoringError(overflow[1])
        values = scores[0]
    return {s: float(v) for s, v in zip(d.solvers, values)}


# ---------------------------------------------------------------------------
# Ranking

# Entries per block of every blocked pass over a k x |R| or k x S array:
# replicate count blocks, min-ranks, and the report's column sorts and
# row scans.  2 MB of float64, so a block stays near the cache.
_BLOCK_ENTRY_BUDGET = 262_144


def block_rows(width: int) -> int:
    """Rows of a ``width``-wide array that fit one block (at least one)."""
    return max(1, _BLOCK_ENTRY_BUDGET // max(width, 1))


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


def _min_ranks_block(scores: np.ndarray, chain: list[np.ndarray], out: np.ndarray) -> None:
    """Write the min-ranks of a block of rows into ``out``; its workspace
    is freed on return.  Ranks depend only on the tie classes, so the order
    inside a tie does not matter, and a row without a chain is sorted by
    score alone."""
    if chain:
        order = np.lexsort([*reversed(chain), -scores], axis=1).astype(np.int32)
    else:
        order = np.argsort(-scores, axis=1).astype(np.int32)
    block_start = np.zeros(scores.shape, dtype=bool)  # True where a new tie block starts
    for key in (scores, *chain):
        in_order = np.take_along_axis(key, order, axis=1)
        block_start[:, 1:] |= in_order[:, 1:] != in_order[:, :-1]
        del in_order  # before the next key is gathered
    block_start = np.multiply(block_start, np.arange(scores.shape[1], dtype=np.int32))
    np.maximum.accumulate(block_start, axis=1, out=block_start)
    block_start += 1
    np.put_along_axis(out, order, block_start, axis=1)


def min_ranks_rows(scores: np.ndarray, chain: list[np.ndarray]) -> np.ndarray:
    """Row-wise competition min-ranks of a (k x S) score matrix, as int32.

    ``chain`` holds tiebreak key arrays, each (S,) or (k x S), ascending
    is better; ranks depend only on equality classes of (score, chain),
    never on solver ids.  Rows are ranked in blocks of :func:`block_rows`
    rows, written straight into the result, so the workspace beyond the
    4-byte ranks is one block's sort order, gathered keys and tie-block
    starts (``tracemalloc``: at most 16 bytes per block entry), whatever k.
    """
    k, s = scores.shape
    ranks = np.empty((k, s), dtype=np.int32)
    step = block_rows(s)
    for start in range(0, k, step):
        rows = slice(start, start + step)
        block_chain = [np.broadcast_to(key, (k, s))[rows] for key in chain]
        _min_ranks_block(scores[rows], block_chain, ranks[rows])
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


def official_ranking(
    scores: dict[str, float], d: Dataset, tiebreak: tuple[str, ...] = ()
) -> OfficialRanking:
    """Rank solvers by their ``{solver: score}`` with min-rank ties.

    The listing is sorted by score descending, then by the tiebreak chain
    (currently ``total_time``: total cpu_time over successful runs,
    ascending), then solver_id ascending.  Ranks ignore the solver_id step:
    solvers equal on score and the whole chain share a rank.
    """
    ones = np.ones((1, len(d.runs)))
    chain = []
    for key, spent in zip(tiebreak, tiebreak_run_matrices(d, tiebreak)):
        totals = aggregate_from_counts(split_limbs(spent, len(d.runs)), ones)
        found = _non_finite_total(totals, d.solvers, key)
        if found is not None:
            raise ScoringError(found[1])
        chain.append(totals[0])
    row = np.array([[scores[s] for s in d.solvers]], dtype=np.float64)
    orders, ranks = ranking_rows(d.solvers, row, chain)
    return OfficialRanking.from_row(d.solvers, orders[0], ranks[0])
