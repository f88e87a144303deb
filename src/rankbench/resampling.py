"""Deterministic bootstrap replicate generation and the replicate score matrix.

Reproducibility scheme (fixed, so matrices are comparable across
implementations and across runs):

* Replicate ``i`` draws from its own substream: a Philox-4x64-10 counter
  generator keyed with the two 64-bit words ``(master_seed, i)``, counter
  starting at zero, consuming the standard Philox output word sequence.
  Each thread keeps one generator and re-keys it to ``(master_seed, i)``
  for every draw instead of constructing one per replicate; a counter
  generator is a pure function of its key and counter, so the words are
  the same.
* A raw 64-bit word ``x`` maps to a run index in ``[0, n)`` rejection-free
  via the multiply-shift ``floor(x * n / 2**64)``.
* Uniform replicates consume ``|R|`` words.  Stratified replicates consume
  the words stratum by stratum, strata in order of first appearance over
  the run list, one word per drawn entry.

Because a replicate is a pure function of ``(master_seed, i)``, evaluation
order can never change a row.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .model import AnalysisConfig, Dataset, write_csv
from .scoring import Scorer, ScoringError, aggregate_from_counts, block_rows, min_ranks_rows
from .stats import column_quantiles

__all__ = [
    "ReplicateStream",
    "ScoreMatrix",
    "draw_stratified_replicate",
    "draw_uniform_replicate",
    "generate_score_matrix",
    "write_matrix_csv",
]

_U32 = np.uint64(32)
_MASK32 = np.uint64(0xFFFFFFFF)

_local = threading.local()


def _thread_philox() -> tuple[np.random.Philox, dict]:
    """This thread's Philox generator and the state dict it is re-keyed with.

    The dict is a fresh generator's state: its buffer is empty
    (``buffer_pos`` 4) and only the key and counter are ever changed.
    """
    try:
        return _local.philox
    except AttributeError:
        generator = np.random.Philox(key=0)
        _local.philox = generator, generator.state
        return _local.philox


class ReplicateStream:
    """The deterministic substream of one bootstrap replicate."""

    def __init__(self, master_seed: int, index: int):
        self._key = np.array([master_seed, index], dtype=np.uint64)
        self._used = 0

    def words(self, count: int) -> np.ndarray:
        """Next ``count`` raw 64-bit words of the substream.

        Philox bumps its counter before it makes each block of 4 words, so
        counter ``used // 4`` with an empty buffer resumes at block
        ``used // 4`` of the keyed stream; the first ``used % 4`` words of
        that block were drawn before and are dropped.
        """
        generator, state = _thread_philox()
        state["state"]["key"][:] = self._key
        state["state"]["counter"][0] = self._used // 4
        generator.state = state
        skip = self._used % 4
        self._used += count
        return generator.random_raw(skip + count)[skip:]


def _bounded_indices(words: np.ndarray, n: int | np.ndarray) -> np.ndarray:
    """Map raw 64-bit words to [0, n) via multiply-shift (exact, no bias loop).

    Computes floor(word * n / 2**64) in uint64 arithmetic by splitting the
    word into 32-bit halves; requires n < 2**31.  ``n`` is one modulus, or
    a uint64 array of one modulus per word whose range the caller checked.
    """
    if not isinstance(n, np.ndarray):
        if not 0 < n < 2**31:
            raise ValueError(f"run count {n} out of supported range [1, 2**31)")
        n = np.uint64(n)
    hi = words >> _U32
    lo = words & _MASK32
    lo *= n
    lo >>= _U32
    hi *= n
    hi += lo
    hi >>= _U32
    return hi.view(np.int64)  # every index is below 2**31


def draw_uniform_replicate(d: Dataset, rng: ReplicateStream) -> np.ndarray:
    """|R| run indices drawn i.i.d. uniformly over R, with replacement."""
    n = len(d.runs)
    if n < 1:
        raise ValueError("dataset has no runs to resample")
    return _bounded_indices(rng.words(n), n)


def draw_stratified_replicate(d: Dataset, rng: ReplicateStream) -> np.ndarray:
    """Per-stratum resampling: each stratum contributes exactly as many
    run indices as it has runs, drawn with replacement within the stratum;
    indices are concatenated in stratum order.

    One word per position of :attr:`Dataset.stratum_layout` (the runs
    grouped by stratum with the same stable grouping as
    :attr:`Dataset.instance_layout`), mapped into that position's stratum,
    gives the words and entries of a stratum by stratum draw in one pass.
    """
    if len(d.runs) < 1:
        raise ValueError("dataset has no runs to resample")
    runs, sizes, starts = d.stratum_layout
    return runs[starts + _bounded_indices(rng.words(len(runs)), sizes)]


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """k bootstrap replicates x solvers, scores plus per-replicate min-ranks.

    Column order is fixed by ``solver_order`` (the dataset solver list);
    ``provenance`` records the master seed, stratification flag and
    mechanism id the matrix was generated under.
    """

    k: int
    scores: np.ndarray
    replicate_ranks: np.ndarray
    solver_order: tuple[str, ...]
    provenance: dict

    def solver_idx(self, solver: str) -> int:
        try:
            return self.solver_order.index(solver)
        except ValueError:
            raise ValueError(f"unknown solver id {solver!r}") from None

    def column(self, solver: str) -> np.ndarray:
        return self.scores[:, self.solver_idx(solver)]

    @cached_property
    def median_scores(self) -> np.ndarray:
        """Nearest-rank median of each score column, in ``solver_order``:
        each column is sorted once, for robust ranking and the report."""
        return column_quantiles(self.scores, (0.5,))[0]


def _check_memory(k: int, solvers: int, chain_keys: int) -> None:
    """Refuse a replicate count whose peak cannot fit in physical memory.

    The kept arrays are the k x S float64 scores, one k x S float64 array
    per tiebreak key and the k x S int32 ranks.  Every pass over them or
    over the replicate counts works in blocks of :func:`block_rows` rows;
    ``tracemalloc`` measures the largest block workspace (count block and
    limb totals, or the min-ranks sort) at under 17 bytes per block entry,
    so three float64 blocks are counted for it.  (A wide input's count
    block may instead match its limb matrices, which are dataset-sized.)
    """
    need = k * solvers * (8 * (1 + chain_keys) + 4) + 24 * block_rows(1)
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if 0 < physical < need:
        raise ValueError(
            f"{k} replicates of {solvers} solvers need {need / 2**30:,.1f} GiB to score "
            f"and rank, more than the {physical / 2**30:,.1f} GiB of physical memory"
        )


def generate_score_matrix(d: Dataset, cfg: AnalysisConfig, threads: int = 1) -> ScoreMatrix:
    """Score ``cfg.replicates_k`` bootstrap replicates of the competition.

    Row ``i`` comes from the substream keyed ``(cfg.master_seed, i)``.
    Replicates are generated on one thread: ``threads`` is accepted for
    compatibility and changes neither the output nor the speed.  Scoring
    failures (a selected run without a contribution, a total beyond the
    float64 range) report the smallest failing replicate index.
    """
    n = len(d.runs)
    if n < 1:
        raise ValueError("dataset has no runs to resample")
    k = cfg.replicates_k
    _check_memory(k, len(d.solvers), len(cfg.tiebreak))
    scorer = Scorer(d, cfg.mechanism, cfg.tiebreak, n)
    draw = draw_stratified_replicate if cfg.stratified else draw_uniform_replicate
    scores = np.empty((k, len(d.solvers)), dtype=np.float64)
    chains = [np.empty((k, len(d.solvers)), dtype=np.float64) for _ in cfg.tiebreak]

    def fill_block(start: int, stop: int) -> None:
        # Block-local, so it is freed before min_ranks_rows' workspace.
        counts = np.zeros((stop - start, n), dtype=np.float64)
        failures = []
        for i in range(start, stop):
            entries = draw(d, ReplicateStream(cfg.master_seed, i))
            message = None if failures else scorer.missing(entries)
            if message is not None:
                failures.append((i, message))
            counts[i - start] = np.bincount(entries, minlength=n)
        # aggregate_from_counts is looked up in this module at every call,
        # so a wrapper set on the module sees each one.
        block_scores, block_chains, overflow = scorer.rows(
            lambda limbs: aggregate_from_counts(limbs, counts), n
        )
        if overflow is not None:
            failures.append((start + overflow[0], overflow[1]))
        if failures:  # the first failing replicate; a missing entry first
            index, message = min(failures, key=lambda failure: failure[0])
            raise ScoringError(f"replicate {index}: {message}")
        for out, rows in zip((scores, *chains), (block_scores, *block_chains)):
            out[start:stop] = rows

    # Counts and per-limb totals fit one block, except that a wide input
    # gets as many rows as its limb matrices have, up to 256: every GEMM
    # packs its limb again, which made 100 x 5000 5% slower at 52 rows, and
    # the count block is then no larger than those limbs.
    limb_rows = sum(len(limbs) for _, limbs in scorer.limbs) * len(d.solvers)
    block = max(block_rows(max(n, len(d.solvers))), min(limb_rows, 256))
    for start in range(0, k, block):
        fill_block(start, min(start + block, k))

    ranks = min_ranks_rows(scores, chains)
    return ScoreMatrix(
        k=k,
        scores=scores,
        replicate_ranks=ranks,
        solver_order=d.solvers,
        provenance={
            "master_seed": cfg.master_seed,
            "stratified": cfg.stratified,
            "mechanism": scorer.mechanism.id,
        },
    )


def write_matrix_csv(m: ScoreMatrix, path: str | Path) -> None:
    """Dump the replicate scores: header ``replicate,<solver ids...>``."""
    write_csv(
        path, ["replicate", *m.solver_order], ([i, *row.tolist()] for i, row in enumerate(m.scores))
    )
