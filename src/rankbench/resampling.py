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
from pathlib import Path

import numpy as np

from .model import AnalysisConfig, Dataset, write_csv
from .scoring import (
    MECHANISMS,
    ScoringError,
    aggregate_from_counts,
    find_missing_entry,
    min_ranks_rows,
    non_finite_total,
    resolve_mechanism,
    run_contributions,
    split_limbs,
    tiebreak_run_matrices,
)

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

# Keep replicate index blocks around a few MB regardless of |R|.
_BLOCK_ENTRY_BUDGET = 2_000_000

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


def _draw_entries(d: Dataset, stratified: bool, master_seed: int, index: int) -> np.ndarray:
    stream = ReplicateStream(master_seed, index)
    draw = draw_stratified_replicate if stratified else draw_uniform_replicate
    return draw(d, stream)


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


def _check_memory(k: int, solvers: int, chain_keys: int) -> None:
    """Refuse a replicate count whose peak cannot fit in physical memory.

    The peak comes in ``min_ranks_rows``: k x S float64 scores and one k x S
    float64 array per tiebreak key, plus its temporaries (the negated
    scores, the lexsort order, the bool blocks, the gathered copies and the
    int64 block starts), which ``tracemalloc`` measures at 49 bytes per cell
    with or without tiebreak keys, the kept int32 ranks included.
    """
    need = k * solvers * (8 * (1 + chain_keys) + 49)
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
    mech = resolve_mechanism(cfg.mechanism)
    n = len(d.runs)
    if n < 1:
        raise ValueError("dataset has no runs to resample")
    k = cfg.replicates_k
    _check_memory(k, len(d.solvers), len(cfg.tiebreak))
    contributions = run_contributions(d, mech)
    bad_runs = np.isnan(contributions).any(axis=0)
    any_bad = bad_runs.any()
    keyed_limbs = [(mech.name, split_limbs(contributions, n))] + [
        (key, split_limbs(mat, n))
        for key, mat in zip(cfg.tiebreak, tiebreak_run_matrices(d, cfg.tiebreak))
    ]
    finish = MECHANISMS[mech.name].finish

    scores = np.empty((k, len(d.solvers)), dtype=np.float64)
    chains = [np.empty((k, len(d.solvers)), dtype=np.float64) for _ in cfg.tiebreak]

    def fill_block(start: int, stop: int) -> None:
        # Block-local, so it is freed before min_ranks_rows' k x S temporaries.
        counts = np.zeros((stop - start, n), dtype=np.float64)
        failures = []
        for i in range(start, stop):
            entries = _draw_entries(d, cfg.stratified, cfg.master_seed, i)
            if any_bad and not failures and bad_runs[entries].any():
                failures.append((i, find_missing_entry(d, mech, contributions, entries)))
            counts[i - start] = np.bincount(entries, minlength=n)
        for (what, limbs), out in zip(keyed_limbs, (scores, *chains)):
            out[start:stop] = aggregate_from_counts(limbs, counts)
            found = non_finite_total(out[start:stop], d.solvers, what)
            if found is not None:
                failures.append((start + found[0], found[1]))
        if failures:  # the first failing replicate; a missing entry first
            index, message = min(failures, key=lambda failure: failure[0])
            raise ScoringError(f"replicate {index}: {message}")
        scores[start:stop] = finish(scores[start:stop], n)

    block = max(1, _BLOCK_ENTRY_BUDGET // n)
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
            "mechanism": mech.id,
        },
    )


def write_matrix_csv(m: ScoreMatrix, path: str | Path) -> None:
    """Dump the replicate scores: header ``replicate,<solver ids...>``."""
    write_csv(
        path, ["replicate", *m.solver_order], ([i, *row.tolist()] for i, row in enumerate(m.scores))
    )
