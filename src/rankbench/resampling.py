"""Deterministic bootstrap replicate generation and the replicate score matrix.

Reproducibility scheme (fixed, so matrices are comparable across
implementations and across runs):

* Replicate ``i`` draws from its own substream: a Philox-4x64-10 counter
  generator keyed with the two 64-bit words ``(master_seed, i)``, counter
  starting at zero, consuming the standard Philox output word sequence.
* A raw 64-bit word ``x`` maps to a run index in ``[0, n)`` rejection-free
  via the multiply-shift ``floor(x * n / 2**64)``.
* Uniform replicates consume ``|R|`` words.  Stratified replicates consume
  the words stratum by stratum, strata in order of first appearance over
  the run list, one word per drawn entry.

A counter generator is a pure function of its key and counter, so a
replicate is a pure function of ``(master_seed, i)`` and evaluation order
can never change a row.  One fill serves every draw: it re-keys one
generator, owned by the chunk it fills, to each replicate of a range of
consecutive replicates and multiply-shifts the whole chunk at once.
:func:`generate_score_matrix` fills a chunk of ``_BLOCK_ENTRY_BUDGET / 16``
words at a time, and a :class:`ReplicateStream` fills a one-row chunk;
each replicate still passes through its public draw function.
"""

from __future__ import annotations

import os
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


def _checked_moduli(moduli: int | np.ndarray) -> np.uint64 | np.ndarray:
    """One modulus as a uint64, or a uint64 array of one modulus per word,
    each a run count in [1, 2**31): :func:`_multiply_shift` multiplies a
    modulus by 32-bit halves of a word in uint64 arithmetic."""
    array = isinstance(moduli, np.ndarray)
    for modulus in (moduli.min(initial=1), moduli.max(initial=1)) if array else (moduli,):
        if not 0 < modulus < 2**31:
            raise ValueError(f"run count {modulus} out of supported range [1, 2**31)")
    return moduli if array else np.uint64(moduli)


def _multiply_shift(words: np.ndarray, moduli, spare: np.ndarray) -> np.ndarray:
    """Map raw 64-bit words to [0, n) in place via multiply-shift (exact,
    no bias loop), and return them viewed as int64.

    Computes floor(word * n / 2**64) in uint64 arithmetic by splitting the
    word into 32-bit halves, the low halves in ``spare`` (same shape as
    ``words``); ``moduli`` is from :func:`_checked_moduli` and broadcasts
    against ``words``.
    """
    np.bitwise_and(words, _MASK32, out=spare)
    spare *= moduli
    spare >>= _U32
    words >>= _U32
    words *= moduli
    words += spare
    words >>= _U32
    return words.view(np.int64)  # every index is below 2**31


def _same_moduli(a: int | np.ndarray, b: int | np.ndarray) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


class _DrawnAhead:
    """The entries of replicates ``first .. k-1`` of ``master_seed``, drawn
    ahead a chunk of consecutive replicates at a time.

    :meth:`at` makes replicate ``i`` current, first refilling the chunk
    from ``i`` when ``i`` is not in it; :meth:`indices` then returns that
    replicate's row, which the next refill overwrites: ``moduli`` words of
    the replicate's substream mapped to ``[0, moduli)``, or one word per
    element of a uint64 ``moduli`` array, mapped to ``[0, modulus)``.
    ``master_seed`` and ``k - 1`` convert (and are range-checked) as a
    uint64 array converts them.  The chunk and its spare hold
    ``block_rows(16 * width)`` rows (at least one, at most ``k - first``):
    with the default block budget two 128 KiB buffers.

    The chunk owns its generator, re-keyed through one state dict whose
    counter, key and buffer are Python ints, which numpy reads faster than
    uint64 arrays.
    """

    def __init__(self, master_seed: int, k: int, moduli: int | np.ndarray, first: int = 0):
        self._key = np.array([master_seed, k - 1], dtype=np.uint64).tolist()
        self._generator = np.random.Philox(key=0)
        self._state = self._generator.state
        self._state["state"] = {"counter": [0, 0, 0, 0], "key": self._key}
        self._state["buffer"] = [0, 0, 0, 0]  # with buffer_pos 4: empty
        self._moduli = moduli
        self._mapped_with = _checked_moduli(moduli)
        width = len(moduli) if isinstance(moduli, np.ndarray) else moduli
        self._chunk = np.empty((min(block_rows(16 * width), k - first), width), dtype=np.uint64)
        self._spare = np.empty_like(self._chunk)
        self._entries = self._chunk.view(np.int64)
        self._k = k
        self._first = self._stop = self._row = 0

    def at(self, index: int) -> "_DrawnAhead":
        if not self._first <= index < self._stop:
            self._fill(index)
        self._row = index - self._first
        return self

    def _fill(self, first: int) -> None:
        rows = min(len(self._chunk), self._k - first)
        width = self._chunk.shape[1]
        for row in range(rows):
            self._key[1] = first + row
            self._generator.state = self._state
            self._chunk[row] = self._generator.random_raw(width)
        _multiply_shift(self._chunk[:rows], self._mapped_with, self._spare[:rows])
        self._first, self._stop = first, first + rows

    def indices(self, moduli: int | np.ndarray) -> np.ndarray:
        if moduli is not self._moduli and not _same_moduli(moduli, self._moduli):
            raise ValueError("these replicates were drawn ahead for other moduli")
        return self._entries[self._row]


class ReplicateStream:
    """The deterministic substream of one bootstrap replicate."""

    def __init__(self, master_seed: int, index: int):
        self._seed, self._index = np.array([master_seed, index], dtype=np.uint64).tolist()

    def indices(self, moduli: int | np.ndarray) -> np.ndarray:
        """The replicate's entries for ``moduli``, from a one-row :class:`_DrawnAhead`."""
        ahead = _DrawnAhead(self._seed, self._index + 1, moduli, self._index)
        return ahead.at(self._index).indices(moduli)


def draw_uniform_replicate(d: Dataset, rng: ReplicateStream) -> np.ndarray:
    """|R| run indices drawn i.i.d. uniformly over R, with replacement."""
    n = len(d.runs)
    if n < 1:
        raise ValueError("dataset has no runs to resample")
    return rng.indices(n)


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
    return runs[starts + rng.indices(sizes)]


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
    so three float64 blocks are counted for it.  The drawn-ahead words and
    their spare, two uint64 buffers of ``block_rows(16)`` entries (128 KiB
    each at the default budget), live beside that workspace and are counted
    too.  (A wide input's count block and draw chunk may instead match its
    limb matrices and its run count, which are dataset-sized.)
    """
    need = k * solvers * (8 * (1 + chain_keys) + 4) + 24 * block_rows(1) + 16 * block_rows(16)
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
    ahead = _DrawnAhead(cfg.master_seed, k, d.stratum_layout[1] if cfg.stratified else n)
    scores = np.empty((k, len(d.solvers)), dtype=np.float64)
    chains = [np.empty((k, len(d.solvers)), dtype=np.float64) for _ in cfg.tiebreak]

    def fill_block(start: int, stop: int) -> None:
        # Block-local, so it is freed before min_ranks_rows' workspace.
        counts = np.zeros((stop - start, n), dtype=np.float64)
        failures = []
        for i in range(start, stop):
            entries = draw(d, ahead.at(i))
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
