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
order can never change a row.  :func:`generate_score_matrix` therefore
draws the words of consecutive replicates ahead, a chunk of
``_BLOCK_ENTRY_BUDGET / 16`` words at a time, and multiply-shifts the whole
chunk at once; they are the same words and entries a
:class:`ReplicateStream` gives, and each replicate still passes through
its public draw function.
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


def _philox(key: list[int], block: int) -> np.random.Philox:
    """This thread's Philox generator, re-keyed to ``key`` with its counter
    at ``block`` and an empty buffer (``buffer_pos`` 4).

    The generator is set from one state dict whose counter, key and buffer
    are Python ints, which numpy reads faster than uint64 arrays.
    """
    try:
        generator, state = _local.philox
    except AttributeError:
        generator = np.random.Philox(key=0)
        state = generator.state
        state["state"] = {"counter": [0, 0, 0, 0], "key": [0, 0]}
        state["buffer"] = [0, 0, 0, 0]
        _local.philox = generator, state
    state["state"]["key"] = key
    state["state"]["counter"][0] = block
    generator.state = state
    return generator


def _key(master_seed: int, index: int) -> list[int]:
    """The substream key as Python ints, converted (and range-checked) as
    a uint64 array converts them."""
    return np.array([master_seed, index], dtype=np.uint64).tolist()


def _checked_moduli(moduli: int | np.ndarray) -> np.uint64 | np.ndarray:
    """One modulus in [1, 2**31) as a uint64, or a uint64 array of one
    modulus per word whose range the caller checked."""
    if isinstance(moduli, np.ndarray):
        return moduli
    if not 0 < moduli < 2**31:
        raise ValueError(f"run count {moduli} out of supported range [1, 2**31)")
    return np.uint64(moduli)


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


def _bounded_indices(words: np.ndarray, n: int | np.ndarray) -> np.ndarray:
    """``words`` mapped to [0, n) by :func:`_multiply_shift`, as a new
    array; ``n`` is one modulus below 2**31, or a uint64 array of one
    modulus per word whose range the caller checked."""
    n = _checked_moduli(n)
    return _multiply_shift(words.copy(), n, np.empty_like(words))


def _word_count(moduli: int | np.ndarray) -> int:
    """Words one replicate draws: one per modulus, or ``moduli`` of one."""
    return len(moduli) if isinstance(moduli, np.ndarray) else moduli


class ReplicateStream:
    """The deterministic substream of one bootstrap replicate."""

    def __init__(self, master_seed: int, index: int):
        self._key = _key(master_seed, index)
        self._used = 0

    def words(self, count: int) -> np.ndarray:
        """Next ``count`` raw 64-bit words of the substream.

        Philox bumps its counter before it makes each block of 4 words, so
        counter ``used // 4`` with an empty buffer resumes at block
        ``used // 4`` of the keyed stream; the first ``used % 4`` words of
        that block were drawn before and are dropped.
        """
        generator = _philox(self._key, self._used // 4)
        skip = self._used % 4
        self._used += count
        return generator.random_raw(skip + count)[skip:]

    def indices(self, moduli: int | np.ndarray) -> np.ndarray:
        """Next entries of the substream: ``moduli`` words mapped to
        ``[0, moduli)``, or one word per element of a uint64 ``moduli``
        array, mapped to ``[0, modulus)``."""
        moduli = _checked_moduli(moduli)
        return _bounded_indices(self.words(_word_count(moduli)), moduli)


def _same_moduli(a: int | np.ndarray, b: int | np.ndarray) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


class _DrawnAhead:
    """The entries of replicates ``0 .. k-1`` of ``master_seed``, drawn
    ahead a chunk of consecutive replicates at a time.

    :meth:`at` makes replicate ``i`` current, first refilling the chunk
    from ``i`` when ``i`` is not in it; :meth:`indices` then returns that
    replicate's row, which the next refill overwrites.  A row holds the
    entries ``ReplicateStream(master_seed, i).indices(moduli)`` gives.  The
    chunk and its spare hold ``block_rows(16 * width)`` rows (at least one,
    at most k): with the default block budget two 128 KiB buffers.
    """

    def __init__(self, master_seed: int, k: int, moduli: int | np.ndarray):
        self._key = _key(master_seed, 0)
        self._k = k
        self._moduli = moduli
        self._mapped_with = _checked_moduli(moduli)
        width = _word_count(self._mapped_with)
        self._chunk = np.empty((min(block_rows(16 * width), k), width), dtype=np.uint64)
        self._spare = np.empty_like(self._chunk)
        self._entries = self._chunk.view(np.int64)
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
            self._chunk[row] = _philox(self._key, 0).random_raw(width)
        _multiply_shift(self._chunk[:rows], self._mapped_with, self._spare[:rows])
        self._first, self._stop = first, first + rows

    def indices(self, moduli: int | np.ndarray) -> np.ndarray:
        if moduli is not self._moduli and not _same_moduli(moduli, self._moduli):
            raise ValueError("these replicates were drawn ahead for other moduli")
        return self._entries[self._row]


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
