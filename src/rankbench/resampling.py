"""Deterministic bootstrap replicate generation and the replicate score matrix.

Reproducibility scheme, stream spec v3 (fixed, so matrices are comparable
across implementations and across runs):

* One Philox-4x64-10 counter generator keyed with the two 64-bit words
  ``(master_seed, 0)`` serves every replicate.  A replicate of ``W`` draw
  positions takes ``B = ceil(ceil(W / 2) / 4)`` counter blocks: replicate
  ``i``'s words are the ``4 * B`` words the generator yields from counter
  ``i * B`` (numpy's Philox bumps the counter before each block).
* Position ``2j`` takes the low 32 bits of word ``j`` and position
  ``2j + 1`` its high 32 bits, split arithmetically, so the draws do not
  depend on byte order.  A half ``h`` maps to an index in ``[0, m)``
  rejection-free via the multiply-shift ``(h * m) >> 32``, so each index
  has a probability within ``2**-32`` of ``1 / m``.
* A replicate resamples instances, not runs: each drawn instance brings
  all of its runs, in run order, and the runs of the drawn instances are
  returned in draw order.  Uniform replicates have ``W = I`` positions
  (``I`` instances), each mapped to an instance in ``Dataset.instances``
  order.  Stratified replicates have one position per entry of
  :attr:`Dataset.stratum_layout` (instances stratum by stratum), each
  mapped to an instance of that position's stratum.

A counter generator is a pure function of its key and counter, so a
replicate is a pure function of ``(master_seed, i, W)`` and evaluation
order can never change a row.  One fill serves every draw: it sets the
counter of one generator, owned by the chunk it fills, once for a range of
consecutive replicates, draws all their words with one call and maps the
whole chunk at once.  :func:`generate_score_matrix` fills a chunk of
``_BLOCK_ENTRY_BUDGET / 16`` word halves at a time, and a
:class:`ReplicateStream` fills a one-row chunk; each replicate passes
through its public draw function, which gathers the runs of its drawn
instances, and is scored from how often it drew each
instance, counted from the runs that function returns.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .model import AnalysisConfig, Dataset, write_csv
from .scoring import Scorer, ScoringError, aggregate_from_counts, block_rows, min_ranks_rows
from .stats import column_quantiles, first_place_counts

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
    """One modulus as a uint64, or a uint64 array of one modulus per
    position, each a count in [1, 2**31): a 32-bit half of a word times a
    modulus is then exact in uint64 arithmetic."""
    array = isinstance(moduli, np.ndarray)
    for modulus in (moduli.min(initial=1), moduli.max(initial=1)) if array else (moduli,):
        if not 0 < modulus < 2**31:
            raise ValueError(f"instance count {modulus} out of supported range [1, 2**31)")
    return moduli if array else np.uint64(moduli)


def _map_halves(words: np.ndarray, moduli, out: np.ndarray) -> None:
    """Map the 32-bit halves of rows of uint64 ``words`` to indices in the
    C-contiguous ``out``, twice as wide: position ``2j`` of a row takes the
    low half of word ``j`` and position ``2j + 1`` its high half, split
    arithmetically so that byte order does not matter, and a half ``h``
    with modulus ``m`` becomes ``(h * m) >> 32``.  ``moduli`` (from
    :func:`_checked_moduli`) broadcasts against ``out``.
    """
    pairs = out.reshape(len(out), -1, 2)
    np.bitwise_and(words, _MASK32, out=pairs[..., 0])
    np.right_shift(words, _U32, out=pairs[..., 1])
    out *= moduli
    out >>= _U32


def _same_moduli(a: int | np.ndarray, b: int | np.ndarray) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


class _DrawnAhead:
    """The entries of replicates ``first .. k-1`` of ``master_seed``, drawn
    ahead a chunk of consecutive replicates at a time.

    :meth:`at` makes replicate ``i`` current, first refilling the chunk
    from ``i`` when ``i`` is not in it; :meth:`indices` then returns that
    replicate's row, which the next refill overwrites: ``moduli`` positions
    mapped to ``[0, moduli)``, or one position per element of a uint64
    ``moduli`` array, mapped to ``[0, modulus)``.  ``master_seed`` and
    ``k - 1`` convert (and are range-checked) as a uint64 array converts
    them.  A replicate takes ``B = ceil(width / 8)`` counter blocks, whose
    ``8 * B`` word halves cover its ``width`` positions; the chunk holds
    every half of ``block_rows(16 * 8 * B)`` rows (at least one, at most
    ``k - first``): with the default block budget at most 128 KiB.  A fill
    draws the chunk's words into a temporary of half that.

    The chunk owns its generator, keyed ``(master_seed, 0)``; a fill sets
    its counter once, through a state dict whose counter, key and buffer
    are Python ints, which numpy reads faster than uint64 arrays.
    """

    def __init__(self, master_seed: int, k: int, moduli: int | np.ndarray, first: int = 0):
        seed, _ = np.array([master_seed, k - 1], dtype=np.uint64).tolist()
        self._generator = np.random.Philox(key=0)
        self._state = self._generator.state
        self._state["state"] = {"counter": [0, 0, 0, 0], "key": [seed, 0]}
        self._state["buffer"] = [0, 0, 0, 0]  # with buffer_pos 4: empty
        self._moduli = moduli
        self._mapped_with = _checked_moduli(moduli)
        width = len(moduli) if isinstance(moduli, np.ndarray) else moduli
        self._blocks = -(-width // 8)  # ceil(ceil(width / 2) / 4)
        halves = 8 * self._blocks
        if isinstance(moduli, np.ndarray):  # the unused halves map to 0
            self._mapped_with = np.zeros(halves, dtype=np.uint64)
            self._mapped_with[:width] = moduli
        self._chunk = np.empty((min(block_rows(16 * halves), k - first), halves), dtype=np.uint64)
        self._entries = self._chunk.view(np.int64)[:, :width]
        self._k = k
        self._first = self._stop = self._row = 0

    def at(self, index: int) -> "_DrawnAhead":
        if not self._first <= index < self._stop:
            self._fill(index)
        self._row = index - self._first
        return self

    def _fill(self, first: int) -> None:
        """Draw replicates ``first ..`` into the chunk with one call of the
        generator: replicate ``i`` takes the ``4 * blocks`` words after
        counter ``i * blocks``, and each 32-bit half ``h`` of a word, with its
        position's modulus ``m``, gives ``(h * m) >> 32``."""
        rows = min(len(self._chunk), self._k - first)
        counter = first * self._blocks
        self._state["state"]["counter"] = [counter & 0xFFFFFFFFFFFFFFFF, counter >> 64, 0, 0]
        self._generator.state = self._state
        words = self._generator.random_raw(4 * self._blocks * rows).reshape(rows, -1)
        _map_halves(words, self._mapped_with, self._chunk[:rows])
        self._first, self._stop = first, first + rows

    def indices(self, moduli: int | np.ndarray) -> np.ndarray:
        # An int modulus from len() is a new object at every call, so ints
        # are compared by value before the array path.
        if moduli is not self._moduli and not (
            moduli == self._moduli
            if type(moduli) is type(self._moduli) is int
            else _same_moduli(moduli, self._moduli)
        ):
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


def _runs_of(
    d: Dataset, picked: np.ndarray, rows: np.ndarray | None, order: np.ndarray | None = None
) -> np.ndarray:
    """The runs of the instances at positions ``picked`` (instances
    ``order[picked]``, or ``picked`` without ``order``), each instance's in
    run order: ``picked`` itself when those are the runs, else one take of
    ``rows``, each position's runs, or without ``rows`` (instances with
    different run counts) a gather by the offsets of ``d.instance_layout``."""
    if rows is None:
        runs, counts, starts = d.instance_layout
        if order is not None:  # the positions are freed for their instances
            picked = order[picked]
        lengths = counts[picked]
        # Entry t of the result, in drawn instance j's span, is runs entry
        # starts[j] + t minus the entries before that span.
        spans = starts[picked] - np.cumsum(lengths) + lengths
        offsets = np.repeat(spans, lengths)
        offsets += np.arange(len(offsets))
        return runs[offsets]
    if order is None and rows.shape[1] == 1:
        return picked
    return rows.take(picked, axis=0).ravel()


def draw_uniform_replicate(d: Dataset, rng: ReplicateStream) -> np.ndarray:
    """The runs of ``I`` instances drawn i.i.d. uniformly, with replacement.

    One word per instance picks an instance of ``Dataset.instances``; the
    runs of the drawn instances are gathered into a new array, in draw
    order, each instance's in run order.  With one run per instance,
    instance ``j`` is run ``j`` and the drawn indices are returned as they
    are.
    """
    if len(d.runs) < 1:
        raise ValueError("dataset has no runs to resample")
    return _runs_of(d, rng.indices(len(d.instances)), d.run_rows)


def draw_stratified_replicate(d: Dataset, rng: ReplicateStream) -> np.ndarray:
    """Per-stratum resampling: each stratum contributes exactly as many
    instances as it has, drawn with replacement within the stratum, and
    each drawn instance all of its runs; runs are concatenated in stratum
    order, then draw order, then run order.

    One word per position of :attr:`Dataset.stratum_layout` (instances
    stratum by stratum), mapped into that position's stratum, gives the
    words and instances of a stratum by stratum draw in one pass, and the
    runs of the drawn positions are gathered into a new array.
    """
    if len(d.runs) < 1:
        raise ValueError("dataset has no runs to resample")
    order, rows, sizes, starts = d.stratum_layout
    return _runs_of(d, starts + rng.indices(sizes), rows, order)


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """k bootstrap replicates x solvers, scores plus per-replicate min-ranks.

    ``scores`` is float64.  :func:`generate_score_matrix` keeps it
    column-major (k x S in Fortran order): every statistic downstream (CIs,
    medians, win fractions, the pairwise tests) is a pass down one solver's
    column, which is then contiguous.  It keeps ``replicate_ranks``
    row-major, in the narrowest signed integer type that holds a rank of S
    solvers: int8 when S < 2**7, int16 when S < 2**15, else int32.  Any
    layout gives the same statistics.  Column order is fixed by
    ``solver_order`` (the dataset solver list); ``provenance`` records the
    master seed, stratification flag and mechanism id the matrix was
    generated under.
    """

    k: int
    scores: np.ndarray
    replicate_ranks: np.ndarray
    solver_order: tuple[str, ...]
    provenance: dict

    @cached_property
    def _solver_index(self) -> dict[str, int]:
        return {solver: j for j, solver in enumerate(self.solver_order)}

    def solver_idx(self, solver: str) -> int:
        try:
            return self._solver_index[solver]
        except KeyError:
            raise ValueError(f"unknown solver id {solver!r}") from None

    def column(self, solver: str) -> np.ndarray:
        return self.scores[:, self.solver_idx(solver)]

    @cached_property
    def median_scores(self) -> np.ndarray:
        """Nearest-rank median of each score column, in ``solver_order``:
        each column is sorted once, for robust ranking and the report."""
        return column_quantiles(self.scores, (0.5,))[0]

    @cached_property
    def first_places(self) -> np.ndarray:
        """Per solver, in ``solver_order``, the replicates in which no
        solver out-scores it: one scan of the columns, for the win
        fractions and robust ranking's first round."""
        return first_place_counts(self.scores, range(len(self.solver_order)))


def _rank_dtype(solvers: int) -> np.dtype:
    """The narrowest signed integer type that holds a rank of ``solvers``."""
    fitting = (t for t in (np.int8, np.int16) if solvers <= np.iinfo(t).max)
    return np.dtype(next(fitting, np.int32))


def _check_memory(k: int, solvers: int, draw_entries: int) -> None:
    """Refuse a replicate count whose peak cannot fit in physical memory.

    The kept arrays are the k x S float64 scores and the k x S ranks, 1, 2
    or 4 bytes a cell by :func:`_rank_dtype`, so ``k * S * (8 + rank bytes)``.
    Every pass over them or over the replicate counts works in blocks of
    :func:`block_rows` rows, and a block is ranked as soon as it is scored.
    A count block and its one product with :attr:`Scorer.stack`, which
    holds the totals of the mechanism, of every tiebreak key and of the
    runs drawn, each fit one block, whatever the chain.  While a block is
    summed, its workspace is the count block, the product and a mean's
    scores; while it is ranked, the chain totals (at most the product)
    and the min-ranks sort, about 16 bytes per ranked entry plus up to
    about 150 KB of index-iterator buffers (see :func:`min_ranks_rows`),
    written straight into the kept ranks.  So three float64 blocks are
    counted for it (``tracemalloc``: 14 bytes per block entry on a 50 x 20
    table).  The drawn-ahead chunk, at most ``block_rows(16)`` uint64
    entries (128 KiB at the default budget), lives beside that workspace
    and is counted twice, which covers the raw words a fill adds, half a
    chunk.  One draw adds the ``draw_entries`` int64 entries of the arrays
    it makes.  (A wide input's count block, product and draw chunk may
    instead match its stacked limbs and its instance count, which are
    dataset-sized.)
    """
    kept = k * solvers * (8 + _rank_dtype(solvers).itemsize)
    blocks = 8 * 3 * block_rows(1)
    need = kept + blocks + 8 * 2 * block_rows(16) + 8 * draw_entries
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if 0 < physical < need:
        raise ValueError(
            f"{k} replicates of {solvers} solvers need {need / 2**30:,.1f} GiB to score "
            f"and rank, more than the {physical / 2**30:,.1f} GiB of physical memory"
        )


def _largest_draw(d: Dataset, stratified: bool) -> int:
    """The most runs one replicate can draw: every position on the
    instance with the most runs, of all instances or, stratified, of the
    position's stratum (n when every instance has as many runs)."""
    counts = d.instance_layout[1]
    if not stratified:
        return len(d.instances) * int(counts.max())
    order, _, _, starts = d.stratum_layout
    firsts = np.flatnonzero(np.diff(starts, prepend=-1))  # each stratum's first position
    most = np.maximum.reduceat(counts[order], firsts)
    return int(most @ np.diff(firsts, append=len(order)))


def generate_score_matrix(d: Dataset, cfg: AnalysisConfig, threads: int = 1) -> ScoreMatrix:
    """Score ``cfg.replicates_k`` bootstrap replicates of the competition.

    Row ``i`` is replicate ``i`` of ``cfg.master_seed`` under stream spec
    v3 (see the module docstring); a mean mechanism divides each row by
    the number of runs it drew.  Each row's runs come from its public draw
    function, and the row is scored from how often each instance was
    drawn, over per-instance totals of the contributions
    (:attr:`~rankbench.scoring.Scorer.stack`, one product per block of
    replicates): exact sums, so the scores are those of the runs.
    Replicates are generated on one thread: ``threads`` is accepted for
    compatibility and changes neither the output nor the speed.  Scoring
    failures (a selected run without a contribution, a total beyond the
    float64 range) report the smallest failing replicate index.
    """
    n = len(d.runs)
    if n < 1:
        raise ValueError("dataset has no runs to resample")
    k = cfg.replicates_k
    instances = len(d.instances)
    width = 0 if d.run_rows is None else d.run_rows.shape[1]  # 0: ragged
    # One draw's int64 arrays: its positions and runs, none when a uniform
    # draw of one run per instance returns its positions; on ragged data
    # also its runs' offsets, its instances' run counts and spans and a
    # stratified draw's instances.
    largest = _largest_draw(d, cfg.stratified)
    draw_entries = instances + largest if cfg.stratified or width != 1 else 0
    if not width:
        draw_entries += (3 if cfg.stratified else 2) * instances + largest
    _check_memory(k, len(d.solvers), draw_entries)
    scorer = Scorer(d, cfg.mechanism, cfg.tiebreak)
    draw = draw_stratified_replicate if cfg.stratified else draw_uniform_replicate
    moduli = d.stratum_layout[2] if cfg.stratified else instances
    ahead = _DrawnAhead(cfg.master_seed, k, moduli)
    # Column-major: the report reads the scores column by column (see
    # ScoreMatrix); each block is written and ranked as a row slice.
    scores = np.empty((k, len(d.solvers)), dtype=np.float64, order="F")
    ranks = np.empty((k, len(d.solvers)), dtype=_rank_dtype(len(d.solvers)))
    # A drawn instance brings its first run once, so the count of its first
    # run is its count: every W-th entry of a draw is a first run when
    # every instance has W runs, and on ragged data any entry may be one.
    runs, _, starts = d.instance_layout
    firsts = runs[starts]

    def fill_block(start: int, stop: int) -> list[np.ndarray]:
        """Write the block's scores and return its chain totals."""
        # Block-local, so it is freed before min_ranks_rows' workspace;
        # every row is written.
        counts = np.empty((stop - start, instances), dtype=np.float64)
        failures = []
        for i in range(start, stop):
            entries = draw(d, ahead.at(i))
            message = None if failures else scorer.missing(entries)
            if message is not None:
                failures.append((i, message))
            if width == 1:  # instance j is run j
                counts[i - start] = np.bincount(entries, minlength=n)
            else:
                counts[i - start] = np.bincount(entries[:: width or 1], minlength=n)[firsts]
        # One product per block, for the mechanism, every tiebreak key and
        # the runs drawn.  aggregate_from_counts is looked up in this module
        # at every call, so a wrapper set on the module sees each one.
        block_scores, block_chains, overflow = scorer.rows(
            aggregate_from_counts(scorer.stack, counts)
        )
        if overflow is not None:
            failures.append((start + overflow[0], overflow[1]))
        if failures:  # the first failing replicate; a missing entry first
            index, message = min(failures, key=lambda failure: failure[0])
            raise ScoringError(f"replicate {index}: {message}")
        scores[start:stop] = block_scores
        return block_chains

    # The count block and its product with the stack each fit one block,
    # except that a wide input gets up to 256 rows, no more than the stack
    # has rows or columns: each product packs the whole stack again, which
    # made 100 x 5000 about 25% slower at 52 rows than at 201, and neither
    # the count block nor the product is then larger than the stack.
    rows = len(scorer.stack)
    block = max(block_rows(max(instances, rows)), min(rows, instances, 256))
    for start in range(0, k, block):
        stop = min(start + block, k)
        # The chain totals are a temporary, freed once the block is ranked
        # straight into the kept ranks.
        min_ranks_rows(scores[start:stop], fill_block(start, stop), out=ranks[start:stop])
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
