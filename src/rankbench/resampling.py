"""Deterministic bootstrap replicate generation and the replicate score matrix.

Reproducibility scheme (fixed, so matrices are comparable across
implementations and across any degree of parallelism):

* Replicate ``i`` draws from its own substream: a Philox-4x64-10 counter
  generator keyed with the two 64-bit words ``(master_seed, i)``, counter
  starting at zero, consuming the standard Philox output word sequence.
* A raw 64-bit word ``x`` maps to a run index in ``[0, n)`` rejection-free
  via the multiply-shift ``floor(x * n / 2**64)``.
* Uniform replicates consume ``|R|`` words.  Stratified replicates consume
  the words stratum by stratum, strata in order of first appearance over
  the run list, one word per drawn entry.

Because a replicate is a pure function of ``(master_seed, i)``, evaluation
order and worker count can never change a row.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import AnalysisConfig, Dataset
from .scoring import (
    MECHANISMS,
    ScoringError,
    aggregate_from_counts,
    find_missing_entry,
    min_ranks_rows,
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

# Keep per-worker index blocks around a few MB regardless of |R|.
_BLOCK_ENTRY_BUDGET = 2_000_000


class ReplicateStream:
    """The deterministic substream of one bootstrap replicate."""

    def __init__(self, master_seed: int, index: int):
        key = np.array([master_seed, index], dtype=np.uint64)
        self._bit_generator = np.random.Philox(key=key)

    def words(self, count: int) -> np.ndarray:
        """Next ``count`` raw 64-bit words of the substream."""
        return self._bit_generator.random_raw(count)


def _bounded_indices(words: np.ndarray, n: int) -> np.ndarray:
    """Map raw 64-bit words to [0, n) via multiply-shift (exact, no bias loop).

    Computes floor(word * n / 2**64) in uint64 arithmetic by splitting the
    word into 32-bit halves; requires n < 2**31.
    """
    if not 0 < n < 2**31:
        raise ValueError(f"run count {n} out of supported range [1, 2**31)")
    n64 = np.uint64(n)
    hi = words >> _U32
    lo = words & _MASK32
    return ((hi * n64 + ((lo * n64) >> _U32)) >> _U32).astype(np.int64)


def draw_uniform_replicate(d: Dataset, rng: ReplicateStream) -> np.ndarray:
    """|R| run indices drawn i.i.d. uniformly over R, with replacement."""
    n = len(d.runs)
    if n < 1:
        raise ValueError("dataset has no runs to resample")
    return _bounded_indices(rng.words(n), n)


def draw_stratified_replicate(d: Dataset, rng: ReplicateStream) -> np.ndarray:
    """Per-stratum resampling: each stratum contributes exactly as many
    run indices as it has runs, drawn with replacement within the stratum;
    indices are concatenated in stratum order."""
    if len(d.runs) < 1:
        raise ValueError("dataset has no runs to resample")
    parts = []
    for label in d.stratum_order:
        members = d.stratum_members[label]
        m = len(members)
        parts.append(members[_bounded_indices(rng.words(m), m)])
    return np.concatenate(parts)


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

    def rank_column(self, solver: str) -> np.ndarray:
        return self.replicate_ranks[:, self.solver_idx(solver)]


def generate_score_matrix(d: Dataset, cfg: AnalysisConfig, threads: int = 1) -> ScoreMatrix:
    """Score ``cfg.replicates_k`` bootstrap replicates of the competition.

    Row ``i`` comes from the substream keyed ``(cfg.master_seed, i)``; the
    output is bit-identical for a fixed config regardless of ``threads``.
    Scoring failures report the smallest failing replicate index.
    """
    mech = resolve_mechanism(cfg.mechanism)
    n = len(d.runs)
    if n < 1:
        raise ValueError("dataset has no runs to resample")
    k = cfg.replicates_k
    contributions = run_contributions(d, mech)
    bad_runs = np.isnan(contributions).any(axis=0)
    limbs = split_limbs(contributions, n)
    chain_limbs = [split_limbs(mat, n) for mat in tiebreak_run_matrices(d, cfg.tiebreak)]
    finish = MECHANISMS[mech.name].finish

    scores = np.empty((k, len(d.solvers)), dtype=np.float64)
    chains = [np.empty((k, len(d.solvers)), dtype=np.float64) for _ in chain_limbs]

    def fill_block(start: int, stop: int) -> int | None:
        first_bad = None
        counts = np.zeros((stop - start, n), dtype=np.float64)
        for i in range(start, stop):
            entries = _draw_entries(d, cfg.stratified, cfg.master_seed, i)
            if bad_runs.any() and bad_runs[entries].any() and first_bad is None:
                first_bad = i
            counts[i - start] = np.bincount(entries, minlength=n)
        scores[start:stop] = finish(aggregate_from_counts(limbs, counts), n)
        for parts, out in zip(chain_limbs, chains):
            out[start:stop] = aggregate_from_counts(parts, counts)
        return first_bad

    block = max(1, _BLOCK_ENTRY_BUDGET // n)
    spans = [(start, min(start + block, k)) for start in range(0, k, block)]
    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            bad_indices = list(pool.map(lambda span: fill_block(*span), spans))
    else:
        bad_indices = [fill_block(*span) for span in spans]

    failures = [i for i in bad_indices if i is not None]
    if failures:
        index = min(failures)
        entries = _draw_entries(d, cfg.stratified, cfg.master_seed, index)
        message = find_missing_entry(d, mech, contributions, entries)
        raise ScoringError(f"replicate {index}: {message}")

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
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["replicate", *m.solver_order]) + "\n")
        for i in range(m.k):
            row = ",".join(repr(float(v)) for v in m.scores[i])
            fh.write(f"{i},{row}\n")
