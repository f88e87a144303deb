"""Percentile confidence intervals, the one-sided bootstrap test and the
Holm-Bonferroni step-down correction.

Quantiles everywhere are nearest-rank: the q-quantile of k sorted samples is
the element at 1-based index ceil(q * k), clamped to [1, k], with no
interpolation.  Bounds are therefore always observed sample values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, TYPE_CHECKING

import numpy as np

from .scoring import block_rows

if TYPE_CHECKING:
    from .resampling import ScoreMatrix

__all__ = [
    "ConfidenceInterval",
    "HolmStep",
    "TestOutcome",
    "bootstrap_p",
    "column_quantiles",
    "first_place_counts",
    "holm_bonferroni",
    "holm_steps",
    "nearest_rank_index",
    "percentile_ci",
]

# Absolute slack when taking ceil(q * k): decimal quantiles like 0.025 are
# not exact binary floats, and 0.025 * 10000 must select index 250, not 251.
_CEIL_EPS = 1e-9


@dataclass(frozen=True)
class ConfidenceInterval:
    """Two-sided (1 - alpha) percentile interval [lower, upper]."""

    lower: float
    upper: float
    alpha: float


@dataclass(frozen=True)
class TestOutcome:
    """One-sided bootstrap test result; rejected iff p_value < alpha (strict)."""

    p_value: float
    rejected: bool


def nearest_rank_index(q: float, k: int) -> int:
    """1-based nearest-rank index for quantile ``q`` of ``k`` samples."""
    index = math.ceil(q * k - _CEIL_EPS)
    return min(max(index, 1), k)


def column_quantiles(matrix: np.ndarray, qs: Sequence[float]) -> np.ndarray:
    """Nearest-rank quantiles ``qs`` of every column of a (k x S) matrix,
    as a (len(qs), S) array.

    Each column is sorted once, as many columns at a time as fit one block
    of :func:`~rankbench.scoring.block_rows`, so the workspace is one block
    (or one column, when a column alone is larger) whatever k and S.
    """
    k, s = matrix.shape
    rows = [nearest_rank_index(q, k) - 1 for q in qs]
    out = np.empty((len(rows), s), dtype=matrix.dtype)
    step = block_rows(k)  # columns per block
    # numpy's stable sort of 1-byte values is a radix sort, about ten times
    # faster than its default sort of them; for wider types the default wins.
    kind = "stable" if matrix.dtype.itemsize == 1 else None
    for start in range(0, s, step):
        columns = matrix[:, start : start + step]
        out[:, start : start + step] = np.sort(columns, axis=0, kind=kind)[rows]
    return out


def first_place_counts(matrix: np.ndarray, columns: Sequence[int]) -> np.ndarray:
    """Per listed column of a (k x S) matrix, as int64, the rows in which
    it ties or takes the row maximum over the listed columns.

    Every pass runs down one column, ``block_rows(1)`` rows at a time: the
    elementwise maximum of the columns' segments is the rows' top, then
    each segment counts its entries equal to it.  On a column-major matrix
    each segment is contiguous.  The workspace is one block of tops and
    one of comparisons, whatever k and S.
    """
    counts = np.zeros(len(columns), dtype=np.int64)
    step = block_rows(1)
    for start in range(0, len(matrix), step):
        segments = [matrix[start : start + step, j] for j in columns]
        top = segments[0].copy()
        for segment in segments[1:]:
            np.maximum(top, segment, out=top)
        counts += [np.count_nonzero(segment == top) for segment in segments]
    return counts


def percentile_ci(samples: Sequence[float] | np.ndarray, alpha: float) -> ConfidenceInterval:
    """Percentile-method CI: the alpha/2 and (1 - alpha/2) sample quantiles."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("percentile_ci requires a non-empty sample list")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    lower, upper = column_quantiles(samples.reshape(-1, 1), (alpha / 2.0, 1.0 - alpha / 2.0))
    return ConfidenceInterval(lower=float(lower[0]), upper=float(upper[0]), alpha=alpha)


def bootstrap_p(m: "ScoreMatrix", s1: str, s2: str, alpha: float = 0.05) -> TestOutcome:
    """Test H0: s1 performs equal to or worse than s2.

    The p-value is the fraction of bootstrap replicates in which the score
    of ``s1`` is less than or equal to that of ``s2``; H0 is rejected iff
    that fraction is strictly below ``alpha``.
    """
    if s1 == s2:
        raise ValueError("bootstrap_p requires two distinct solvers")
    c1 = m.column(s1)
    c2 = m.column(s2)
    p = float(np.count_nonzero(c1 <= c2)) / m.k
    return TestOutcome(p_value=p, rejected=p < alpha)


@dataclass(frozen=True)
class HolmStep:
    """One test of a Holm walk: its input position, p-value, threshold and verdict."""

    index: int
    p_value: float
    threshold: float
    rejected: bool


def holm_steps(p_values: Sequence[float], alpha: float) -> list[HolmStep]:
    """Step-down Holm correction, one row per test in Holm order.

    Sort the m p-values ascending (stable) and walk i = 1..m comparing
    against alpha / (m + 1 - i).  The walk stops at the first index whose
    p-value fails (is >= ) its threshold; everything strictly before it is
    rejected.  If the first comparison fails nothing is rejected; if none
    fails everything is.
    """
    for p in p_values:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p-values must lie in [0, 1], got {p}")
    m = len(p_values)
    order = sorted(range(m), key=lambda j: p_values[j])
    steps = []
    stopped = False
    for step, j in enumerate(order, start=1):
        threshold = alpha / (m + 1 - step)
        stopped = stopped or p_values[j] >= threshold
        steps.append(HolmStep(j, p_values[j], threshold, not stopped))
    return steps


def holm_bonferroni(p_values: Sequence[float], alpha: float) -> set[int]:
    """Indices of the hypotheses :func:`holm_steps` rejects."""
    if len(p_values) < 1:
        raise ValueError("holm_bonferroni requires at least one p-value")
    return {step.index for step in holm_steps(p_values, alpha) if step.rejected}
