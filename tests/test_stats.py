"""Percentile CIs, the one-sided bootstrap test, and Holm-Bonferroni."""

import itertools
import random

import numpy as np
import pytest

import rankbench.scoring as scoring
from rankbench.stats import (
    bootstrap_p,
    column_quantiles,
    holm_bonferroni,
    nearest_rank_index,
    percentile_ci,
)

from helpers import (
    matrix_from_columns,
    oracle_holm,
    oracle_median,
    oracle_nearest_rank_index,
)


class TestNearestRankIndex:
    @pytest.mark.parametrize(
        "q,k,expected",
        [
            ("0.025", 10_000, 250),
            ("0.975", 10_000, 9_750),
            ("0.5", 10, 5),
            ("0.05", 100, 5),
            ("0.95", 100, 95),
            ("0.5", 1, 1),
            ("0.001", 3, 1),
            ("0.999", 3, 3),
        ],
    )
    def test_known_indices(self, q, k, expected):
        assert nearest_rank_index(float(q), k) == expected
        assert oracle_nearest_rank_index(q, k) == expected

    def test_matches_exact_rational_oracle_on_grid(self):
        quantiles = ["0.01", "0.025", "0.05", "0.1", "0.25", "0.5", "0.75",
                     "0.9", "0.95", "0.975", "0.99"]
        for q in quantiles:
            for k in [1, 2, 3, 7, 10, 40, 99, 100, 101, 2000, 10_000]:
                assert nearest_rank_index(float(q), k) == oracle_nearest_rank_index(q, k), (q, k)


class TestPercentileCi:
    def test_constant_samples(self):
        ci = percentile_ci([3.5] * 40, alpha=0.05)
        assert (ci.lower, ci.upper) == (3.5, 3.5)

    def test_one_to_hundred(self):
        ci = percentile_ci(list(range(1, 101)), alpha=0.1)
        assert (ci.lower, ci.upper) == (5.0, 95.0)

    def test_ten_thousand_order_statistics(self):
        samples = np.arange(1, 10_001, dtype=np.float64)
        ci = percentile_ci(samples, alpha=0.05)
        assert (ci.lower, ci.upper) == (250.0, 9_750.0)

    def test_bounds_are_sample_elements(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            samples = rng.normal(size=rng.integers(1, 200))
            ci = percentile_ci(samples, alpha=0.05)
            assert ci.lower in samples and ci.upper in samples
            assert ci.lower <= ci.upper

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(6)
        samples = rng.normal(size=500)
        alphas = [0.01, 0.05, 0.1, 0.2, 0.5]
        for narrow, wide in zip(alphas, alphas[1:]):
            outer = percentile_ci(samples, narrow)
            inner = percentile_ci(samples, wide)
            assert outer.lower <= inner.lower
            assert inner.upper <= outer.upper

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            percentile_ci([], alpha=0.05)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 2.0])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            percentile_ci([1.0], alpha=alpha)


class TestBootstrapP:
    def test_strict_dominance_gives_zero(self):
        m = matrix_from_columns(a=[3, 4, 5], b=[1, 2, 3.5])
        out = bootstrap_p(m, "a", "b")
        assert out.p_value == 0.0
        assert out.rejected

    def test_identical_columns_give_one(self):
        m = matrix_from_columns(a=[2, 2, 2], b=[2, 2, 2])
        out = bootstrap_p(m, "a", "b")
        assert out.p_value == 1.0
        assert not out.rejected

    def test_ratio_and_strict_alpha(self):
        k = 10_000
        a = np.ones(k)
        b = np.zeros(k)
        b[:230] = 1.0  # ties count toward p
        m = matrix_from_columns(a=a, b=b)
        out = bootstrap_p(m, "a", "b", alpha=0.05)
        assert out.p_value == pytest.approx(0.023)
        assert out.rejected

    def test_p_equal_alpha_is_not_rejected(self):
        a = np.ones(100)
        b = np.zeros(100)
        b[:5] = 2.0
        out = bootstrap_p(matrix_from_columns(a=a, b=b), "a", "b", alpha=0.05)
        assert out.p_value == 0.05
        assert not out.rejected

    def test_same_solver_rejected(self):
        m = matrix_from_columns(a=[1.0], b=[2.0])
        with pytest.raises(ValueError, match="distinct"):
            bootstrap_p(m, "a", "a")

    def test_unknown_solver(self):
        m = matrix_from_columns(a=[1.0], b=[2.0])
        with pytest.raises(ValueError, match="unknown solver"):
            bootstrap_p(m, "a", "zzz")

    def test_complementarity_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k = int(rng.integers(1, 60))
            a = rng.integers(0, 4, size=k).astype(np.float64)
            b = rng.integers(0, 4, size=k).astype(np.float64)
            m = matrix_from_columns(a=a, b=b)
            p_ab = bootstrap_p(m, "a", "b").p_value
            p_ba = bootstrap_p(m, "b", "a").p_value
            ties = int(np.count_nonzero(a == b))
            assert p_ab + p_ba >= 1.0
            assert (p_ab + p_ba == 1.0) == (ties == 0)


class TestHolmBonferroni:
    def test_all_rejected(self):
        assert holm_bonferroni([0.01, 0.02, 0.04], alpha=0.05) == {0, 1, 2}

    def test_none_rejected(self):
        assert holm_bonferroni([0.03, 0.2, 0.9], alpha=0.05) == set()

    def test_prefix_only(self):
        assert holm_bonferroni([0.001, 0.03, 0.04], alpha=0.05) == {0}

    def test_single_hypothesis(self):
        assert holm_bonferroni([0.049], alpha=0.05) == {0}
        assert holm_bonferroni([0.05], alpha=0.05) == set()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            holm_bonferroni([], alpha=0.05)

    @pytest.mark.parametrize("p", [-0.01, 1.01])
    def test_out_of_range_p(self, p):
        with pytest.raises(ValueError):
            holm_bonferroni([p], alpha=0.05)

    def test_matches_oracle_on_small_grid(self):
        grid = [0.001, 0.01, 0.02, 0.03, 0.04, 0.06, 0.2, 1.0]
        for m in range(1, 5):
            for ps in itertools.product(grid, repeat=m):
                assert holm_bonferroni(list(ps), 0.05) == oracle_holm(list(ps), 0.05), ps

    def test_between_bonferroni_and_uncorrected(self):
        rng = random.Random(13)
        for _ in range(200):
            m = rng.randint(1, 9)
            ps = [rng.random() for _ in range(m)]
            alpha = rng.choice([0.01, 0.05, 0.1])
            holm = holm_bonferroni(ps, alpha)
            bonferroni = {i for i, p in enumerate(ps) if p < alpha / m}
            uncorrected = {i for i, p in enumerate(ps) if p < alpha}
            assert bonferroni <= holm <= uncorrected

    def test_permutation_invariant(self):
        rng = random.Random(14)
        ps = [0.001, 0.01, 0.02, 0.2, 0.04, 0.06]
        base = {ps[i] for i in holm_bonferroni(ps, 0.05)}
        for _ in range(20):
            shuffled = ps[:]
            rng.shuffle(shuffled)
            got = {shuffled[i] for i in holm_bonferroni(shuffled, 0.05)}
            assert got == base

    def test_rejections_grow_with_alpha(self):
        rng = random.Random(15)
        for _ in range(100):
            ps = [rng.random() for _ in range(rng.randint(1, 8))]
            previous: set[int] = set()
            for alpha in (0.001, 0.01, 0.05, 0.1, 0.3, 0.7, 0.99):
                current = holm_bonferroni(ps, alpha)
                assert previous <= current
                previous = current


class TestColumnQuantiles:
    @pytest.mark.parametrize("budget", [1, 7, 30, 262_144])
    def test_rows_of_the_column_sorted_matrix(self, monkeypatch, budget):
        # A block holds budget // k columns, or one column when k is larger.
        monkeypatch.setattr(scoring, "_BLOCK_ENTRY_BUDGET", budget)
        rng = np.random.default_rng(budget)
        for k, s in ((1, 3), (7, 1), (10, 9), (31, 4)):
            matrix = rng.integers(0, 5, (k, s)).astype(np.float64)
            got = column_quantiles(matrix, (0.5, 0.025, 0.975))
            ordered = np.sort(matrix, axis=0)
            rows = [oracle_nearest_rank_index(q, k) - 1 for q in ("0.5", "0.025", "0.975")]
            assert got.tolist() == ordered[rows].tolist(), (k, s)
            assert got[0].tolist() == [oracle_median(matrix[:, j].tolist()) for j in range(s)]
        ranks = rng.integers(1, 4, (11, 3)).astype(np.int32)
        got = column_quantiles(ranks, (0.25,))
        assert got.dtype == np.int32
        assert got[0].tolist() == np.sort(ranks, axis=0)[2].tolist()

    def test_rank_types_give_equal_quartiles(self):
        # Replicate ranks are kept as int8, int16 or int32 by solver count;
        # few distinct values per column make heavy ties, as ranks do.
        ranks = np.random.default_rng(19).integers(1, 5, (1001, 7))
        rows = [oracle_nearest_rank_index(q, 1001) - 1 for q in ("0.25", "0.5", "0.75")]
        expected = np.sort(ranks, axis=0)[rows].tolist()
        for dtype in (np.int8, np.int16, np.int32):
            got = column_quantiles(ranks.astype(dtype), (0.25, 0.5, 0.75))
            assert got.dtype == dtype
            assert got.tolist() == expected, dtype
