"""Robust grouping, win fractions, fractional ranks and the diagnostics."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import rankbench.scoring as scoring
from rankbench.ranking import (
    RankGroup,
    RobustRanking,
    empirical_win_fractions,
    fractional_ranks,
    inversion_count,
    robust_ranking,
    tied_pair_count,
)
from rankbench.report import build_report, canonical_json
from rankbench.resampling import ScoreMatrix, generate_score_matrix
from rankbench.scoring import OfficialRanking, min_ranks_rows
from rankbench.stats import bootstrap_p, first_place_counts

from helpers import (
    config,
    matrix_from_columns,
    oracle_first_place_counts,
    oracle_median,
    oracle_nearest_rank_index,
    oracle_robust_partition,
    success_table_dataset,
)


def grouping(*member_lists) -> RobustRanking:
    sizes = [len(g) for g in member_lists]
    ranks = fractional_ranks(sizes)
    groups = tuple(
        RankGroup(index=i, members=tuple(g), fractional_rank=r)
        for i, (g, r) in enumerate(zip(member_lists, ranks), start=1)
    )
    return RobustRanking(groups=groups, iteration_log=())


def official(*order, ranks=None) -> OfficialRanking:
    ranks = ranks or {s: i for i, s in enumerate(order, start=1)}
    # Scores that agree with the ranks: a better rank scores higher.
    return OfficialRanking(
        order=tuple(order), ranks=ranks, scores={s: -float(r) for s, r in ranks.items()}
    )


class TestWinFractions:
    def test_identical_columns_both_win_everywhere(self):
        m = matrix_from_columns(a=[5, 5, 5], b=[5, 5, 5])
        wins = empirical_win_fractions(m)
        assert wins == {"a": 1.0, "b": 1.0}
        assert sum(wins.values()) > 1.0

    def test_dominated_solver_never_wins(self):
        m = matrix_from_columns(a=[5, 6, 7], b=[1, 2, 3])
        assert empirical_win_fractions(m)["b"] == 0.0

    def test_hand_counted_fractions(self):
        rows = [[5, 1, 2]] * 6 + [[1, 5, 2]] * 3 + [[1, 2, 5]] * 1
        scores = np.array(rows, dtype=np.float64)
        m = ScoreMatrix(
            k=10, scores=scores, replicate_ranks=min_ranks_rows(scores, []),
            solver_order=("A", "B", "C"), provenance={},
        )
        assert empirical_win_fractions(m) == {"A": 0.6, "B": 0.3, "C": 0.1}


def random_matrix(scores) -> ScoreMatrix:
    scores = np.asarray(scores, dtype=np.float64)
    return ScoreMatrix(
        k=scores.shape[0], scores=scores, replicate_ranks=min_ranks_rows(scores, []),
        solver_order=tuple(f"s{i}" for i in range(scores.shape[1])), provenance={},
    )


def assert_round_winners(m: ScoreMatrix, rr: RobustRanking) -> None:
    """Each round's winner is the oracle's among that round's solvers."""
    rows, ids = m.scores.tolist(), m.solver_order
    remaining = list(range(len(ids)))
    for record in rr.iteration_log:
        counts = oracle_first_place_counts(rows, remaining)
        expected = min(
            remaining,
            key=lambda j: (-counts[j], -oracle_median([row[j] for row in rows]), ids[j]),
        )
        assert record.winner == ids[expected]
        remaining = [j for j in remaining if ids[j] in record.rejected]


def first_winner(m: ScoreMatrix) -> str:
    return robust_ranking(m, 0.05).iteration_log[0].winner


class TestSelectWinner:
    def test_plain_argmax(self):
        a = np.concatenate([np.full(9000, 2.0), np.full(1000, 0.0)])
        b = np.concatenate([np.full(9000, 1.0), np.full(1000, 1.0)])
        assert first_winner(matrix_from_columns(A=a, B=b)) == "A"

    def test_count_tie_broken_by_median(self):
        # counts tied 2:2 (one shared first), medians 410 vs 400
        m = matrix_from_columns(A=[410, 420, 100], B=[410, 100, 400])
        assert first_winner(m) == "A"
        # the same columns swapped: the median, not the solver id, decides
        m = matrix_from_columns(A=[410, 100, 400], B=[410, 420, 100])
        assert first_winner(m) == "B"

    def test_full_tie_broken_by_solver_id(self):
        m = matrix_from_columns(zz=[1, 2], aa=[1, 2])
        assert first_winner(m) == "aa"

    def test_single_solver(self):
        assert first_winner(matrix_from_columns(only=[3, 1])) == "only"


class TestFractionalRanks:
    def test_main_track_group_sizes(self):
        assert fractional_ranks([17, 10, 1, 1]) == [9.0, 22.5, 28.0, 29.0]

    def test_singletons(self):
        assert fractional_ranks([1, 1, 1]) == [1.0, 2.0, 3.0]

    def test_mid_rank_pairs(self):
        assert fractional_ranks([2, 2]) == [1.5, 3.5]

    def test_rank_sum_is_conserved(self):
        rng = random.Random(3)
        for _ in range(1000):
            total = rng.randint(1, 50)
            sizes = []
            while total:
                size = rng.randint(1, total)
                sizes.append(size)
                total -= size
            ranks = fractional_ranks(sizes)
            n = sum(sizes)
            rank_sum = sum(r * size for r, size in zip(ranks, sizes))
            assert rank_sum == pytest.approx(n * (n + 1) / 2)

    def test_positive_sizes_required(self):
        with pytest.raises(ValueError):
            fractional_ranks([2, 0])


class TestRobustRanking:
    def test_identical_solvers_form_one_group(self):
        m = matrix_from_columns(a=[4, 4, 4], b=[4, 4, 4], c=[4, 4, 4])
        rr = robust_ranking(m, alpha=0.05)
        assert [g.members for g in rr.groups] == [("a", "b", "c")]
        assert rr.groups[0].fractional_rank == 2.0

    def test_strict_dominance_gives_singletons(self):
        m = matrix_from_columns(a=[9, 8, 9], b=[5, 6, 5], c=[1, 2, 1])
        rr = robust_ranking(m, alpha=0.05)
        assert [g.members for g in rr.groups] == [("a",), ("b",), ("c",)]
        assert [g.fractional_rank for g in rr.groups] == [1.0, 2.0, 3.0]

    def test_winner_is_in_group_one(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            k, s = int(rng.integers(3, 50)), int(rng.integers(2, 6))
            m = random_matrix(rng.integers(0, 5, size=(k, s)))
            rr = robust_ranking(m, alpha=0.05)
            assert_round_winners(m, rr)
            assert rr.iteration_log[0].winner in rr.groups[0].members

    def test_later_round_winners_match_the_oracle(self):
        # Three tiers of two solvers each, so the loop runs several rounds and
        # first places among the remaining solvers differ from those among all.
        rng = np.random.default_rng(10)
        rounds = 0
        for _ in range(20):
            tiers = rng.permutation(np.repeat([0, 4, 8], 2))
            m = random_matrix(tiers + rng.integers(0, 4, size=(60, 6)))
            rr = robust_ranking(m, alpha=0.05)
            assert_round_winners(m, rr)
            rounds += len(rr.iteration_log)
        assert rounds >= 60

    def test_group_members_ordered_by_median_then_id(self):
        m = matrix_from_columns(
            low=[3, 3, 1, 1], bb=[2, 2, 2, 2], aa=[2, 2, 2, 2], top=[3, 3, 3, 3]
        )
        rr = robust_ranking(m, alpha=0.4)
        assert rr.groups[0].members[0] == "top"
        flat = [s for g in rr.groups for s in g.members]
        # equal medians fall back to solver id
        assert flat.index("aa") < flat.index("bb")

    def test_fractional_ranks_sum_invariant(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            k, s = int(rng.integers(2, 60)), int(rng.integers(1, 7))
            scores = rng.normal(size=(k, s)).round(1)
            m = ScoreMatrix(
                k=k, scores=scores, replicate_ranks=min_ranks_rows(scores, []),
                solver_order=tuple(f"s{i}" for i in range(s)), provenance={},
            )
            rr = robust_ranking(m, alpha=float(rng.uniform(0.01, 0.5)))
            total = sum(rr.fractional_rank.values())
            assert total == pytest.approx(s * (s + 1) / 2)
            assert [g.index for g in rr.groups] == list(range(1, len(rr.groups) + 1))
            members = [s_ for g in rr.groups for s_ in g.members]
            assert sorted(members) == sorted(m.solver_order)

    def test_matches_brute_force_transcription(self):
        rng = np.random.default_rng(10)
        for trial in range(60):
            k = int(rng.integers(2, 200))
            s = int(rng.integers(1, 7))
            scale = rng.choice([1.0, 4.0])
            scores = np.round(rng.normal(0, scale, size=(k, s)))
            m = ScoreMatrix(
                k=k, scores=scores, replicate_ranks=min_ranks_rows(scores, []),
                solver_order=tuple(f"s{i}" for i in range(s)), provenance={},
            )
            alpha = float(rng.choice([0.01, 0.05, 0.2]))
            mine = [frozenset(g.members) for g in robust_ranking(m, alpha).groups]
            want = oracle_robust_partition(scores.tolist(), list(m.solver_order), alpha)
            assert mine == want, trial

    def test_group_count_can_drop_as_alpha_rises(self):
        # raising alpha rejects more solvers out of the first group, which
        # can hand a later iteration a composition that merges; the group
        # count is therefore NOT monotone in alpha, and no test asserts it
        rows = [
            [5, 2, 6, 8, 5], [6, 0, 7, 9, 7], [3, 0, 8, 8, 5],
            [0, 0, 3, 9, 1], [6, 8, 9, 6, 7], [9, 2, 5, 1, 5],
            [3, 2, 7, 2, 5], [7, 0, 8, 5, 9], [6, 6, 8, 3, 8],
            [0, 8, 6, 2, 7], [0, 4, 8, 2, 4],
        ]
        scores = np.array(rows, dtype=np.float64)
        m = ScoreMatrix(
            k=11, scores=scores, replicate_ranks=min_ranks_rows(scores, []),
            solver_order=("s0", "s1", "s2", "s3", "s4"), provenance={},
        )
        for alpha, want_groups in ((0.7, 3), (0.9, 2)):
            rr = robust_ranking(m, alpha)
            assert len(rr.groups) == want_groups
            mine = [frozenset(g.members) for g in rr.groups]
            oracle = oracle_robust_partition(rows, list(m.solver_order), alpha)
            assert mine == oracle

    def test_tiny_alpha_groups_everything_without_exact_dominance(self):
        # every pairwise ordering occurs at least once, so all p >= 1/k > alpha
        m = matrix_from_columns(a=[3, 1, 2], b=[1, 3, 2], c=[2, 2, 3])
        rr = robust_ranking(m, alpha=1e-9)
        assert len(rr.groups) == 1

    def test_iteration_log_is_audit_complete(self):
        m = matrix_from_columns(a=[9, 9, 9], b=[5, 5, 5], c=[5, 5, 5])
        rr = robust_ranking(m, alpha=0.05)
        log = rr.iteration_log
        assert [rec.winner for rec in log] == ["a", "b"]
        assert set(log[0].p_values) == {"b", "c"}
        assert log[0].p_values["b"] == 0.0
        assert set(log[0].rejected) == {"b", "c"}
        assert [(step.index, step.rejected) for step in log[0].tests] == [(0, True), (1, True)]
        assert log[1].members == ("b", "c")
        assert log[1].rejected == ()

    def test_alpha_validation(self):
        m = matrix_from_columns(a=[1.0], b=[2.0])
        with pytest.raises(ValueError, match="alpha"):
            robust_ranking(m, alpha=0.0)


class TestTiedPairCount:
    def test_main_track_sizes(self):
        rr = grouping(
            [f"g1_{i}" for i in range(17)],
            [f"g2_{i}" for i in range(10)],
            ["g3"],
            ["g4"],
        )
        assert tied_pair_count(rr) == 181

    def test_top10_inside_one_group(self):
        rr = grouping([f"s{i}" for i in range(17)])
        subset = {f"s{i}" for i in range(10)}
        assert tied_pair_count(rr, subset) == 45

    def test_three_solver_group(self):
        assert tied_pair_count(grouping(["a", "b", "c"])) == 3

    def test_all_singletons(self):
        assert tied_pair_count(grouping(["a"], ["b"], ["c"])) == 0

    def test_matches_brute_force_over_small_partitions(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(1, 8)
            solvers = [f"s{i}" for i in range(n)]
            rng.shuffle(solvers)
            groups, rest = [], solvers[:]
            while rest:
                cut = rng.randint(1, len(rest))
                groups.append(rest[:cut])
                rest = rest[cut:]
            rr = grouping(*groups)
            subset = {s for s in solvers if rng.random() < 0.6}
            # brute force: count unordered same-group pairs inside the subset
            want = 0
            for g in groups:
                inside = [s for s in g if s in subset]
                for i in range(len(inside)):
                    for j in range(i + 1, len(inside)):
                        want += 1
            assert tied_pair_count(rr, subset) == want

    def test_unknown_subset_member(self):
        with pytest.raises(ValueError, match="unknown solver"):
            tied_pair_count(grouping(["a"]), {"ghost"})


class TestInversionCount:
    def test_aligned_rankings_have_none(self):
        off = official("a", "b", "c")
        count, pairs = inversion_count(off, grouping(["a"], ["b"], ["c"]))
        assert (count, pairs) == (0, [])

    def test_single_swap_like_main_crafted(self):
        off = official(
            "Splatz", "MapleGlucose", ranks={"Splatz": 13, "MapleGlucose": 14}
        )
        rr = grouping(["MapleGlucose"], ["Splatz"])
        count, pairs = inversion_count(off, rr)
        assert count == 1
        assert pairs == [("MapleGlucose", "Splatz")]

    def test_full_reversal_of_four(self):
        off = official("a", "b", "c", "d")
        rr = grouping(["d"], ["c"], ["b"], ["a"])
        count, pairs = inversion_count(off, rr)
        assert count == 6
        assert len(pairs) == 6

    def test_linear_extension_has_none(self):
        rng = random.Random(19)
        for _ in range(50):
            n = rng.randint(1, 9)
            order = [f"s{i}" for i in range(n)]
            groups, rest = [], order[:]
            while rest:
                cut = rng.randint(1, len(rest))
                groups.append(rest[:cut])
                rest = rest[cut:]
            count, _ = inversion_count(official(*order), grouping(*groups))
            assert count == 0

    def test_ties_in_official_rank_are_not_inversions(self):
        off = official("a", "b", ranks={"a": 1, "b": 1})
        count, _ = inversion_count(off, grouping(["b"], ["a"]))
        assert count == 0

    def test_subset_restriction(self):
        off = official("a", "b", "c", "d")
        rr = grouping(["d"], ["c"], ["b"], ["a"])
        count, pairs = inversion_count(off, rr, subset={"a", "d"})
        assert count == 1
        assert pairs == [("d", "a")]

    def test_universe_mismatch(self):
        with pytest.raises(ValueError, match="different solvers"):
            inversion_count(official("a", "b"), grouping(["a"]))


class TestMeanRankIqr:
    """The report's ``mean_rank_iqr`` diagnostic on hand-built rank columns."""

    @staticmethod
    def diagnostics(ranks: dict[str, list[int]], solves: dict[str, int]) -> dict:
        """Report diagnostics of a matrix with the given rank columns, over
        a dataset whose official listing follows the ``solves`` counts."""
        width = max(solves.values())
        d = success_table_dataset(
            {s: [j < n for j in range(width)] for s, n in solves.items()}
        )
        cfg = config("solved_count", replicates_k=len(ranks[d.solvers[0]]))
        m = ScoreMatrix(
            k=cfg.replicates_k,
            scores=np.zeros((cfg.replicates_k, len(d.solvers))),
            replicate_ranks=np.array([ranks[s] for s in d.solvers], dtype=np.int32).T,
            solver_order=d.solvers,
            provenance={"master_seed": 0, "stratified": False, "mechanism": "solved_count"},
        )
        return build_report(d, cfg, m)["diagnostics"]

    @staticmethod
    def oracle(ranks: dict[str, list[int]], subset: list[str]) -> float:
        """Mean of nearest-rank q75 - q25 over ``subset``, in exact rationals."""
        spans = []
        for s in subset:
            column = sorted(ranks[s])
            q25 = column[oracle_nearest_rank_index("0.25", len(column)) - 1]
            q75 = column[oracle_nearest_rank_index("0.75", len(column)) - 1]
            spans.append(q75 - q25)
        return float(Fraction(sum(spans), len(spans)))

    def test_constant_ranking_has_zero_iqr(self):
        ranks = {f"s{i}": [i + 1] * 12 for i in range(4)}
        diagnostics = self.diagnostics(ranks, {f"s{i}": 4 - i for i in range(4)})
        assert [diag["mean_rank_iqr"] for diag in diagnostics.values()] == [0.0] * 3

    def test_hand_built_rank_column(self):
        # both rank columns are [1,1,2,2]: q75 - q25 = 2 - 1 = 1
        ranks = {"a": [1, 1, 2, 2], "b": [2, 2, 1, 1]}
        diag = self.diagnostics(ranks, {"a": 2, "b": 1})["all"]
        assert diag["mean_rank_iqr"] == 1.0 == self.oracle(ranks, ["a", "b"])

    def test_subset_mean(self):
        ranks = {"a": [1, 1, 1, 1], "b": [2, 3, 2, 3], "c": [3, 2, 3, 2], "d": [1, 4, 1, 4]}
        diagnostics = self.diagnostics(ranks, {"a": 4, "b": 3, "c": 2, "d": 1})
        assert diagnostics["top3"]["solvers"] == ["a", "b", "c"]
        assert diagnostics["top3"]["mean_rank_iqr"] == self.oracle(ranks, ["a", "b", "c"])
        assert diagnostics["all"]["mean_rank_iqr"] == self.oracle(ranks, list(ranks)) == 1.25
        assert diagnostics["top10"] == diagnostics["all"]


class TestColumnMajorScores:
    """Replicate scores are kept column-major; every statistic reads the
    same values from either layout."""

    @staticmethod
    def pipeline():
        rng = random.Random(30)
        table = {f"s{i:02d}": [rng.random() < 0.5 for _ in range(15)] for i in range(9)}
        d = success_table_dataset(table)
        cfg = config("solved_count", replicates_k=400, master_seed=30, tiebreak=("total_time",))
        return d, cfg, generate_score_matrix(d, cfg)

    def test_generated_scores_are_column_major_and_ranks_row_major(self):
        _, _, m = self.pipeline()
        assert m.scores.flags.f_contiguous and not m.scores.flags.c_contiguous
        assert m.replicate_ranks.flags.c_contiguous
        assert m.column("s03").flags.contiguous

    def test_report_is_the_same_from_a_row_major_copy(self):
        d, cfg, m = self.pipeline()
        copy = ScoreMatrix(
            k=m.k, scores=np.ascontiguousarray(m.scores), replicate_ranks=m.replicate_ranks,
            solver_order=m.solver_order, provenance=m.provenance,
        )
        assert copy.scores.flags.c_contiguous and np.array_equal(copy.scores, m.scores)
        assert canonical_json(build_report(d, cfg, m)) == canonical_json(build_report(d, cfg, copy))

    @pytest.mark.parametrize("budget", [1, None])
    def test_first_place_counts_match_the_oracle_on_both_layouts(self, monkeypatch, budget):
        # Small integer scores, so most rows tie at the top.
        if budget is not None:
            monkeypatch.setattr(scoring, "_BLOCK_ENTRY_BUDGET", budget)
        rng = np.random.default_rng(30)
        scores = rng.integers(0, 4, size=(97, 7)).astype(np.float64)
        rows = scores.tolist()
        assert any(sorted(row)[-1] == sorted(row)[-2] for row in rows)  # tied tops
        for layout in (np.asfortranarray(scores), np.ascontiguousarray(scores)):
            for columns in ([0, 1, 2, 3, 4, 5, 6], [5, 2], [3], [6, 0, 4]):
                want = oracle_first_place_counts(rows, columns)
                got = first_place_counts(layout, columns)
                assert got.dtype == np.int64
                assert got.tolist() == [want[j] for j in columns], columns
        m = random_matrix(np.asfortranarray(scores))
        assert m.first_places.tolist() == first_place_counts(scores, range(7)).tolist()

    def test_unknown_solver_id_is_named(self):
        m = matrix_from_columns(a=[1.0, 2.0], b=[2.0, 1.0])
        assert (m.solver_idx("a"), m.solver_idx("b")) == (0, 1)
        with pytest.raises(ValueError, match="unknown solver id 'zz'"):
            m.solver_idx("zz")
        with pytest.raises(ValueError, match="unknown solver id 'zz'"):
            bootstrap_p(m, "a", "zz")

    def test_ranking_workspace_does_not_grow_with_k(self):
        # Robust ranking and the win fractions (medians, first-place scans,
        # pairwise tests) over 50 solvers in five tiers of ten, so that the
        # grouping runs several rounds.
        block = scoring._BLOCK_ENTRY_BUDGET
        rng = np.random.default_rng(31)
        means = np.repeat([0.0, 5.0, 10.0, 15.0, 20.0], 10)

        def peak_beyond_kept(k: int) -> tuple[int, int]:
            scores = np.asfortranarray(rng.normal(means, 1.0, (k, 50)))
            m = ScoreMatrix(
                k=k, scores=scores, replicate_ranks=np.zeros((k, 50), dtype=np.int8),
                solver_order=tuple(f"s{i:02d}" for i in range(50)), provenance={},
            )
            tracemalloc.start()
            try:
                at_start = tracemalloc.get_traced_memory()[0]
                rounds = len(robust_ranking(m, 0.05).iteration_log)
                empirical_win_fractions(m)
                return tracemalloc.get_traced_memory()[1] - at_start, rounds
            finally:
                tracemalloc.stop()

        small, small_rounds = peak_beyond_kept(2_000)
        large, large_rounds = peak_beyond_kept(40_000)
        assert small_rounds == large_rounds == 5
        # The column sorts, scans and tests each work within one float64
        # block; a k x 50 float64 temporary would add 16 MB, 7.6 blocks.
        assert large - small <= 8 * block, (large - small) / (8 * block)
