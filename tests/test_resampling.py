"""Deterministic replicate drawing and score matrix generation."""

import random
import sys
import threading

import numpy as np
import pytest

import rankbench.resampling as resampling
from rankbench.model import Mechanism, ReferenceEntry, RunKey
from rankbench.resampling import (
    ReplicateStream,
    ScoreMatrix,
    _bounded_indices,
    draw_stratified_replicate,
    draw_uniform_replicate,
    generate_score_matrix,
    write_matrix_csv,
)
from rankbench.scoring import ScoringError, compute_scores, tiebreak_run_matrices

from helpers import (
    build_dataset,
    config,
    oracle_min_ranks,
    oracle_stratified_draw,
    record,
    success_table_dataset,
)

UNEVEN_SPLITS = (3, 5, 7, 1, 2, 9, 6, 0, 13, 4, 11, 1)


def fresh_philox_words(seed: int, index: int, count: int) -> np.ndarray:
    """The first ``count`` words of a newly constructed Philox keyed ``(seed, index)``."""
    return np.random.Philox(key=np.array([seed, index], dtype=np.uint64)).random_raw(count)


class TestReplicateStream:
    def test_same_key_same_words(self):
        a = ReplicateStream(42, 7).words(16)
        b = ReplicateStream(42, 7).words(16)
        assert np.array_equal(a, b)

    def test_different_indices_differ(self):
        a = ReplicateStream(42, 7).words(16)
        b = ReplicateStream(42, 8).words(16)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = ReplicateStream(1, 0).words(16)
        b = ReplicateStream(2, 0).words(16)
        assert not np.array_equal(a, b)

    def test_words_are_sequential(self):
        whole = ReplicateStream(9, 3).words(10)
        stream = ReplicateStream(9, 3)
        parts = np.concatenate([stream.words(4), stream.words(6)])
        assert np.array_equal(whole, parts)

    def test_seed_at_u64_boundary(self):
        words = ReplicateStream(2**64 - 1, 2**64 - 1).words(4)
        assert words.shape == (4,)

    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
    def test_uneven_splits_match_a_fresh_generator(self, seed):
        for index in (0, 1, 12345, 2**64 - 1):
            stream = ReplicateStream(seed, index)
            got = np.concatenate([stream.words(count) for count in UNEVEN_SPLITS])
            assert np.array_equal(got, fresh_philox_words(seed, index, sum(UNEVEN_SPLITS)))

    def test_interleaved_streams_in_one_thread(self):
        streams = [ReplicateStream(2**63, index) for index in (4, 5, 6)]
        drawn = [[] for _ in streams]
        for count in UNEVEN_SPLITS:
            for stream, parts in zip(streams, drawn):
                parts.append(stream.words(count))
        for index, parts in zip((4, 5, 6), drawn):
            want = fresh_philox_words(2**63, index, sum(UNEVEN_SPLITS))
            assert np.array_equal(np.concatenate(parts), want), index

    def test_streams_in_threads_at_once(self):
        # More threads than cores, switching often: a generator shared
        # between threads would hand one stream's words to another.
        indices = (0, 1, 2, 3)
        start = threading.Barrier(len(indices))
        drawn: dict[int, list[np.ndarray]] = {index: [] for index in indices}

        def draw(index: int) -> None:
            start.wait()
            for _ in range(200):
                stream = ReplicateStream(77, index)
                parts = [stream.words(count) for count in UNEVEN_SPLITS]
                drawn[index].append(np.concatenate(parts))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=draw, args=(index,)) for index in indices]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for index in indices:
            want = fresh_philox_words(77, index, sum(UNEVEN_SPLITS))
            assert len(drawn[index]) == 200
            assert all(np.array_equal(words, want) for words in drawn[index]), index


class TestBoundedIndices:
    def test_matches_big_integer_arithmetic(self):
        rng = np.random.default_rng(1)
        words = np.concatenate(
            [
                np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64),
                rng.integers(0, 2**64, size=500, dtype=np.uint64),
            ]
        )
        per_position = np.concatenate(
            [
                np.array([1, 2**31 - 1, 2, 2**31 - 1], dtype=np.uint64),
                rng.integers(1, 2**31, size=500, dtype=np.uint64),
            ]
        )
        for n in (1, 2, 3, 17, 500, 5000, 2**31 - 1, per_position):
            got = _bounded_indices(words, n)
            moduli = np.broadcast_to(n, words.shape)
            want = [(int(w) * int(m)) >> 64 for w, m in zip(words, moduli)]
            assert got.tolist() == want, n

    def test_range(self):
        words = ReplicateStream(3, 0).words(10_000)
        idx = _bounded_indices(words, 7)
        assert idx.min() >= 0 and idx.max() <= 6
        assert set(idx.tolist()) == set(range(7))

    @pytest.mark.parametrize("n", [0, -1, 2**31])
    def test_out_of_range_n(self, n):
        with pytest.raises(ValueError):
            _bounded_indices(np.zeros(1, dtype=np.uint64), n)


def three_stratum_dataset():
    runs = [("a1", 0), ("b1", 0), ("b2", 0), ("c1", 0), ("c2", 0), ("c3", 0)]
    strata = {"a1": "A", "b1": "B", "b2": "B", "c1": "C", "c2": "C", "c3": "C"}
    return build_dataset(
        ["s1", "s2"], runs, lambda s, rk: record(True, 5.0), strata=strata, cutoff=10.0
    )


def stratum_blocks(d) -> dict[str, list[int]]:
    """Run indices of each stratum, read from the dataset's stratum layout."""
    runs, sizes, starts = d.stratum_layout
    return {
        label: runs[first : first + int(sizes[first])].tolist()
        for label, first in zip(d.stratum_order, np.unique(starts))
    }


def timed_dataset():
    """Two-decimal times and qualities over 400 runs in two strata."""
    rng = random.Random(17)
    runs = [RunKey(f"i{j:03d}", 0) for j in range(400)]
    reference = {rk: ReferenceEntry(round(rng.uniform(1, 5), 2), 20.0) for rk in runs}
    return build_dataset(
        ["a", "b", "c", "d"],
        runs,
        lambda s, rk: record(
            rng.random() < 0.7,
            cpu_time=round(rng.uniform(0.5, 150.0), 2),
            quality=round(rng.uniform(5.0, 20.0), 3),
        ),
        strata={rk.instance_id: "even" if j % 2 else "odd" for j, rk in enumerate(runs)},
        cutoff=100.0,
        reference=reference,
    )


class TestDrawUniform:
    def test_size_equals_run_count(self):
        d = success_table_dataset({"A": [True] * 9, "B": [False] * 9})
        rs = draw_uniform_replicate(d, ReplicateStream(0, 0))
        assert len(rs) == 9
        assert rs.min() >= 0 and rs.max() < 9

    def test_single_run_is_forced(self):
        d = success_table_dataset({"A": [True], "B": [True]})
        rs = draw_uniform_replicate(d, ReplicateStream(5, 123))
        assert rs.tolist() == [0]

    def test_empty_dataset_rejected(self):
        d = build_dataset(["A", "B"], [], lambda s, rk: record(True))
        with pytest.raises(ValueError, match="no runs"):
            draw_uniform_replicate(d, ReplicateStream(0, 0))

    def test_mean_distinct_count_matches_collision_formula(self):
        n, draws = 5000, 10_000
        d = success_table_dataset({"A": [True] * n, "B": [False] * n})
        total = 0
        for i in range(draws):
            entries = draw_uniform_replicate(d, ReplicateStream(99, i))
            total += int(np.count_nonzero(np.bincount(entries, minlength=n)))
        mean_distinct = total / draws
        expected = n * (1.0 - (1.0 - 1.0 / n) ** n)  # ~3160.7
        assert abs(mean_distinct - expected) < 2.0


class TestDrawStratified:
    def test_per_stratum_counts_preserved(self):
        d = three_stratum_dataset()
        sizes = {"A": 1, "B": 2, "C": 3}
        members = {label: set(block) for label, block in stratum_blocks(d).items()}
        for i in range(200):
            rs = draw_stratified_replicate(d, ReplicateStream(4, i))
            assert len(rs) == 6
            drawn = rs.tolist()
            # concatenated in stratum order: A block, then B, then C
            blocks = {"A": drawn[:1], "B": drawn[1:3], "C": drawn[3:]}
            for label, block in blocks.items():
                assert len(block) == sizes[label]
                assert set(block) <= members[label]

    def test_single_stratum_size_matches_uniform(self):
        d = success_table_dataset({"A": [True] * 4, "B": [True] * 4})
        rs = draw_stratified_replicate(d, ReplicateStream(0, 0))
        assert len(rs) == 4

    def test_matches_per_stratum_oracle_on_uneven_strata(self):
        # Strata of 6, 2, 1 and 8 runs, interleaved in run order and first
        # seen out of label order.
        labels = "CBACCDDCDDBDCDDCD"
        runs = [(f"i{j:02d}", 0) for j in range(len(labels))]
        strata = {instance: label for (instance, _), label in zip(runs, labels)}
        d = build_dataset(["s1", "s2"], runs, lambda s, rk: record(True), strata=strata)
        assert [len(block) for block in stratum_blocks(d).values()] == [6, 2, 1, 8]
        for seed in (0, 2**64 - 1):
            for i in range(300):
                got = draw_stratified_replicate(d, ReplicateStream(seed, i))
                words = fresh_philox_words(seed, i, len(runs)).tolist()
                assert got.tolist() == oracle_stratified_draw(d, words), (seed, i)

    def test_forced_single_member_stratum(self):
        d = three_stratum_dataset()
        for i in range(50):
            rs = draw_stratified_replicate(d, ReplicateStream(1, i))
            assert rs[0] == 0  # stratum A has only run a1@0


class TestGenerateScoreMatrix:
    def test_identical_solvers_tie_at_rank_one(self):
        d = success_table_dataset({"A": [True, False], "B": [True, False]})
        m = generate_score_matrix(d, config(replicates_k=1))
        assert m.scores[0, 0] == m.scores[0, 1]
        assert m.replicate_ranks[0].tolist() == [1, 1]

    def test_shapes_and_provenance(self):
        d = success_table_dataset({"A": [True] * 3, "B": [False] * 3})
        cfg = config(replicates_k=25, master_seed=77, stratified=False)
        m = generate_score_matrix(d, cfg)
        assert m.k == 25
        assert m.scores.shape == (25, 2)
        assert m.replicate_ranks.shape == (25, 2)
        assert m.scores.dtype == np.float64
        assert m.replicate_ranks.dtype == np.int32
        assert m.solver_order == ("A", "B")
        assert m.provenance == {
            "master_seed": 77,
            "stratified": False,
            "mechanism": "solved_count",
        }

    def test_memory_preflight_counts_the_ranking_peak(self, monkeypatch):
        # 1000 x 2 cells: 24,000 bytes of kept matrices, 114,000 at the peak.
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 50_000}
        monkeypatch.setattr(resampling.os, "sysconf", pages.__getitem__)

        def no_allocation(*args):
            raise AssertionError("scored before the memory check")

        monkeypatch.setattr(resampling, "run_contributions", no_allocation)
        d = success_table_dataset({"A": [True, False], "B": [True, True]})
        with pytest.raises(ValueError, match="physical memory"):
            generate_score_matrix(d, config(replicates_k=1000))

    def test_rows_are_pure_functions_of_seed_and_index(self):
        d = success_table_dataset({"A": [True, True, False], "B": [True, False, True]})
        cfg = config(replicates_k=40, master_seed=5)
        m = generate_score_matrix(d, cfg)
        # each row must equal a directly drawn and scored replicate
        from rankbench.scoring import compute_scores

        for i in (0, 7, 39):
            entries = draw_uniform_replicate(d, ReplicateStream(5, i))
            want = compute_scores(d, "solved_count", entries)
            assert m.scores[i].tolist() == [want["A"], want["B"]]

    def test_thread_counts_do_not_change_output(self):
        d = success_table_dataset(
            {f"s{i}": [(i + j) % 3 != 0 for j in range(40)] for i in range(6)}
        )
        cfg = config(replicates_k=300, master_seed=21)
        single = generate_score_matrix(d, cfg, threads=1)
        many = generate_score_matrix(d, cfg, threads=8)
        assert np.array_equal(single.scores, many.scores)
        assert np.array_equal(single.replicate_ranks, many.replicate_ranks)

    def test_block_size_does_not_change_output(self, monkeypatch):
        inputs = [
            (success_table_dataset({"A": [True] * 7, "B": [False] * 7}),
             config(replicates_k=53, master_seed=3)),
            (timed_dataset(), config(Mechanism("par_k", 10), replicates_k=53, master_seed=3,
                                     tiebreak=("total_time",))),
        ]
        for d, cfg in inputs:
            whole = generate_score_matrix(d, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(resampling, "_BLOCK_ENTRY_BUDGET", 20)
                chopped = generate_score_matrix(d, cfg, threads=4)
            assert np.array_equal(whole.scores, chopped.scores)
            assert np.array_equal(whole.replicate_ranks, chopped.replicate_ranks)

    @pytest.mark.parametrize("stratified", [False, True])
    @pytest.mark.parametrize("mechanism", ["par_k", "mean_metric", "ipc_quality", "ipc_agile"])
    def test_float_rows_are_bit_identical_to_direct_scores(self, mechanism, stratified):
        d = timed_dataset()
        cfg = config(mechanism, replicates_k=40, master_seed=12, stratified=stratified)
        m = generate_score_matrix(d, cfg)
        draw = draw_stratified_replicate if stratified else draw_uniform_replicate
        for i in range(m.k):
            want = compute_scores(d, mechanism, draw(d, ReplicateStream(12, i)))
            assert [x.hex() for x in m.scores[i]] == [
                want[s].hex() for s in d.solvers
            ], i

    def test_stratified_matrix_preserves_strata(self):
        d = three_stratum_dataset()
        cfg = config(replicates_k=100, stratified=True)
        m = generate_score_matrix(d, cfg)
        assert m.provenance["stratified"] is True
        # solver s1 solves everything: every stratified replicate scores 6
        assert np.all(m.scores[:, 0] == 6.0)

    def test_rank_rows_match_official_rule(self):
        import random

        rng = random.Random(123)
        table = {s: [rng.random() < 0.6 for _ in range(6)] for s in ("x", "y", "z")}
        times = {s: [rng.choice([1.0, 2.5, 4.0]) for _ in range(6)] for s in table}
        d = success_table_dataset(table, times=times, cutoff=10.0)
        for tiebreak in ((), ("total_time",)):
            cfg = config(replicates_k=64, master_seed=9, tiebreak=tiebreak)
            m = generate_score_matrix(d, cfg)
            mats = tiebreak_run_matrices(d, tiebreak)
            for i in range(m.k):
                entries = draw_uniform_replicate(d, ReplicateStream(9, i))
                counts = np.bincount(entries, minlength=len(d.runs)).astype(np.float64)
                keys = []
                for col in range(3):
                    chain = tuple(float(mat[col] @ counts) for mat in mats)
                    keys.append((-m.scores[i, col], *chain))
                assert m.replicate_ranks[i].tolist() == oracle_min_ranks(keys), i

    def test_first_failing_replicate_is_reported(self):
        d = build_dataset(
            ["A", "B"],
            [("good", 0), ("bad", 0)],
            lambda s, rk: record(
                True, 1.0, quality=None if rk.instance_id == "bad" else 2.0
            ),
            cutoff=10.0,
        )
        cfg = config("mean_metric", replicates_k=30, master_seed=2)
        expected = next(
            i
            for i in range(30)
            if 1 in draw_uniform_replicate(d, ReplicateStream(2, i)).tolist()
        )
        with pytest.raises(ScoringError, match=rf"replicate {expected}: .*bad@0"):
            generate_score_matrix(d, cfg)

    def test_par_k_scores_are_negated_means(self):
        d = success_table_dataset({"A": [True, True], "B": [True, False]},
                                  times={"A": [10.0, 20.0], "B": [10.0, 20.0]})
        cfg = config(Mechanism("par_k", 10), replicates_k=16, master_seed=1)
        m = generate_score_matrix(d, cfg)
        assert np.all(m.scores <= 0)
        # A solves everything at 10 or 20s: scores in [-20, -10]
        assert np.all(m.scores[:, 0] >= -20.0) and np.all(m.scores[:, 0] <= -10.0)


class TestScoreMatrixAccess:
    def matrix(self):
        d = success_table_dataset({"A": [True, False], "B": [False, True]})
        return generate_score_matrix(d, config(replicates_k=10))

    def test_column_lookup(self):
        m = self.matrix()
        assert np.array_equal(m.column("A"), m.scores[:, 0])

    def test_unknown_solver(self):
        with pytest.raises(ValueError, match="unknown solver"):
            self.matrix().column("nope")


class TestMatrixCsv:
    def test_layout(self, tmp_path):
        d = success_table_dataset({"A": [True, False], "B": [False, True]})
        m = generate_score_matrix(d, config(replicates_k=4, master_seed=8))
        path = tmp_path / "matrix.csv"
        write_matrix_csv(m, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "replicate,A,B"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == m.scores[0, 0]

    def test_emit_twice_identical(self, tmp_path):
        d = success_table_dataset({"A": [True], "B": [False]})
        m = generate_score_matrix(d, config(replicates_k=3))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_matrix_csv(m, a)
        write_matrix_csv(m, b)
        assert a.read_bytes() == b.read_bytes()
