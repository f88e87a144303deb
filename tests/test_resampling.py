"""Deterministic replicate drawing and score matrix generation."""

import random
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import rankbench.resampling as resampling
import rankbench.scoring as scoring
from rankbench.model import Mechanism, ReferenceEntry, RunKey
from rankbench.resampling import (
    ReplicateStream,
    ScoreMatrix,
    _checked_moduli,
    _DrawnAhead,
    _multiply_shift,
    draw_stratified_replicate,
    draw_uniform_replicate,
    generate_score_matrix,
    write_matrix_csv,
)
from rankbench.scoring import (
    ScoringError,
    aggregate_from_counts,
    compute_scores,
    tiebreak_run_matrices,
)

from helpers import (
    build_dataset,
    config,
    oracle_min_ranks,
    oracle_stratified_draw,
    record,
    success_table_dataset,
)

def fresh_philox_words(seed: int, index: int, count: int) -> np.ndarray:
    """The first ``count`` words of a newly constructed Philox keyed ``(seed, index)``."""
    return np.random.Philox(key=np.array([seed, index], dtype=np.uint64)).random_raw(count)


def oracle_indices(seed: int, index: int, moduli) -> list[int]:
    """Replicate ``(seed, index)``'s entries for one modulus ``n`` (``n``
    words) or a sequence of one modulus per word: each word ``w`` with its
    modulus ``m`` gives ``floor(w * m / 2**64)``, in big-integer arithmetic."""
    moduli = [moduli] * moduli if isinstance(moduli, int) else [int(m) for m in moduli]
    words = fresh_philox_words(seed, index, len(moduli)).tolist()
    return [(w * m) >> 64 for w, m in zip(words, moduli)]


def oracle_entries(d, seed: int, index: int, stratified: bool) -> np.ndarray:
    """A uniform or stratified replicate of ``d``, from the oracles alone."""
    if stratified:
        words = fresh_philox_words(seed, index, len(d.runs)).tolist()
        return np.array(oracle_stratified_draw(d, words))
    return np.array(oracle_indices(seed, index, len(d.runs)))


def multiply_shift(words: np.ndarray, moduli) -> np.ndarray:
    return _multiply_shift(words.copy(), _checked_moduli(moduli), np.empty_like(words))


PER_POSITION = np.array([2, 2, 3, 3, 3, 1, 9, 2**31 - 1], dtype=np.uint64)


class TestReplicateStream:
    def test_same_key_same_words(self):
        a = ReplicateStream(42, 7).indices(1000)
        b = ReplicateStream(42, 7).indices(1000)
        assert np.array_equal(a, b)

    def test_different_indices_differ(self):
        a = ReplicateStream(42, 7).indices(1000)
        b = ReplicateStream(42, 8).indices(1000)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = ReplicateStream(1, 0).indices(1000)
        b = ReplicateStream(2, 0).indices(1000)
        assert not np.array_equal(a, b)

    def test_seed_at_u64_boundary(self):
        entries = ReplicateStream(2**64 - 1, 2**64 - 1).indices(4)
        assert entries.tolist() == oracle_indices(2**64 - 1, 2**64 - 1, 4)

    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
    def test_indices_match_a_fresh_generator(self, seed):
        for index in (0, 1, 12345, 2**64 - 1):
            for moduli in (1, 7, 500, PER_POSITION):
                got = ReplicateStream(seed, index).indices(moduli)
                assert got.tolist() == oracle_indices(seed, index, moduli), (index, moduli)

    def test_streams_in_threads_at_once(self):
        # More threads than cores, switching often: a generator shared
        # between threads would hand one stream's words to another.
        indices = (0, 1, 2, 3)
        start = threading.Barrier(len(indices))
        drawn: dict[int, list[list[int]]] = {index: [] for index in indices}

        def draw(index: int) -> None:
            start.wait()
            for _ in range(200):
                drawn[index].append(ReplicateStream(77, index).indices(61).tolist())

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
            want = oracle_indices(77, index, 61)
            assert len(drawn[index]) == 200
            assert all(entries == want for entries in drawn[index]), index


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
            got = multiply_shift(words, n)
            moduli = np.broadcast_to(n, words.shape)
            want = [(int(w) * int(m)) >> 64 for w, m in zip(words, moduli)]
            assert got.tolist() == want, n

    def test_range(self):
        idx = multiply_shift(fresh_philox_words(3, 0, 10_000), 7)
        assert idx.min() >= 0 and idx.max() <= 6
        assert set(idx.tolist()) == set(range(7))

    @pytest.mark.parametrize("n", [0, -1, 2**31])
    def test_out_of_range_n(self, n):
        with pytest.raises(ValueError, match=rf"run count {n} out of supported range"):
            _checked_moduli(n)

    @pytest.mark.parametrize("bad", [0, 2**31, 2**64 - 1])
    def test_out_of_range_per_position_moduli(self, bad):
        moduli = np.array([3, bad, 2**31 - 1], dtype=np.uint64)
        with pytest.raises(ValueError, match=rf"run count {bad} out of supported range"):
            _checked_moduli(moduli)
        with pytest.raises(ValueError, match="out of supported range"):
            ReplicateStream(0, 0).indices(moduli)


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
        # 1000 x 2 cells: 24,000 bytes of kept scores and ranks, plus three
        # float64 blocks of 1,000 entries, plus the draw chunk and its spare:
        # two uint64 buffers of 1,000 // 16 = 62 entries.
        monkeypatch.setattr(scoring, "_BLOCK_ENTRY_BUDGET", 1_000)
        d = success_table_dataset({"A": [True, False], "B": [True, True]})
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 48_991}
        monkeypatch.setattr(resampling.os, "sysconf", pages.__getitem__)
        with monkeypatch.context() as patch:

            def no_allocation(*args):
                raise AssertionError("scored before the memory check")

            patch.setattr(scoring, "run_contributions", no_allocation)
            with pytest.raises(ValueError, match="physical memory"):
                generate_score_matrix(d, config(replicates_k=1000))
        pages["SC_PHYS_PAGES"] = 48_992
        assert generate_score_matrix(d, config(replicates_k=1000)).k == 1000

    @pytest.mark.parametrize("tiebreak", [(), ("total_time",)])
    def test_workspace_is_a_few_blocks(self, tiebreak):
        rng = random.Random(4)
        solvers = [f"s{i}" for i in range(50)]
        d = success_table_dataset(
            {s: [rng.random() < 0.6 for _ in range(20)] for s in solvers},
            times={s: [round(rng.uniform(1, 99), 2) for _ in range(20)] for s in solvers},
            strata={f"i{j}": f"g{j % 3}" for j in range(20)},
        )

        def peak_beyond_kept(k: int) -> int:
            cfg = config("par_k", replicates_k=k, stratified=True, tiebreak=tiebreak)
            tracemalloc.start()
            try:
                m = generate_score_matrix(d, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - m.scores.nbytes * (1 + len(tiebreak)) - m.replicate_ranks.nbytes

        peak_beyond_kept(1)  # one-time allocations and cached dataset layouts
        # One replicate needs the dataset-sized arrays (contributions, limbs,
        # one draw); 20,000 x 50 cells need at most three float64 blocks more.
        block = scoring._BLOCK_ENTRY_BUDGET
        assert peak_beyond_kept(20_000) - peak_beyond_kept(1) <= 24 * block

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
                patch.setattr(scoring, "_BLOCK_ENTRY_BUDGET", 20)
                chopped = generate_score_matrix(d, cfg, threads=4)
            assert np.array_equal(whole.scores, chopped.scores)
            assert np.array_equal(whole.replicate_ranks, chopped.replicate_ranks)

    @pytest.mark.parametrize("stratified", [False, True])
    def test_rows_at_block_boundaries_are_bit_identical(self, monkeypatch, stratified):
        d = timed_dataset()
        cfg = config("par_k", replicates_k=1, master_seed=6, stratified=stratified,
                     tiebreak=("total_time",))
        step = 300  # rows a count block: above the 256 rows a wide input may get
        draw = draw_stratified_replicate if stratified else draw_uniform_replicate
        for k in (1, step - 1, step, step + 1, 3 * step + 7):
            cfg = replace(cfg, replicates_k=k)
            whole = generate_score_matrix(d, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(scoring, "_BLOCK_ENTRY_BUDGET", step * len(d.runs))
                chopped = generate_score_matrix(d, cfg)
            assert chopped.scores.tobytes() == whole.scores.tobytes(), k
            assert np.array_equal(chopped.replicate_ranks, whole.replicate_ranks), k
            for i in range(k):
                want = compute_scores(d, "par_k", draw(d, ReplicateStream(6, i)))
                assert chopped.scores[i].tolist() == [want[s] for s in d.solvers], (k, i)

    @pytest.mark.parametrize("missing", [True, False])
    def test_later_block_failure_is_reported_at_its_first_replicate(self, monkeypatch, missing):
        # mean_metric over 20 heavy and 20 light runs: a replicate that
        # draws 26 heavy runs overflows solver B's total (25 do not); with
        # ``missing``, solver A also has no quality on run ``bad``.  Every
        # quality is a multiple of 2**973, so each matrix is one limb and the
        # count blocks are 3 rows.
        heavy = round(1.797e308 / 25.5 / 2.0**973) * 2.0**973
        runs = [(f"h{j}", 0) for j in range(20)] + [(f"l{j}", 0) for j in range(20)]
        runs += [("bad", 0)] if missing else []

        def quality(s, rk):
            if rk.instance_id == "bad" and s == "A":
                return None
            return heavy if rk.instance_id[0] == "h" and s == "B" else 2.0**980

        d = build_dataset(["A", "B"], runs, lambda s, rk: record(True, 1.0, quality(s, rk)))
        monkeypatch.setattr(scoring, "_BLOCK_ENTRY_BUDGET", 3 * len(runs))
        blocks = []

        def spy(limbs, counts):
            blocks.append(len(counts))
            return aggregate_from_counts(limbs, counts)

        monkeypatch.setattr(resampling, "aggregate_from_counts", spy)

        def failure(seed, i):
            drawn = draw_uniform_replicate(d, ReplicateStream(seed, i))
            instances = [d.runs[j].instance_id for j in drawn]
            if "bad" in instances:
                return "mean_metric: solver 'A' on run bad@0"
            overflow = sum(instance[0] == "h" for instance in instances) >= 26
            return "mean_metric: the total of solver 'B' is beyond" if overflow else None

        seed = next(s for s in range(1000) if not any(failure(s, i) for i in range(3)))
        first = next(i for i in range(3, 1000) if failure(seed, i))
        cfg = config("mean_metric", replicates_k=first + 400, master_seed=seed)
        with pytest.raises(ScoringError, match=rf"^replicate {first}: {failure(seed, first)}"):
            generate_score_matrix(d, cfg)
        assert blocks[0] == 3 and len(blocks) > 1  # the failure was not in the first block
        # In one block the smaller index still wins, although a missing entry
        # is found while drawing and an overflow only after the block sums.
        later = [failure(seed, i) for i in range(first + 1, cfg.replicates_k)]
        assert any("beyond" in str(message) for message in later)
        monkeypatch.setattr(scoring, "_BLOCK_ENTRY_BUDGET", cfg.replicates_k * len(runs))
        with pytest.raises(ScoringError, match=rf"^replicate {first}: {failure(seed, first)}"):
            generate_score_matrix(d, cfg)
        assert blocks[-1] == cfg.replicates_k

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


def uneven_strata_dataset():
    """Two-decimal times over 17 runs in strata of 6, 2, 1 and 8 runs,
    interleaved in run order and first seen out of label order."""
    rng = random.Random(31)
    labels = "CBACCDDCDDBDCDDCD"
    runs = [(f"i{j:02d}", 0) for j in range(len(labels))]
    strata = {instance: label for (instance, _), label in zip(runs, labels)}
    return build_dataset(
        ["a", "b", "c"],
        runs,
        lambda s, rk: record(rng.random() < 0.7, cpu_time=round(rng.uniform(0.5, 150.0), 2)),
        strata=strata,
        cutoff=100.0,
    )


class TestDrawnAheadChunks:
    """Replicate words are drawn and mapped a chunk of consecutive
    replicates at a time; a chunk holds ``_BLOCK_ENTRY_BUDGET // 16`` words,
    so patching the budget moves chunk and count-block boundaries alike.
    The expected entries come from a fresh Philox and the big-integer
    oracles, not from :class:`ReplicateStream`, which shares the fill."""

    @pytest.mark.parametrize("stratified", [False, True])
    @pytest.mark.parametrize("budget", [16 * 17 * 5, 2000])
    def test_rows_at_chunk_boundaries_are_direct_draws(self, monkeypatch, stratified, budget):
        d = uneven_strata_dataset()
        fills, blocks = [], []
        fill = _DrawnAhead._fill

        def spy_fill(self, first):
            fills.append(first)
            fill(self, first)

        def spy_aggregate(limbs, counts):
            blocks.append(len(counts))
            return aggregate_from_counts(limbs, counts)

        monkeypatch.setattr(_DrawnAhead, "_fill", spy_fill)
        monkeypatch.setattr(resampling, "aggregate_from_counts", spy_aggregate)
        monkeypatch.setattr(scoring, "_BLOCK_ENTRY_BUDGET", budget)
        chunk = scoring.block_rows(16 * len(d.runs))  # 5 rows, or 7 rows of 2000 words
        block = budget // len(d.runs)  # 80 rows, or 117 rows
        assert block % chunk == (0 if budget < 2000 else 5)
        for k in (chunk - 1, chunk, chunk + 1, 2 * block + 3):
            cfg = config("par_k", replicates_k=k, master_seed=8, stratified=stratified)
            fills.clear()
            blocks.clear()
            m = generate_score_matrix(d, cfg)
            assert fills == list(range(0, k, chunk)), k
            assert blocks[0] == min(block, k), k
            for i in range(k):
                want = compute_scores(d, "par_k", oracle_entries(d, 8, i, stratified))
                assert [x.hex() for x in m.scores[i]] == [want[s].hex() for s in d.solvers], (k, i)

    def test_missing_entry_in_a_later_chunk_is_reported_at_its_replicate(self, monkeypatch):
        runs = [(f"i{j:02d}", 0) for j in range(12)] + [("bad", 0)]

        def quality(s, rk):
            return None if rk.instance_id == "bad" and s == "A" else 2.0

        d = build_dataset(["A", "B"], runs, lambda s, rk: record(True, 1.0, quality(s, rk)))
        monkeypatch.setattr(scoring, "_BLOCK_ENTRY_BUDGET", 16 * len(runs) * 4)
        blocks = []

        def spy(limbs, counts):
            blocks.append(len(counts))
            return aggregate_from_counts(limbs, counts)

        monkeypatch.setattr(resampling, "aggregate_from_counts", spy)

        def missing(seed, i):
            return 12 in oracle_indices(seed, i, len(runs))

        # Chunks of 4 replicates in one count block of 64: the first
        # replicate that selects run ``bad`` is in a later chunk.
        seed = next(s for s in range(1000) if not any(missing(s, i) for i in range(4)))
        first = next(i for i in range(4, 60) if missing(seed, i))
        cfg = config("mean_metric", replicates_k=60, master_seed=seed)
        with pytest.raises(ScoringError, match=rf"^replicate {first}: mean_metric: solver 'A' on run bad@0"):
            generate_score_matrix(d, cfg)
        assert blocks == [60]  # one count block, chunks 0, 4, 8, ... inside it

    @pytest.mark.parametrize(
        "seed, index", [(2**64 - 1, 2**64 - 1), (-1, 0), (0, -1), (2**64, 0), (0, 2**64)]
    )
    def test_keys_convert_as_a_uint64_array_does(self, seed, index):
        try:
            np.array([seed, index], dtype=np.uint64)
        except Exception as error:  # the same exception, from the same conversion
            with pytest.raises(type(error)):
                ReplicateStream(seed, index)
            with pytest.raises(type(error)):  # the key of its last replicate
                _DrawnAhead(seed, index + 1, 7, index)
            return
        want = oracle_indices(seed, index, 7)
        assert ReplicateStream(seed, index).indices(7).tolist() == want
        assert _DrawnAhead(seed, index + 1, 7, index).at(index).indices(7).tolist() == want

    def test_drawn_ahead_rows_match_streams_at_the_largest_seed(self, monkeypatch):
        monkeypatch.setattr(scoring, "_BLOCK_ENTRY_BUDGET", 16 * 7 * 3)  # chunks of 3 rows
        sizes = np.array([2, 2, 3, 3, 3, 1, 9], dtype=np.uint64)
        for moduli in (7, sizes):
            ahead = _DrawnAhead(2**64 - 1, 10, moduli)
            for i in range(10):
                want = oracle_indices(2**64 - 1, i, moduli)
                assert ahead.at(i).indices(moduli).tolist() == want, (moduli, i)

    def test_foreign_moduli_are_rejected(self):
        sizes = np.array([2, 2, 1], dtype=np.uint64)
        uniform, stratified = _DrawnAhead(3, 10, 3).at(0), _DrawnAhead(3, 10, sizes).at(0)
        assert uniform.indices(3).tolist() == oracle_indices(3, 0, 3)
        assert stratified.indices(sizes.copy()).tolist() == oracle_indices(3, 0, sizes)
        for ahead, foreign in (
            (uniform, 4),
            (uniform, np.array([3, 3, 3], dtype=np.uint64)),
            (stratified, 3),
            (stratified, np.array([2, 2, 2], dtype=np.uint64)),
        ):
            with pytest.raises(ValueError, match="other moduli"):
                ahead.indices(foreign)


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
