"""Deterministic replicate drawing and score matrix generation."""

import math
import random
import sys
import threading
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import rankbench.resampling as resampling
import rankbench.scoring as scoring
from rankbench.model import Dataset, Mechanism, ReferenceEntry, RunKey, RunStatus
from rankbench.resampling import (
    ReplicateStream,
    ScoreMatrix,
    _checked_moduli,
    _DrawnAhead,
    _map_halves,
    draw_stratified_replicate,
    draw_uniform_replicate,
    generate_score_matrix,
    write_matrix_csv,
)
from rankbench.scoring import (
    ScoringError,
    aggregate_from_counts,
    compute_scores,
    min_ranks_rows,
    tiebreak_run_matrices,
)
from rankbench.stats import bootstrap_p

from helpers import (
    brute_scores,
    build_dataset,
    config,
    oracle_draw,
    oracle_indices,
    oracle_min_ranks,
    oracle_replicate,
    philox_block,
    philox_words,
    record,
    replicate_halves,
    success_table_dataset,
)


def oracle_entries(d, seed: int, index: int, stratified: bool) -> np.ndarray:
    """A uniform or stratified replicate of ``d``, from the oracles alone."""
    return np.array(oracle_replicate(d, seed, index, stratified), dtype=np.int64)


def map_halves(words: np.ndarray, moduli) -> np.ndarray:
    """``_map_halves`` of one row of words, for one modulus or one per half."""
    out = np.empty((1, 2 * len(words)), dtype=np.uint64)
    _map_halves(words[None, :], _checked_moduli(moduli), out)
    return out[0]


def with_counter(generator: np.random.Philox, counter: int) -> np.random.Philox:
    """``generator`` with its 256-bit counter set and its buffer empty."""
    state = generator.state
    state["state"]["counter"] = [(counter >> (64 * j)) % 2**64 for j in range(4)]
    state["buffer_pos"] = 4
    generator.state = state
    return generator


PER_POSITION = np.array([2, 2, 3, 3, 3, 1, 9, 2**31 - 1], dtype=np.uint64)


class TestPhiloxTranscription:
    """The pure-Python Philox-4x64-10 the stream oracle is built on yields
    numpy's words."""

    @pytest.mark.parametrize("key", [(0, 0), (99, 5), (12345, 678), (2**64 - 1, 2**64 - 1)])
    def test_words_match_numpy(self, key):
        generator = np.random.Philox(key=np.array(key, dtype=np.uint64))
        assert generator.random_raw(41).tolist() == philox_words(key, 0, 41)

    @pytest.mark.parametrize("key", [(0, 0), (2**64 - 1, 2**64 - 1)])
    @pytest.mark.parametrize("counter", [2**64 - 2, 2**64 - 1, 2**128 - 1, 2**256 - 1])
    def test_counter_carries_as_numpy_does(self, key, counter):
        # The low word of the counter carries into the next, or wraps.
        generator = with_counter(np.random.Philox(key=np.array(key, dtype=np.uint64)), counter)
        assert generator.random_raw(12).tolist() == philox_words(key, counter, 12)
        assert philox_words(key, counter, 4) == philox_block((counter + 1) % 2**256, key)

    def test_replicate_halves_are_consecutive_counter_ranges(self):
        # 9 positions take 2 blocks: replicate 3 is the blocks after counter 6.
        words = philox_words((5, 0), 6, 8)
        halves = [h for w in words for h in (w & 0xFFFFFFFF, w >> 32)]
        assert replicate_halves(5, 3, 9) == halves[:9]
        assert replicate_halves(5, 3, 16) == halves
        assert replicate_halves(5, 2**64 - 1, 1) == [philox_block(2**64, (5, 0))[0] & 0xFFFFFFFF]


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
    def test_indices_match_the_stream_oracle(self, seed):
        # Widths of 1, 7 and 8 positions take one block, so replicate
        # 2**64 - 1 starts at counter 2**64 - 1 and its block carries.
        for index in (0, 1, 12345, 2**64 - 1):
            for moduli in (1, 7, 8, 9, 500, PER_POSITION):
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


MAP_EDGE_MODULI = [1, 2, 3, 7, 1000, 5000, 2**31 - 1]


def preimage_start(j: int, m: int) -> int:
    """The smallest 32-bit half that maps to index ``j`` of ``m``: ``ceil(j * 2**32 / m)``."""
    return -(-j * 2**32 // m)


class TestHalfMap:
    """A 32-bit half ``h`` maps to ``(h * m) >> 32``, exact in uint64
    arithmetic because ``m < 2**31``."""

    def test_matches_big_integer_arithmetic(self):
        rng = np.random.default_rng(1)
        words = np.concatenate(
            [
                np.array([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1], dtype=np.uint64),
                rng.integers(0, 2**64, size=500, dtype=np.uint64),
            ]
        )
        per_position = np.concatenate(
            [
                np.array([1, 2**31 - 1, 2, 2**31 - 1] * 3, dtype=np.uint64),
                rng.integers(1, 2**31, size=1000, dtype=np.uint64),
            ]
        )
        halves = [h for w in words.tolist() for h in (w & 0xFFFFFFFF, w >> 32)]
        for n in (1, 2, 3, 17, 500, 5000, 2**31 - 1, per_position):
            got = map_halves(words, n)
            moduli = np.broadcast_to(n, len(halves)).tolist()
            assert got.tolist() == [(h * m) >> 32 for h, m in zip(halves, moduli)], n

    @pytest.mark.parametrize("m", MAP_EDGE_MODULI)
    def test_each_index_starts_at_its_preimage_edge(self, m):
        # Index j's first half is ceil(j * 2**32 / m); the half below it
        # maps to j - 1.  Low and high halves both.
        rng = random.Random(m)
        sample = {1, 2, m // 2, m - 1, *(rng.randrange(m) for _ in range(20))}
        js = sorted(j for j in sample if 0 < j < m)
        edges = [preimage_start(j, m) for j in js]
        for shift in (0, 32):
            words = np.array(
                [(h << shift) | (h - 1 << 32 - shift) for h in edges], dtype=np.uint64
            ) if edges else np.array([], dtype=np.uint64)
            got = map_halves(words, m).tolist()
            at, below = (got[0::2], got[1::2]) if shift == 0 else (got[1::2], got[0::2])
            assert at == js and below == [j - 1 for j in js], (m, shift)
        ends = map_halves(np.array([2**32 - 1 << 32], dtype=np.uint64), m).tolist()
        assert ends == [0, m - 1]

    @pytest.mark.parametrize("m", MAP_EDGE_MODULI)
    def test_every_index_has_floor_or_ceil_preimages(self, m):
        # So |P(j) - 1/m| < 2**-32 for every index: README's bias bound.
        rng = random.Random(m)
        js = range(m) if m <= 5000 else {0, m - 1, *(rng.randrange(m) for _ in range(5000))}
        low, high = 2**32 // m, -(-(2**32) // m)
        total = 0
        for j in js:
            count = preimage_start(j + 1, m) - preimage_start(j, m)
            assert count in (low, high), (m, j, count)
            assert abs(Fraction(count, 2**32) - Fraction(1, m)) < Fraction(1, 2**32)
            total += count
        if m <= 5000:
            assert total == 2**32

    def test_range(self):
        sevens = np.full(10_000, 7, dtype=np.uint64)
        idx = ReplicateStream(3, 0).indices(sevens)
        assert idx.min() >= 0 and idx.max() <= 6
        assert set(idx.tolist()) == set(range(7))

    @pytest.mark.parametrize("n", [0, -1, 2**31])
    def test_out_of_range_n(self, n):
        with pytest.raises(ValueError, match=rf"run count {n} out of supported range"):
            _checked_moduli(n)
        with pytest.raises(ValueError, match="out of supported range"):
            ReplicateStream(0, 0).indices(n)

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
    """Run indices of each stratum, read from the dataset's stratum layout:
    the run table's rows of the stratum, without their -1 padding."""
    table, sizes, starts = d.stratum_layout
    return {
        label: [run for run in table[first : first + int(sizes[first])].ravel() if run >= 0]
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
                halves = replicate_halves(seed, i, len(runs))
                assert got.tolist() == oracle_draw(d, halves, stratified=True), (seed, i)

    def test_forced_single_member_stratum(self):
        d = three_stratum_dataset()
        for i in range(50):
            rs = draw_stratified_replicate(d, ReplicateStream(1, i))
            assert rs[0] == 0  # stratum A has only run a1@0


def two_seed_dataset():
    """Two-decimal times and qualities over 12 instances x 2 seeds in two
    strata; seed 1 of every instance is listed first, so an instance's runs
    are apart in run order."""
    rng = random.Random(23)
    runs = [RunKey(f"i{j:02d}", seed) for seed in (1, 0) for j in range(12)]
    return build_dataset(
        ["a", "b", "c"],
        runs,
        lambda s, rk: record(
            rng.random() < 0.7,
            cpu_time=round(rng.uniform(0.5, 150.0), 2),
            quality=round(rng.uniform(5.0, 20.0), 3),
        ),
        strata={f"i{j:02d}": "odd" if j % 2 else "even" for j in range(12)},
        cutoff=100.0,
    )


def ragged_dataset():
    """Two-decimal times and qualities over 8 instances of 1, 2 and 3
    seeds in strata of 3, 3 and 2 instances, runs in a shuffled order."""
    rng = random.Random(29)
    seeds = {"p": 1, "q": 3, "r": 2, "s": 1, "t": 3, "u": 2, "v": 2, "w": 1}
    strata = {"p": "X", "q": "Y", "r": "X", "s": "Z", "t": "Y", "u": "Z", "v": "X", "w": "Y"}
    runs = [RunKey(instance, seed) for instance, count in seeds.items() for seed in range(count)]
    rng.shuffle(runs)
    return build_dataset(
        ["a", "b", "c"],
        runs,
        lambda s, rk: record(
            rng.random() < 0.7,
            cpu_time=round(rng.uniform(0.5, 150.0), 2),
            quality=round(rng.uniform(5.0, 20.0), 3),
        ),
        strata=strata,
        cutoff=100.0,
    )


class TestInstanceDraws:
    """A replicate draws instances, and each drawn instance brings all of
    its runs (stream spec v2)."""

    @pytest.mark.parametrize("stratified", [False, True])
    @pytest.mark.parametrize("dataset", [two_seed_dataset, ragged_dataset])
    def test_draws_match_the_oracle(self, dataset, stratified):
        d = dataset()
        draw = draw_stratified_replicate if stratified else draw_uniform_replicate
        for seed in (0, 2**64 - 1):
            for i in range(200):
                got = draw(d, ReplicateStream(seed, i))
                assert got.tolist() == oracle_entries(d, seed, i, stratified).tolist(), (seed, i)

    @pytest.mark.parametrize("stratified", [False, True])
    def test_drawn_instances_bring_every_run(self, stratified):
        d = ragged_dataset()
        draw = draw_stratified_replicate if stratified else draw_uniform_replicate
        runs_of = {}
        for j, rk in enumerate(d.runs):
            runs_of.setdefault(rk.instance_id, []).append(j)
        sizes = set()
        for i in range(300):
            entries = draw(d, ReplicateStream(11, i))
            counts = np.bincount(entries, minlength=len(d.runs))
            drawn = {instance: set(counts[runs].tolist()) for instance, runs in runs_of.items()}
            assert all(len(times) == 1 for times in drawn.values()), i
            times = {instance: times.pop() for instance, times in drawn.items()}
            assert sum(times.values()) == 8, i
            if stratified:
                per_stratum = {}
                for instance, n in times.items():
                    label = d.stratum_of(instance)
                    per_stratum[label] = per_stratum.get(label, 0) + n
                assert per_stratum == {"X": 3, "Y": 3, "Z": 2}, i
            sizes.add(len(entries))
        assert len(sizes) > 1 and min(sizes) >= 8 and max(sizes) <= 24

    @pytest.mark.parametrize("budget", [None, 16 * 8 * 3])
    @pytest.mark.parametrize("stratified", [False, True])
    @pytest.mark.parametrize("mechanism", ["mean_metric", "par_k"])
    @pytest.mark.parametrize("dataset", [two_seed_dataset, ragged_dataset])
    def test_mean_rows_divide_by_the_drawn_run_count(
        self, monkeypatch, dataset, mechanism, stratified, budget
    ):
        # A budget of 384 entries draws chunks of 3 replicates of 8
        # instances and counts blocks of 25 or 16 replicates.
        if budget is not None:
            monkeypatch.setattr(scoring, "_BLOCK_ENTRY_BUDGET", budget)
        d = dataset()
        cfg = config(mechanism, replicates_k=60, master_seed=14, stratified=stratified)
        m = generate_score_matrix(d, cfg)
        for i in range(m.k):
            want = brute_scores(d, cfg.mechanism, oracle_entries(d, 14, i, stratified).tolist())
            assert m.scores[i].tolist() == [want[s] for s in d.solvers], i


def seeded_dataset(seeds: dict[str, int]) -> Dataset:
    """Two-decimal times, qualities and reference entries for instances
    with the given seed counts, in three strata; some solved runs are
    optimal, and runs are shuffled, so an instance's runs are apart."""
    rng = random.Random(37)
    runs = [RunKey(instance, seed) for instance, count in seeds.items() for seed in range(count)]
    rng.shuffle(runs)
    reference = {
        rk: ReferenceEntry(round(rng.uniform(1.0, 5.0), 2), round(rng.uniform(1.0, 60.0), 2))
        for rk in runs
    }

    def run_record(solver, rk):
        solved = rng.random() < 0.7
        return record(
            solved,
            cpu_time=round(rng.uniform(0.5, 150.0), 2),
            quality=round(rng.uniform(5.0, 20.0), 3),
            optimal=solved and rng.random() < 0.4,
        )

    return build_dataset(
        ["a", "b", "c", "d"],
        runs,
        run_record,
        strata={instance: "XYZ"[j % 3] for j, instance in enumerate(seeds)},
        cutoff=100.0,
        reference=reference,
    )


def three_seed_dataset():
    """10 instances of 3 seeds each: a run table without padding."""
    return seeded_dataset({f"i{j:02d}": 3 for j in range(10)})


def one_two_three_seed_dataset():
    """10 instances of 1, 2 and 3 seeds: a padded run table."""
    return seeded_dataset({f"i{j:02d}": 1 + j % 3 for j in range(10)})


class TestInstanceCountScoring:
    """A replicate is scored from how often it drew each instance, over
    per-instance totals of the contributions; the sums are exact, so each
    row is the score of the runs its public draw function returns."""

    @pytest.mark.parametrize("budget", [None, 384])
    @pytest.mark.parametrize("stratified", [False, True])
    @pytest.mark.parametrize("dataset", [three_seed_dataset, one_two_three_seed_dataset])
    def test_rows_are_the_scores_of_their_drawn_runs(
        self, monkeypatch, dataset, stratified, budget
    ):
        # A budget of 384 entries draws chunks of 2 replicates of 10
        # instances and counts blocks of 38 replicates.
        if budget is not None:
            monkeypatch.setattr(scoring, "_BLOCK_ENTRY_BUDGET", budget)
        d = dataset()
        draw = draw_stratified_replicate if stratified else draw_uniform_replicate
        drawn = [draw(d, ReplicateStream(19, i)) for i in range(45)]
        (times,) = tiebreak_run_matrices(d, ("total_time",))
        for mechanism in scoring.MECHANISMS:
            for tiebreak in ((), ("total_time",)):
                cfg = config(
                    mechanism, replicates_k=45, master_seed=19, stratified=stratified,
                    tiebreak=tiebreak,
                )
                m = generate_score_matrix(d, cfg)
                for i, entries in enumerate(drawn):
                    want = compute_scores(d, mechanism, entries)
                    assert m.scores[i].tolist() == [want[s] for s in d.solvers], (mechanism, i)
                    keys = [(-score,) for score in m.scores[i]]
                    if tiebreak:  # the correctly rounded total of the drawn runs
                        keys = [(*key, math.fsum(times[j, entries])) for j, key in enumerate(keys)]
                    assert m.replicate_ranks[i].tolist() == oracle_min_ranks(keys), (mechanism, i)


def favoured_pair_dataset(rng: np.random.Generator, instances: int, seeds: int) -> Dataset:
    """Two solvers with equal solve rates: each instance favours one of
    them at random, which solves each seed with probability 0.9 against
    the other's 0.1."""
    favoured = rng.random(instances) < 0.5
    rate = np.where(favoured, 0.9, 0.1)
    solved = rng.random((2, instances, seeds)) < np.stack([rate, 1 - rate])[:, :, None]
    timeout = tuple(RunStatus).index(RunStatus.TIMEOUT)
    shape = (2, instances * seeds)
    return Dataset(
        solvers=("s1", "s2"),
        runs=tuple(RunKey(f"i{j}", seed) for j in range(instances) for seed in range(seeds)),
        status=np.where(solved.reshape(shape), 0, timeout),
        cpu_time=np.ones(shape),
        quality=np.full(shape, np.nan),
        cutoff=10.0,
    )


def test_multi_seed_true_null_is_rejected_at_about_alpha():
    # The seeds of one instance are not independent: drawing runs, not
    # instances, falsely rejects this null in about a fifth of datasets.
    meta = np.random.default_rng(555)
    datasets = 200
    rejections = {"s1": 0, "s2": 0}
    for index in range(datasets):
        d = favoured_pair_dataset(meta, instances=100, seeds=5)
        m = generate_score_matrix(d, config(replicates_k=400, master_seed=index))
        rejections["s1"] += bootstrap_p(m, "s1", "s2", alpha=0.05).rejected
        rejections["s2"] += bootstrap_p(m, "s2", "s1", alpha=0.05).rejected
    rates = {solver: count / datasets for solver, count in rejections.items()}
    assert max(rates.values()) <= 0.10, rates


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
        assert m.replicate_ranks.dtype == np.int8
        assert m.solver_order == ("A", "B")
        assert m.provenance == {
            "master_seed": 77,
            "stratified": False,
            "mechanism": "solved_count",
        }

    @pytest.mark.parametrize(
        "solvers, runs, k, dtype",
        [(2, 3, 25, np.int8), (128, 3, 25, np.int16), (2**15, 1, 2, np.int32)],
    )
    def test_ranks_kept_in_the_narrowest_type_for_the_solver_count(
        self, solvers, runs, k, dtype
    ):
        # The last solver never solves and the first only run 0; the rest
        # solve every run, so some replicate ranks the last at S, which the
        # next narrower type cannot hold.
        table = {f"s{i}": [True] * runs for i in range(solvers)}
        table["s0"] = [j == 0 for j in range(runs)]
        table[f"s{solvers - 1}"] = [False] * runs
        m = generate_score_matrix(success_table_dataset(table), config(replicates_k=k))
        assert m.replicate_ranks.dtype == dtype
        assert m.replicate_ranks.max() == solvers
        assert np.array_equal(m.replicate_ranks, min_ranks_rows(m.scores, []))

    def test_memory_preflight_counts_the_ranking_peak(self, monkeypatch):
        # 1000 x 2 cells: 18,000 bytes of kept scores and int8 ranks, plus three
        # float64 blocks of 1,000 entries, plus the draw chunk counted twice
        # for its temporaries: two uint64 buffers of 1,000 // 16 = 62 entries.
        monkeypatch.setattr(scoring, "_BLOCK_ENTRY_BUDGET", 1_000)
        d = success_table_dataset({"A": [True, False], "B": [True, True]})
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 42_991}
        monkeypatch.setattr(resampling.os, "sysconf", pages.__getitem__)
        with monkeypatch.context() as patch:

            def no_allocation(*args):
                raise AssertionError("scored before the memory check")

            patch.setattr(scoring, "run_contributions", no_allocation)
            with pytest.raises(ValueError, match="physical memory"):
                generate_score_matrix(d, config(replicates_k=1000))
        pages["SC_PHYS_PAGES"] = 42_992
        assert generate_score_matrix(d, config(replicates_k=1000)).k == 1000

    def test_memory_preflight_charges_no_array_per_tiebreak_key(self, monkeypatch):
        # A tiebreak key's totals live one block at a time: the 1000 x 2 cells
        # need one float64 block of 1,000 entries more than without a key, not
        # a 16,000-byte array.
        monkeypatch.setattr(scoring, "_BLOCK_ENTRY_BUDGET", 1_000)
        d = success_table_dataset({"A": [True, False], "B": [True, True]})
        cfg = config(replicates_k=1000, tiebreak=("total_time",))
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 50_991}
        monkeypatch.setattr(resampling.os, "sysconf", pages.__getitem__)
        with pytest.raises(ValueError, match="physical memory"):
            generate_score_matrix(d, cfg)
        pages["SC_PHYS_PAGES"] = 50_992
        assert generate_score_matrix(d, cfg).k == 1000

    def test_memory_preflight_charges_the_gathered_runs(self, monkeypatch):
        # A stratified draw gathers its runs a chunk at a time: 62 more int64
        # entries beside the words of test_memory_preflight_counts_the_ranking_peak.
        monkeypatch.setattr(scoring, "_BLOCK_ENTRY_BUDGET", 1_000)
        d = success_table_dataset(
            {"A": [True, False], "B": [True, True]}, strata={"i0": "x", "i1": "y"}
        )
        cfg = config(replicates_k=1000, stratified=True)
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 43_487}
        monkeypatch.setattr(resampling.os, "sysconf", pages.__getitem__)
        with pytest.raises(ValueError, match="physical memory"):
            generate_score_matrix(d, cfg)
        pages["SC_PHYS_PAGES"] = 43_488
        assert generate_score_matrix(d, cfg).k == 1000

    @pytest.mark.parametrize("tiebreak", [(), ("total_time",)])
    def test_blocks_are_ranked_straight_into_the_kept_ranks(self, monkeypatch, tiebreak):
        # The table of test_workspace_is_a_few_blocks, where a rank block is
        # as wide as a count block (S > |R|): ranking a block allocates only
        # min_ranks_rows' 16 bytes of sort workspace per entry, no int32
        # ranks to copy into the kept int8 ones.
        rng = random.Random(4)
        solvers = [f"s{i}" for i in range(50)]
        d = success_table_dataset(
            {s: [rng.random() < 0.6 for _ in range(20)] for s in solvers},
            times={s: [round(rng.uniform(1, 99), 2) for _ in range(20)] for s in solvers},
            strata={f"i{j}": f"g{j % 3}" for j in range(20)},
        )
        per_entry = []

        def spy(scores, *args, **kwargs):
            at_entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ranks = min_ranks_rows(scores, *args, **kwargs)
            growth = tracemalloc.get_traced_memory()[1] - at_entry
            per_entry.append(growth / scoring._BLOCK_ENTRY_BUDGET)
            return ranks

        monkeypatch.setattr(resampling, "min_ranks_rows", spy)
        cfg = config("par_k", replicates_k=6000, stratified=True, tiebreak=tiebreak)
        tracemalloc.start()
        try:
            m = generate_score_matrix(d, cfg)
        finally:
            tracemalloc.stop()
        assert len(per_entry) == 2 and max(per_entry) < 17, per_entry
        assert m.replicate_ranks.dtype == np.int8

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
            return peak - m.scores.nbytes - m.replicate_ranks.nbytes

        peak_beyond_kept(1)  # one-time allocations and cached dataset layouts
        # One replicate needs the dataset-sized arrays (contributions, limbs,
        # one draw); 20,000 x 50 cells need at most the float64 blocks
        # _check_memory charges: three, and one more per tiebreak key.
        block = scoring._BLOCK_ENTRY_BUDGET
        growth = peak_beyond_kept(20_000) - peak_beyond_kept(1)
        assert growth <= 8 * (3 + len(tiebreak)) * block, growth / block

    def test_tiebreak_key_workspace_does_not_grow_with_k(self):
        # The table of test_workspace_is_a_few_blocks.
        rng = random.Random(4)
        solvers = [f"s{i}" for i in range(50)]
        d = success_table_dataset(
            {s: [rng.random() < 0.6 for _ in range(20)] for s in solvers},
            times={s: [round(rng.uniform(1, 99), 2) for _ in range(20)] for s in solvers},
            strata={f"i{j}": f"g{j % 3}" for j in range(20)},
        )

        def peak(k: int, tiebreak: tuple[str, ...]) -> int:
            cfg = config("par_k", replicates_k=k, stratified=True, tiebreak=tiebreak)
            tracemalloc.start()
            try:
                generate_score_matrix(d, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def key_adds(k: int) -> int:
            return peak(k, ("total_time",)) - peak(k, ())

        key_adds(1)  # one-time allocations and cached dataset layouts
        # A k x S array per key would add 8 * 40,000 * 50 bytes (16 MB).
        block = 8 * scoring._BLOCK_ENTRY_BUDGET
        assert abs(key_adds(60_000) - key_adds(20_000)) < block

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


def chunk_rows(width: int) -> int:
    """Rows of a drawn-ahead chunk of replicates of ``width`` positions:
    ``_BLOCK_ENTRY_BUDGET // 16`` halves, 8 a counter block."""
    return scoring.block_rows(16 * 8 * math.ceil(width / 8))


class TestDrawnAheadChunks:
    """Replicate words are drawn and mapped a chunk of consecutive
    replicates at a time; a chunk holds ``_BLOCK_ENTRY_BUDGET // 16`` word
    halves, so patching the budget moves chunk and count-block boundaries
    alike.  The expected entries come from the pure-Python Philox and the
    big-integer oracles, not from :class:`ReplicateStream`, which shares
    the fill."""

    @pytest.mark.parametrize("stratified", [False, True])
    @pytest.mark.parametrize("budget", [17 * 120, 2000])
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
        chunk = chunk_rows(len(d.runs))  # 5 rows of 24 halves
        block = budget // len(d.runs)  # 120 rows, or 117 rows
        assert block % chunk == (0 if budget == 17 * 120 else 2)
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

    @pytest.mark.parametrize("budget", [None, 16 * 16 * 3])
    @pytest.mark.parametrize("stratified", [False, True])
    @pytest.mark.parametrize("dataset", [three_seed_dataset, one_two_three_seed_dataset])
    def test_drawn_ahead_draws_are_one_row_stream_draws(
        self, monkeypatch, dataset, stratified, budget
    ):
        # A budget of 768 entries draws chunks of 3 replicates of 10
        # instances (16 halves each); 14 replicates end inside the fifth chunk.
        if budget is not None:
            monkeypatch.setattr(scoring, "_BLOCK_ENTRY_BUDGET", budget)
        fills = []
        fill = _DrawnAhead._fill

        def spy_fill(self, first):
            if self is ahead:  # not a stream's one-row chunk
                fills.append(first)
            fill(self, first)

        monkeypatch.setattr(_DrawnAhead, "_fill", spy_fill)
        d = dataset()
        draw = draw_stratified_replicate if stratified else draw_uniform_replicate
        moduli = d.stratum_layout[1] if stratified else len(d.run_table)
        ahead = _DrawnAhead(5, 14, moduli)
        for i in range(14):
            got = draw(d, ahead.at(i)).tolist()
            assert got == draw(d, ReplicateStream(5, i)).tolist(), i
            assert got == oracle_entries(d, 5, i, stratified).tolist(), i
        assert fills == ([0, 3, 6, 9, 12] if budget else [0])

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("moduli", [7, 17, PER_POSITION])
    @pytest.mark.parametrize("first", [0, 2**64 - 8])
    def test_rows_at_chunk_boundaries_are_stream_draws(self, monkeypatch, rows, moduli, first):
        # 7 and 8 positions take one counter block, 17 take three; the last
        # replicate, 2**64 - 1, starts at a counter of 2**64 - 1 or beyond.
        width = moduli if isinstance(moduli, int) else len(moduli)
        monkeypatch.setattr(scoring, "_BLOCK_ENTRY_BUDGET", 16 * 8 * math.ceil(width / 8) * rows)
        assert chunk_rows(width) == rows
        fills = []
        fill = _DrawnAhead._fill

        def spy_fill(self, start):
            if self is ahead:
                fills.append(start - first)
            fill(self, start)

        monkeypatch.setattr(_DrawnAhead, "_fill", spy_fill)
        ahead = _DrawnAhead(2**64 - 1, first + 8, moduli, first)
        for i in range(first, first + 8):
            got = ahead.at(i).indices(moduli).tolist()
            assert got == ReplicateStream(2**64 - 1, i).indices(moduli).tolist(), i
            assert got == oracle_indices(2**64 - 1, i, moduli), i
        assert fills == list(range(0, 8, rows))

    def test_rows_are_gathered_again_from_another_table(self):
        table = np.arange(12, dtype=np.int64).reshape(4, 3)
        other = table[::-1].copy()
        ahead = _DrawnAhead(9, 5, 4)
        for i in range(5):
            drawn = np.array(oracle_indices(9, i, 4))
            ahead.at(i)
            assert ahead.rows(4, table).tolist() == table[drawn].ravel().tolist(), i
            assert ahead.rows(4, other).tolist() == other[drawn].ravel().tolist(), i
            starts = np.array([0, 0, 0, 0])
            assert ahead.rows(4, table, starts).tolist() == table[drawn].ravel().tolist(), i

    def test_missing_entry_in_a_later_chunk_is_reported_at_its_replicate(self, monkeypatch):
        runs = [(f"i{j:02d}", 0) for j in range(12)] + [("bad", 0)]

        def quality(s, rk):
            return None if rk.instance_id == "bad" and s == "A" else 2.0

        d = build_dataset(["A", "B"], runs, lambda s, rk: record(True, 1.0, quality(s, rk)))
        monkeypatch.setattr(scoring, "_BLOCK_ENTRY_BUDGET", 16 * 16 * 4)
        blocks = []

        def spy(limbs, counts):
            blocks.append(len(counts))
            return aggregate_from_counts(limbs, counts)

        monkeypatch.setattr(resampling, "aggregate_from_counts", spy)

        def missing(seed, i):
            return 12 in oracle_indices(seed, i, len(runs))

        # Chunks of 4 replicates of 16 halves in one count block of 60: the
        # first replicate that selects run ``bad`` is in a later chunk.
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
        monkeypatch.setattr(scoring, "_BLOCK_ENTRY_BUDGET", 16 * 8 * 3)  # chunks of 3 rows
        sizes = np.array([2, 2, 3, 3, 3, 1, 9], dtype=np.uint64)
        for moduli in (7, sizes):
            ahead = _DrawnAhead(2**64 - 1, 10, moduli)
            for i in range(10):
                want = oracle_indices(2**64 - 1, i, moduli)
                assert ahead.at(i).indices(moduli).tolist() == want, (moduli, i)

    def test_int_moduli_are_compared_by_value_alone(self, monkeypatch):
        # Above 256, len() returns a new int object at every call.
        ahead = _DrawnAhead(3, 10, 1000).at(0)

        def no_call(a, b):
            raise AssertionError("int moduli took the array comparison")

        monkeypatch.setattr(resampling, "_same_moduli", no_call)
        assert ahead.indices(int("1000")).tolist() == oracle_indices(3, 0, 1000)
        with pytest.raises(ValueError, match="other moduli"):
            ahead.indices(int("999"))

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
