"""Scoring mechanisms, multiset aggregation and the official ranking."""

import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

import rankbench.scoring as scoring
from rankbench.model import Dataset, Mechanism, ReferenceEntry, RunKey, RunRecord, RunStatus
from rankbench.resampling import ReplicateStream, draw_uniform_replicate, generate_score_matrix
from rankbench.scoring import (
    Scorer,
    ScoringError,
    UnknownMechanismError,
    aggregate_from_counts,
    combine_limbs,
    instance_limbs,
    min_ranks_rows,
    official_ranking,
    run_contributions,
    split_limbs,
    tiebreak_run_matrices,
)
from rankbench.sensitivity import leave_one_out_analysis

from helpers import (
    brute_scores,
    build_dataset,
    config,
    oracle_min_ranks,
    oracle_official_order,
    oracle_replicate,
    record,
    success_table_dataset,
)


class TestSolvedCount:
    def test_counts_successes_within_cutoff(self):
        d = build_dataset(
            ["A", "B"],
            [("i1", 0), ("i2", 0), ("i3", 0)],
            lambda s, rk: {
                ("A", "i1"): record(True, 10.0),
                ("A", "i2"): record(True, 2000.0),  # over cutoff
                ("A", "i3"): record(False, 5.0),
                ("B", "i1"): record(True, 1.0, optimal=True),
                ("B", "i2"): record(False, 1000.0),
                ("B", "i3"): record(True, 999.0),
            }[(s, rk.instance_id)],
            cutoff=1000.0,
        )
        sv = official_ranking(d, "solved_count").scores
        assert sv == {"A": 1.0, "B": 2.0}

    def test_all_statuses_but_success_score_zero(self):
        bad = [RunStatus.UNSOLVED, RunStatus.TIMEOUT, RunStatus.CRASHED, RunStatus.INCORRECT]
        d = build_dataset(
            [f"s{i}" for i in range(len(bad))],
            [("i1", 0)],
            lambda s, rk: RunRecord(bad[int(s[1:])], 1.0, None),
            cutoff=10.0,
        )
        assert set(official_ranking(d, "solved_count").scores.values()) == {0.0}


class TestOptimalCount:
    def test_only_optimal_counts(self):
        d = build_dataset(
            ["A", "B"],
            [("i1", 0), ("i2", 0)],
            lambda s, rk: record(True, 1.0, optimal=(s == "A" and rk.instance_id == "i1")),
            cutoff=10.0,
        )
        assert official_ranking(d, "optimal_count").scores == {"A": 1.0, "B": 0.0}


class TestParK:
    def test_negated_mean_with_penalty(self):
        d = build_dataset(
            ["A", "B"],
            [("i1", 0), ("i2", 0)],
            lambda s, rk: record(s == "A" or rk.instance_id == "i1", cpu_time=30.0),
            cutoff=100.0,
        )
        sv = official_ranking(d, Mechanism("par_k", par_penalty=10)).scores
        # A: (30 + 30) / 2 = 30; B: (30 + 10*100) / 2 = 515; negated
        assert sv == {"A": -30.0, "B": -515.0}

    def test_higher_is_better_after_negation(self):
        d = build_dataset(
            ["fast", "slow"], [("i1", 0)],
            lambda s, rk: record(True, 1.0 if s == "fast" else 90.0),
            cutoff=100.0,
        )
        sv = official_ranking(d, "par_k").scores
        assert sv["fast"] > sv["slow"]

    def test_requires_finite_cutoff(self):
        d = build_dataset(["A", "B"], [("i1", 0)], lambda s, rk: record(True))
        with pytest.raises(ScoringError, match="cutoff"):
            official_ranking(d, "par_k")

    def test_over_cutoff_success_is_penalized(self):
        d = build_dataset(
            ["A", "B"], [("i1", 0)], lambda s, rk: record(True, 200.0), cutoff=100.0
        )
        assert official_ranking(d, Mechanism("par_k", 2)).scores == {"A": -200.0, "B": -200.0}

    def test_penalty_below_one_rejected(self):
        d = build_dataset(["A", "B"], [("i1", 0)], lambda s, rk: record(True), cutoff=10.0)
        with pytest.raises(ScoringError, match="penalty"):
            official_ranking(d, Mechanism("par_k", par_penalty=0))


class TestIpcQuality:
    def make(self, quality_a, reference=6.0):
        return build_dataset(
            ["A", "B"],
            [("i1", 0)],
            lambda s, rk: record(s == "A", 1.0, quality=quality_a if s == "A" else None),
            cutoff=10.0,
            reference={RunKey("i1", 0): ReferenceEntry(reference, None)},
        )

    def test_ratio_of_best_known(self):
        sv = official_ranking(self.make(quality_a=8.0), "ipc_quality").scores
        assert sv == {"A": 0.75, "B": 0.0}

    def test_unsolved_contributes_zero(self):
        assert official_ranking(self.make(8.0), "ipc_quality").scores["B"] == 0.0

    def test_missing_quality_on_success_is_an_error(self):
        d = build_dataset(
            ["A", "B"], [("i1", 0)], lambda s, rk: record(True, 1.0, quality=None),
            cutoff=10.0, reference={RunKey("i1", 0): ReferenceEntry(6.0, None)},
        )
        with pytest.raises(ScoringError, match="no quality value"):
            official_ranking(d, "ipc_quality")

    def test_zero_quality_is_an_error(self):
        with pytest.raises(ScoringError, match="quality 0"):
            official_ranking(self.make(quality_a=0.0), "ipc_quality")

    def test_missing_reference_is_an_error(self):
        d = build_dataset(
            ["A", "B"], [("i1", 0)], lambda s, rk: record(True, 1.0, quality=2.0),
            cutoff=10.0,
        )
        with pytest.raises(ScoringError, match="best_known_quality"):
            official_ranking(d, "ipc_quality")

    def test_overflowing_ratio_is_an_error_naming_the_run(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScoringError, match="solver 'A' on run i1@0 has a non-finite"):
                official_ranking(self.make(quality_a=1e-320), "ipc_quality")

    @staticmethod
    def huge_ratio_dataset(runs, huge_for):
        """``B`` solves the runs of ``huge_for`` at a ratio of 1e308 / 0.9,
        ``A`` the others at 0.5: every contribution is finite."""
        return build_dataset(
            ["A", "B"],
            runs,
            lambda s, rk: record(
                (s == "B") == (rk.instance_id in huge_for), 1.0,
                quality=0.9 if s == "B" else 2.0,
            ),
            cutoff=10.0,
            reference={
                RunKey(i, seed): ReferenceEntry(1e308 if i in huge_for else 1.0, None)
                for i, seed in runs
            },
        )

    def test_overflowing_official_total_is_an_error_naming_the_solver(self):
        d = self.huge_ratio_dataset([("i1", 0), ("i2", 0)], huge_for={"i1", "i2"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ScoringError, match="ipc_quality: the total of solver 'B' is beyond the float64"
            ):
                official_ranking(d, "ipc_quality")

    def test_overflowing_replicate_total_names_the_replicate(self):
        # One huge ratio scores fine; a replicate drawing i1 twice overflows.
        d = self.huge_ratio_dataset([("i1", 0), ("i2", 0), ("i3", 0)], huge_for={"i1"})
        assert official_ranking(d, "ipc_quality").scores["B"] == 1e308 / 0.9
        expected = next(
            i for i in range(100)
            if draw_uniform_replicate(d, ReplicateStream(2, i)).tolist().count(0) >= 2
        )
        assert expected > 0
        cfg = config("ipc_quality", replicates_k=100, master_seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ScoringError,
                match=rf"^replicate {expected}: ipc_quality: the total of solver 'B' is beyond",
            ):
                generate_score_matrix(d, cfg)


class TestIpcAgile:
    def make(self, cpu, ref):
        return build_dataset(
            ["A", "B"],
            [("i1", 0)],
            lambda s, rk: record(s == "A", cpu),
            cutoff=10_000.0,
            reference={RunKey("i1", 0): ReferenceEntry(None, ref)},
        )

    def test_reference_time_scores_one(self):
        assert official_ranking(self.make(50.0, 50.0), "ipc_agile").scores["A"] == 1.0

    def test_ten_times_slower_scores_half(self):
        assert official_ranking(self.make(500.0, 50.0), "ipc_agile").scores["A"] == 0.5

    def test_faster_than_reference_clamps_to_one(self):
        assert official_ranking(self.make(5.0, 50.0), "ipc_agile").scores["A"] == 1.0
        # more than 10x faster: log10 of the raw ratio is below -1
        assert official_ranking(self.make(1.0, 100.0), "ipc_agile").scores["A"] == 1.0

    def test_sub_second_times_floor_at_one(self):
        # both sides floored to 1s: ratio 1, score 1
        assert official_ranking(self.make(0.01, 0.5), "ipc_agile").scores["A"] == 1.0

    def test_unsolved_scores_zero(self):
        assert official_ranking(self.make(50.0, 50.0), "ipc_agile").scores["B"] == 0.0

    def test_missing_reference_time_is_an_error(self):
        d = build_dataset(
            ["A", "B"], [("i1", 0)], lambda s, rk: record(True, 1.0), cutoff=10.0
        )
        with pytest.raises(ScoringError, match="reference_time"):
            official_ranking(d, "ipc_agile")


class TestMeanMetric:
    def test_mean_of_qualities(self):
        d = build_dataset(
            ["A", "B"],
            [("i1", 0), ("i2", 0)],
            lambda s, rk: record(True, 1.0, quality=4.0 if s == "A" else 10.0),
            cutoff=10.0,
        )
        assert official_ranking(d, "mean_metric").scores == {"A": 4.0, "B": 10.0}

    def test_unsolved_runs_still_need_quality(self):
        d = build_dataset(
            ["A", "B"], [("i1", 0)],
            lambda s, rk: record(False, 1.0, quality=3.0 if s == "A" else None),
            cutoff=10.0,
        )
        with pytest.raises(ScoringError, match="'B'"):
            official_ranking(d, "mean_metric")


class TestMechanismDispatch:
    def test_unknown_mechanism(self):
        d = build_dataset(["A", "B"], [("i1", 0)], lambda s, rk: record(True))
        with pytest.raises(UnknownMechanismError):
            official_ranking(d, "elo")

    def test_string_and_object_agree(self):
        d = build_dataset(["A", "B"], [("i1", 0)], lambda s, rk: record(True), cutoff=9.0)
        assert (
            official_ranking(d, "solved_count").scores
            == official_ranking(d, Mechanism("solved_count")).scores
        )


def row_scores(d, mechanism, drawn):
    """The :class:`Scorer` row that draws the instances ``drawn`` (indices
    into ``d.instances``, repeats counted), as ``{solver: score}``."""
    counts = np.bincount(drawn, minlength=len(d.instances))[None, :].astype(np.float64)
    scorer = Scorer(d, mechanism, ())
    scores, _, overflow = scorer.rows(aggregate_from_counts(scorer.stack, counts))
    assert overflow is None
    return dict(zip(d.solvers, scores[0].tolist()))


def runs_of_instances(d, drawn):
    """The run indices of the instances ``drawn``, each instance's in run
    order, in pure Python."""
    runs_of = {}
    for j, rk in enumerate(d.runs):
        runs_of.setdefault(rk.instance_id, []).append(j)
    return [run for i in drawn for run in runs_of[d.instances[i]]]


class TestMultisets:
    def dataset(self):
        return success_table_dataset(
            {"A": [True, True, False], "B": [True, False, True]}
        )

    def test_repeats_count(self):
        d = self.dataset()
        assert row_scores(d, "solved_count", [1, 1, 1]) == {"A": 3.0, "B": 0.0}

    @pytest.mark.parametrize("mechanism", list(scoring.MECHANISMS))
    def test_empty_multiset_scores_zero(self, mechanism):
        d = build_dataset(["A", "B"], [], lambda s, rk: record(True), cutoff=1000.0)
        for tiebreak in ((), ("total_time",)):
            ranking = official_ranking(d, mechanism, tiebreak)
            assert ranking.scores == {"A": 0.0, "B": 0.0}
            # +0.0, not -0.0
            assert all(math.copysign(1.0, v) == 1.0 for v in ranking.scores.values())
            assert ranking.ranks == {"A": 1, "B": 1}

    def test_error_names_first_offender_in_multiset_order(self):
        d = build_dataset(
            ["A", "B"],
            [("i1", 0), ("i2", 0)],
            lambda s, rk: record(
                True, 1.0,
                quality=None if rk.instance_id == "i2" else 3.0,
            ),
            cutoff=10.0,
        )
        # entry 0 selects the bad run i2; solver order breaks the tie
        message = Scorer(d, "mean_metric", ()).missing(np.array([1, 0]))
        assert "solver 'A' on run i2@0" in message


class TestAgainstBruteForce:
    def test_random_datasets_match_direct_transcription(self):
        rng = random.Random(20)
        for trial in range(25):
            n_solvers = rng.randint(2, 5)
            n_runs = rng.randint(1, 8)
            solvers = [f"s{i}" for i in range(n_solvers)]
            runs = [(f"i{j}", seed) for j in range(n_runs) for seed in (0,)]
            reference = {
                RunKey(f"i{j}", 0): ReferenceEntry(
                    rng.uniform(0.5, 2.0), rng.uniform(1.0, 50.0)
                )
                for j in range(n_runs)
            }

            def rec(s, rk):
                return record(
                    rng.random() < 0.7,
                    cpu_time=rng.uniform(0.1, 120.0),
                    quality=rng.uniform(2.0, 9.0),
                    optimal=rng.random() < 0.2,
                )

            d = build_dataset(solvers, runs, rec, cutoff=100.0, reference=reference)
            for mech in (
                Mechanism("solved_count"),
                Mechanism("optimal_count"),
                Mechanism("par_k", par_penalty=rng.choice([2, 10])),
                Mechanism("ipc_quality"),
                Mechanism("ipc_agile"),
                Mechanism("mean_metric"),
            ):
                # A row draws at most as many instances as there are.
                drawn = [rng.randrange(n_runs) for _ in range(rng.randint(1, n_runs))]
                got = row_scores(d, mech, drawn)
                want = brute_scores(d, mech, runs_of_instances(d, drawn))
                for s in solvers:
                    assert got[s] == want[s]


FLOAT_MECHANISMS = (
    Mechanism("par_k", 10),
    Mechanism("ipc_quality"),
    Mechanism("ipc_agile"),
    Mechanism("mean_metric"),
)


def float_dataset(seed, solvers=5, instances=150, seeds=2):
    """Two-decimal times and three-decimal qualities, with reference data."""
    rng = random.Random(seed)
    runs = [RunKey(f"i{j:03d}", sd) for j in range(instances) for sd in range(seeds)]
    reference = {
        rk: ReferenceEntry(round(rng.uniform(1, 10), 3), round(rng.uniform(1, 100), 2))
        for rk in runs
    }

    def rec(s, rk):
        return record(
            rng.random() < 0.7,
            cpu_time=round(rng.uniform(0.5, 150.0), 2),
            quality=round(rng.uniform(10.0, 30.0), 3),
            optimal=rng.random() < 0.2,
        )

    solver_ids = [f"s{i}" for i in range(solvers)]
    return build_dataset(solver_ids, runs, rec, cutoff=100.0, reference=reference)


class TestExactAggregation:
    def test_scores_are_fsum_of_the_expanded_multiset(self):
        d = float_dataset(31)
        rng = random.Random(32)
        instances = len(d.instances)
        everything = list(range(instances))
        repeats = [rng.randrange(instances) for _ in range(instances)]
        for mech in FLOAT_MECHANISMS:
            assert official_ranking(d, mech).scores == brute_scores(d, mech), mech
            for drawn in (everything, repeats):
                got = row_scores(d, mech, drawn)
                assert got == brute_scores(d, mech, runs_of_instances(d, drawn)), mech

    def test_permuted_run_order_gives_identical_bytes(self):
        d = float_dataset(33)
        perm = np.random.default_rng(34).permutation(len(d.runs))
        shuffled = Dataset(
            solvers=d.solvers,
            runs=tuple(d.runs[j] for j in perm),
            status=d.status[:, perm],
            cpu_time=d.cpu_time[:, perm],
            quality=d.quality[:, perm],
            cutoff=d.cutoff,
            reference=d.reference,
        )
        for mech in FLOAT_MECHANISMS:
            ranked = [official_ranking(data, mech, ("total_time",)) for data in (d, shuffled)]
            a, b = (ranking.scores.values() for ranking in ranked)
            assert [x.hex() for x in a] == [x.hex() for x in b]
            assert ranked[0] == ranked[1]
            cfg = config(mech, tiebreak=("total_time",))
            loo = [leave_one_out_analysis(data, cfg) for data in (d, shuffled)]
            assert loo[0].flags == loo[1].flags
            assert loo[0].baseline == loo[1].baseline

    @pytest.mark.parametrize(
        "matrix",
        [
            np.logspace(-300, 300, 13).reshape(1, -1) * np.resize([1, -1], 13),
            np.array([[5e-324, 12345 * 5e-324, -2.2250738585072014e-308 / 3, 1e-310]]),
            np.array([[-3.25, 1e-30, 7.0], [2.5, -1e30, -0.1]]),
            np.array([[1e300, 1e-300, 3.0], [-1e300, 5e-324, 1.0]]),
            np.zeros((3, 4)),
            np.zeros((0, 0)),
        ],
        ids=["1e-300..1e300", "subnormals", "negatives", "extremes", "all-zero", "0x0"],
    )
    def test_limb_split_is_exact_on_a_wide_spread(self, matrix):
        rng = np.random.default_rng(35)
        counts = rng.integers(0, 4, size=(5, matrix.shape[1])).astype(np.float64)
        n = int(counts.sum(axis=1).max(initial=0))
        limbs = split_limbs(matrix, n)
        for _, limb in limbs:
            assert np.array_equal(np.trunc(limb), limb)
            assert np.all(np.abs(limb) < 2.0 ** (53 - n.bit_length()))
        for (i, j), value in np.ndenumerate(matrix):
            assert math.fsum(np.ldexp(limb[i, j], e) for e, limb in limbs) == value
        got = stacked_totals(limbs, counts)
        assert got.shape == (5, matrix.shape[0])
        for (row, i), total in np.ndenumerate(got):
            multiset = np.repeat(matrix[i], counts[row].astype(int))
            assert total == math.fsum(multiset), (row, i)

    def test_many_limb_totals_round_correctly(self):
        rng = np.random.default_rng(37)
        halfway = np.array([1.0, 2.0**-53, 2.0**-54, 2.0**-106, -(2.0**-107), 1 + 2.0**-52])
        for trial in range(300):
            if trial % 2:
                matrix = rng.choice(halfway, size=(3, 8)) * rng.choice([1.0, 3.0, 2.0**70])
            else:
                exponents = rng.integers(-200, 200, size=(3, 8))
                matrix = np.ldexp(rng.uniform(-1, 1, size=(3, 8)), exponents)
            counts = rng.integers(0, 4, size=(4, 8)).astype(np.float64)
            got = stacked_totals(split_limbs(matrix, 32), counts)
            for (row, i), total in np.ndenumerate(got):
                assert total == math.fsum(np.repeat(matrix[i], counts[row].astype(int)))

    def test_scorer_stacks_every_limb_and_the_run_counts(self):
        # The instance totals of every limb of the mechanism and of each
        # tiebreak key, then the run counts, are the rows of one matrix, and
        # each key keeps the exponents of its limbs.
        d = float_dataset(38)
        scorer = Scorer(d, "par_k", ("total_time",))
        matrices = [run_contributions(d, "par_k"), *tiebreak_run_matrices(d, ("total_time",))]
        split = [instance_limbs(split_limbs(m, 2 * 150), d.instance_layout) for m in matrices]
        assert scorer.keys == [
            (what, [exponent for exponent, _ in key])
            for what, key in zip(["par_k", "total_time"], split)
        ]
        want = [limb for key in split for _, limb in key]
        assert np.array_equal(scorer.stack, np.vstack([*want, d.instance_layout[1]]))

    def test_limb_count_follows_the_data(self):
        integers = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 12.0]])
        assert len(split_limbs(integers, 1000)) == 1
        times = np.round(np.random.default_rng(36).uniform(1, 5000, (4, 1000)), 2)
        assert len(split_limbs(np.where(times > 2500, 50000.0, times), 1000)) == 2


def stacked_totals(limbs, counts):
    """(count rows, matrix rows) totals of :func:`split_limbs` limbs from
    one product of their stack, the limb totals rounded once, as
    :meth:`Scorer.rows` forms them."""
    totals = aggregate_from_counts(np.concatenate([limb for _, limb in limbs]), counts)
    pieces = np.split(totals, len(limbs))
    return combine_limbs([(exponent, piece.T) for (exponent, _), piece in zip(limbs, pieces)])


def hexes(scores, solvers):
    return [scores[s].hex() for s in solvers]


class TestManyLimbRaggedData:
    """Rows whose contributions span many limbs, on instances with
    different run counts, against the pure-Python oracle."""

    def test_official_replicate_and_leave_one_out_rows_match_the_oracle(self, monkeypatch):
        # 4 solvers x 30 instances of 1-3 seeds in 3 strata; qualities from
        # 1e-200 to 2e200 take 31 limbs.
        rng = random.Random(61)
        runs = [RunKey(f"i{j:02d}", seed) for j in range(30) for seed in range(rng.randint(1, 3))]
        strata = {f"i{j:02d}": "abc"[j % 3] for j in range(30)}
        extremes = iter([1e-200, 2e200])

        def quality(s, rk):
            default = rng.uniform(1.0, 2.0) * 10.0 ** rng.randint(-200, 200)
            return next(extremes, default)

        d = build_dataset(
            ["w", "x", "y", "z"], runs, lambda s, rk: record(True, 1.0, quality(s, rk)),
            strata=strata, cutoff=10.0,
        )
        assert set(d.instance_layout[1].tolist()) == {1, 2, 3}  # ragged
        (_, exponents), = Scorer(d, "mean_metric", ()).keys
        assert len(exponents) == 31
        assert hexes(official_ranking(d, "mean_metric").scores, d.solvers) == hexes(
            brute_scores(d, "mean_metric"), d.solvers
        )
        for stratified in (False, True):
            cfg = config("mean_metric", replicates_k=60, master_seed=62, stratified=stratified)
            m = generate_score_matrix(d, cfg)
            for i in range(m.k):
                want = brute_scores(d, "mean_metric", oracle_replicate(d, 62, i, stratified))
                assert [x.hex() for x in m.scores[i]] == hexes(want, d.solvers), (stratified, i)

        seen, ranking_rows = [], scoring.ranking_rows

        def capture(solvers, scores, chains):
            seen.append(scores)
            return ranking_rows(solvers, scores, chains)

        monkeypatch.setattr(scoring, "ranking_rows", capture)
        leave_one_out_analysis(d, config("mean_metric"))
        (scores,) = seen
        assert len(scores) == 31
        for row, instance in enumerate([None, *d.instances]):
            kept = [i for i, rk in enumerate(d.runs) if rk.instance_id != instance]
            want = brute_scores(d, "mean_metric", kept)
            assert [x.hex() for x in scores[row]] == hexes(want, d.solvers), instance

    def test_largest_row_is_exact(self):
        # One 3-run instance and 40 one-run instances: 43 runs, but a row
        # may draw the 3-run instance 41 times, 123 runs.
        rng = random.Random(63)
        runs = [RunKey("big", seed) for seed in range(3)]
        runs += [RunKey(f"i{j:02d}", 0) for j in range(40)]
        d = build_dataset(
            [f"s{j:02d}" for j in range(60)], runs,
            lambda s, rk: record(True, 1.0, rng.uniform(0.5, 1.0)),
        )
        counts = d.instance_layout[1]
        assert (len(d.runs), len(counts) * counts.max()) == (43, 123)
        drawn = [0] * 41
        got = row_scores(d, "mean_metric", drawn)
        want = brute_scores(d, "mean_metric", runs_of_instances(d, drawn))
        assert hexes(got, d.solvers) == hexes(want, d.solvers)


class TestOfficialRanking:
    def test_min_ranks_and_listing(self):
        d = success_table_dataset({"C": [True], "A": [True], "B": [False]})
        ranking = official_ranking(d, "solved_count")
        # C and A tie at 1; listing is alphabetical among ties
        assert ranking.order == ("A", "C", "B")
        assert ranking.ranks == {"A": 1, "C": 1, "B": 3}

    def test_total_time_tiebreak_orders_and_splits_ranks(self):
        d = build_dataset(
            ["A", "B", "C"],
            [("i1", 0), ("i2", 0)],
            lambda s, rk: record(
                s != "C", cpu_time={"A": 40.0, "B": 15.0, "C": 1.0}[s]
            ),
            cutoff=100.0,
        )
        with_tb = official_ranking(d, "solved_count", tiebreak=("total_time",))
        assert with_tb.order == ("B", "A", "C")
        assert with_tb.ranks == {"B": 1, "A": 2, "C": 3}
        without = official_ranking(d, "solved_count")
        assert without.order == ("A", "B", "C")
        assert without.ranks == {"A": 1, "B": 1, "C": 3}

    @pytest.mark.parametrize("ragged", [False, True], ids=["two_seeds", "ragged"])
    def test_total_time_over_instance_totals_matches_the_oracle(self, ragged):
        # Every solver solves the same runs, so solved_count ties them all
        # and only total_time orders them; its totals come from per-instance
        # sums, not the identity layout of one-seed data.  s1 has s0's solved
        # times on other runs, an equal exact total; s2 and s3 nudge one of
        # s0's times, which may or may not move the rounded total.
        rng = random.Random(71)
        if ragged:  # one instance re-run 40 times beside 30 one-run ones
            runs = [RunKey("big", seed) for seed in range(40)]
            runs += [RunKey(f"i{j:02d}", 0) for j in range(30)]
        else:
            runs = [RunKey(f"i{j:02d}", seed) for j in range(30) for seed in range(2)]
        solved = {rk: rng.random() < 0.7 for rk in runs}
        base = {rk: rng.uniform(0.1, 99.0) * 10.0 ** rng.randint(-15, 0) for rk in runs}
        done = [rk for rk in runs if solved[rk]]
        biggest, smallest = max(done, key=base.get), min(done, key=base.get)
        times = {
            "s0": base,
            "s1": {**base, **dict(zip(done, rng.sample([base[rk] for rk in done], len(done))))},
            "s2": {**base, biggest: math.nextafter(base[biggest], math.inf)},
            "s3": {**base, smallest: 2 * base[smallest]},
            "s4": {rk: rng.uniform(0.1, 99.0) for rk in runs},
        }
        table = {s: {rk: record(solved[rk], t[rk]) for rk in runs} for s, t in times.items()}
        d = build_dataset(list(table), runs, lambda s, rk: table[s][rk], cutoff=100.0)
        assert len(d.instances) == (31 if ragged else 30)
        spent = {
            s: (math.fsum(rec.cpu_time for rec in records.values() if rec.status.is_success),)
            for s, records in table.items()
        }
        want = brute_scores(d, "solved_count")
        assert len(set(want.values())) == 1

        ranking = official_ranking(d, "solved_count", ("total_time",))
        assert hexes(ranking.scores, d.solvers) == hexes(want, d.solvers)
        assert list(ranking.order) == oracle_official_order(want, spent)
        keys = [(-want[s], *spent[s]) for s in d.solvers]
        assert ranking.ranks == dict(zip(d.solvers, oracle_min_ranks(keys)))
        assert ranking.ranks["s0"] == ranking.ranks["s1"]

    def test_tiebreak_ignores_unsuccessful_and_over_cutoff_runs(self):
        d = build_dataset(
            ["A", "B"],
            [("i1", 0), ("i2", 0)],
            lambda s, rk: record(
                rk.instance_id == "i1" or s == "A",
                cpu_time=500.0 if s == "A" and rk.instance_id == "i2" else 10.0,
            ),
            cutoff=100.0,
        )
        # A's i2 run is successful but over cutoff: ignored by the total
        totals = tiebreak_run_matrices(d, ("total_time",))[0].sum(axis=1)
        assert totals.tolist() == [10.0, 10.0]

    def test_overflowing_total_time_is_an_error_naming_the_key(self):
        d = success_table_dataset(
            {"A": [True, True], "B": [True, True]}, cutoff=math.inf,
            times={"A": [1.0, 1.0], "B": [1e308, 1e308]},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ScoringError, match="total_time: the total of solver 'B' is beyond the float64"
            ):
                official_ranking(d, "solved_count", tiebreak=("total_time",))

    def test_unknown_tiebreak_key(self):
        d = success_table_dataset({"A": [True], "B": [True]})
        with pytest.raises(ValueError, match="tiebreak"):
            official_ranking(d, "solved_count", tiebreak=("wallclock",))

    def test_listing_matches_sort_oracle_on_random_scores(self):
        rng = random.Random(7)
        for _ in range(50):
            names = [f"s{i}" for i in range(rng.randint(2, 9))]
            table = {s: [rng.random() < 0.5 for _ in range(6)] for s in names}
            d = success_table_dataset(table)
            ranking = official_ranking(d, "solved_count")
            assert list(ranking.order) == oracle_official_order(ranking.scores)


class TestMinRanksRows:
    """Row blocks: ranks match a pure-Python oracle at every block boundary,
    and the workspace is one block whatever k."""

    @staticmethod
    def oracle(scores: np.ndarray, chain: list[np.ndarray]) -> list[list[int]]:
        k, s = scores.shape
        keys = [np.broadcast_to(key, (k, s)) for key in chain]
        return [
            oracle_min_ranks([(-scores[i, j], *(key[i, j] for key in keys)) for j in range(s)])
            for i in range(k)
        ]

    @pytest.mark.parametrize("solvers", [0, 1, 3, 5])
    def test_block_boundaries_match_the_oracle(self, monkeypatch, solvers):
        monkeypatch.setattr(scoring, "_BLOCK_ENTRY_BUDGET", 20)
        step = scoring.block_rows(solvers)
        rng = np.random.default_rng(solvers)
        for k in (1, step - 1, step, step + 1, 3 * step + 7):
            if k < 1:
                continue
            scores = rng.integers(0, 3, (k, solvers)).astype(np.float64)  # many ties
            chains = ([], [rng.integers(0, 2, solvers).astype(np.float64)],
                      [rng.integers(0, 2, (k, solvers)).astype(np.float64) for _ in range(2)])
            for chain in chains:
                ranks = min_ranks_rows(scores, chain)
                assert ranks.dtype == np.int32 and ranks.shape == (k, solvers)
                assert ranks.tolist() == self.oracle(scores, chain), (k, len(chain))

    def test_heavy_ties_and_signed_zeros_match_the_oracle(self, monkeypatch):
        # Few distinct values, -0.0 beside 0.0 in one tie class, and rows
        # wider than the sort's small-array cutoff.
        monkeypatch.setattr(scoring, "_BLOCK_ENTRY_BUDGET", 700)
        rng = np.random.default_rng(16)
        values = np.array([-1.0, -0.0, 0.0, 0.5, 2.0**-1074, 1.0])
        for solvers in (2, 7, 40):
            scores = values[rng.integers(0, len(values), (300, solvers))]
            scores[::3] = rng.choice([-0.0, 0.0], (100, solvers))  # rows of zeros only
            ranks = min_ranks_rows(scores, [])
            assert ranks.tolist() == self.oracle(scores, []), solvers
            assert (ranks[::3] == 1).all()

    @pytest.mark.parametrize("chained", [False, True])
    def test_workspace_is_one_block(self, chained):
        k, s = 20_000, 100
        rng = np.random.default_rng(5)
        scores = rng.integers(0, 20, (k, s)).astype(np.float64)
        chain = [rng.integers(0, 3, (k, s)).astype(np.float64)] if chained else []
        tracemalloc.start()
        try:
            ranks = min_ranks_rows(scores, chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = scoring.block_rows(s) * s
        # int32 ranks, plus at most 17 bytes per block entry (measured: 16)
        assert peak <= ranks.nbytes + 17 * block, peak / block
