"""Leave-one-instance-out flags against rebuilt-dataset brute force."""

import math
import random
import warnings

import numpy as np
import pytest

import rankbench.sensitivity as sensitivity
from rankbench.model import Mechanism, RunKey
from rankbench.scoring import ScoringError, compute_scores, official_ranking
from rankbench.sensitivity import (
    FLAG_NAMES,
    aggregate_json_obj,
    leave_one_out_analysis,
    prefix_changes,
    write_flags_csv,
)

from helpers import (
    brute_scores,
    build_dataset,
    config,
    oracle_official_order,
    quality_table_dataset,
    record,
    success_table_dataset,
)


def compare(base, variant, depth):
    """(comp, order) of one variant listing of solver indices."""
    comp, order = prefix_changes(np.array(base), np.array([variant]), depth)
    return bool(comp[0]), bool(order[0])


class TestCompareRankings:
    def test_identical_is_unchanged(self):
        assert compare([0, 1, 2], [0, 1, 2], 2) == (False, False)

    def test_prefix_set_difference_is_comp(self):
        assert compare([0, 1, 2], [0, 2, 1], 2) == (True, False)

    def test_same_set_reordered_is_order(self):
        assert compare([0, 1, 2], [1, 0, 2], 2) == (False, True)

    def test_change_below_depth_is_invisible(self):
        assert compare([0, 1, 2], [0, 2, 1], 1) == (False, False)


class TestLeaveOneOut:
    def five_solver_dataset(self):
        # removing i3 swaps places 1-2; removing i0 swaps places 4-5
        return quality_table_dataset({
            "A": [8.0, 8.0, 8.0, 8.0],
            "B": [9.0, 9.0, 9.0, 4.0],
            "C": [6.0, 6.0, 6.0, 6.0],
            "D": [5.0, 5.0, 5.0, 5.0],
            "E": [1.0, 5.2, 5.2, 5.2],
        })

    def test_constructed_swaps_hit_expected_depths(self):
        rep = leave_one_out_analysis(self.five_solver_dataset(), config("mean_metric"))
        assert rep.baseline.order == ("A", "B", "C", "D", "E")
        assert rep.depths == {"top10": 5, "top3": 3}

        assert rep.flags["i3"].as_dict() == {
            "any_change": True, "top10_comp": False, "top10_order": True,
            "top3_comp": False, "top3_order": True,
        }
        assert rep.flags["i0"].as_dict() == {
            "any_change": True, "top10_comp": False, "top10_order": True,
            "top3_comp": False, "top3_order": False,
        }
        for quiet in ("i1", "i2"):
            assert not any(rep.flags[quiet].as_dict().values())

        assert rep.counts == {
            "any_change": 2, "top10_comp": 0, "top10_order": 2,
            "top3_comp": 0, "top3_order": 1,
        }

    def test_top3_composition_change(self):
        # removing i1 pushes C out of the top 3 in favor of D
        d = quality_table_dataset({
            "A": [10.0, 10.0],
            "B": [8.0, 8.0],
            "C": [6.0, 6.5],
            "D": [6.5, 5.5],
        })
        rep = leave_one_out_analysis(d, config("mean_metric"))
        assert rep.baseline.order == ("A", "B", "C", "D")
        assert rep.flags["i1"].as_dict() == {
            "any_change": True, "top10_comp": False, "top10_order": True,
            "top3_comp": True, "top3_order": False,
        }
        assert not any(rep.flags["i0"].as_dict().values())
        assert rep.depths == {"top10": 4, "top3": 3}

    def test_matches_rebuilt_dataset_brute_force(self):
        rng = random.Random(21)
        mech = Mechanism("solved_count")
        for _ in range(100):
            s = rng.randint(2, 6)
            n = rng.randint(2, 8)
            table = {
                f"s{i}": [rng.random() < 0.6 for _ in range(n)] for i in range(s)
            }
            d = success_table_dataset(table)
            rep = leave_one_out_analysis(d, config("solved_count"))

            base_order = oracle_official_order(brute_scores(d, mech))
            assert list(rep.baseline.order) == base_order
            depth10, depth3 = min(10, s), min(3, s)
            for pos, instance in enumerate(d.instances):
                kept = [i for i, rk in enumerate(d.runs) if rk.instance_id != instance]
                order = oracle_official_order(brute_scores(d, mech, kept))
                flags = rep.flags[instance]
                assert flags.any_change == (order != base_order), instance
                want10 = self.classify(base_order, order, depth10)
                want3 = self.classify(base_order, order, depth3)
                assert (flags.top10_comp, flags.top10_order) == want10
                assert (flags.top3_comp, flags.top3_order) == want3
                # comp and order are mutually exclusive by construction
                assert not (flags.top10_comp and flags.top10_order)
                assert not (flags.top3_comp and flags.top3_order)
            assert rep.counts == {
                name: sum(1 for f in rep.flags.values() if getattr(f, name))
                for name in FLAG_NAMES
            }

    @staticmethod
    def classify(base, variant, depth):
        a, b = base[:depth], variant[:depth]
        if set(a) != set(b):
            return (True, False)
        if a != b:
            return (False, True)
        return (False, False)

    def test_baseline_matches_direct_official_ranking(self):
        d = self.five_solver_dataset()
        cfg = config("mean_metric")
        rep = leave_one_out_analysis(d, cfg)
        from rankbench.scoring import compute_scores

        direct = official_ranking(compute_scores(d, cfg.mechanism), d, cfg.tiebreak)
        assert rep.baseline.order == direct.order
        assert rep.baseline.ranks == direct.ranks

    def test_tiebreak_chain_recomputed_on_kept_runs(self):
        # equal solved counts; the time tiebreak flips when i1 is dropped
        d = success_table_dataset(
            {"a": [True, True], "b": [True, True]},
            times={"a": [10.0, 1.0], "b": [5.0, 20.0]},
        )
        cfg = config("solved_count", tiebreak=("total_time",))
        rep = leave_one_out_analysis(d, cfg)
        assert rep.baseline.order == ("a", "b")
        assert rep.flags["i1"].any_change is True
        assert rep.flags["i0"].any_change is False

    def test_rows_equal_direct_scores_of_kept_runs(self, monkeypatch):
        rng = random.Random(41)
        runs = [RunKey(f"i{j:02d}", seed) for j in range(40) for seed in range(rng.randint(1, 3))]
        d = build_dataset(
            ["a", "b", "c"],
            runs,
            lambda s, rk: record(
                rng.random() < 0.7,
                cpu_time=round(rng.uniform(0.5, 150.0), 2),
                quality=round(rng.uniform(5.0, 20.0), 3),
            ),
            cutoff=100.0,
        )
        seen, ranking_rows = [], sensitivity.ranking_rows

        def capture(solvers, scores, chains):
            seen.append((scores, chains))
            return ranking_rows(solvers, scores, chains)

        monkeypatch.setattr(sensitivity, "ranking_rows", capture)
        for mech in (Mechanism("par_k", 10), Mechanism("mean_metric")):
            seen.clear()
            leave_one_out_analysis(d, config(mech, tiebreak=("total_time",)))
            (scores, (chain,)), = seen
            dropped = [None, *d.instances]
            for row, instance in enumerate(dropped):
                kept = [i for i, rk in enumerate(d.runs) if rk.instance_id != instance]
                want = brute_scores(d, mech, kept)
                assert scores[row].tolist() == [want[s] for s in d.solvers], (mech, instance)
                spent = [
                    [rec.cpu_time if rec.status.is_success and rec.cpu_time <= d.cutoff else 0.0
                     for rec in (d.results[(s, d.runs[i])] for i in kept)]
                    for s in d.solvers
                ]
                assert chain[row].tolist() == [math.fsum(v) for v in spent], instance

    def test_needs_two_instances(self):
        d = quality_table_dataset({"a": [1.0], "b": [2.0]})
        with pytest.raises(ValueError, match="at least 2 instances"):
            leave_one_out_analysis(d, config("mean_metric"))

    def test_uncomputable_entries_surface_as_scoring_error(self):
        d = build_dataset(
            ["a", "b"],
            [("i0", 0), ("i1", 0)],
            lambda s, rk: record(True, cpu_time=3.0, quality=2.0),
        )
        with pytest.raises(ScoringError):
            leave_one_out_analysis(d, config("ipc_quality"))


    def test_overflowing_total_names_the_removed_instance(self):
        # Only dropping i2's negative quality leaves a total beyond float64.
        quality = {"i0": 1e308, "i1": 1e308, "i2": -1e308}
        d = build_dataset(
            ["a", "b"],
            [(instance, 0) for instance in quality],
            lambda s, rk: record(True, quality=quality[rk.instance_id] if s == "b" else 1.0),
        )
        assert compute_scores(d, "mean_metric")["b"] == 1e308 / 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ScoringError,
                match="^without instance 'i2': mean_metric: the total of solver 'b' is beyond",
            ):
                leave_one_out_analysis(d, config("mean_metric"))


class TestOutputs:
    def report(self):
        d = quality_table_dataset({
            "A": [8.0, 8.0, 8.0, 8.0],
            "B": [9.0, 9.0, 9.0, 4.0],
            "C": [1.0, 1.0, 1.0, 1.0],
        })
        return leave_one_out_analysis(d, config("mean_metric"))

    def test_flags_csv_layout(self, tmp_path):
        rep = self.report()
        path = tmp_path / "flags.csv"
        write_flags_csv(rep, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "instance,any_change,top10_comp,top10_order,top3_comp,top3_order"
        assert lines[1:] == [
            "i0,0,0,0,0,0",
            "i1,0,0,0,0,0",
            "i2,0,0,0,0,0",
            "i3,1,0,1,0,1",
        ]

    def test_aggregate_json_block(self):
        obj = aggregate_json_obj(self.report())
        assert obj == {
            "instances": 4,
            "counts": {
                "any_change": 1, "top10_comp": 0, "top10_order": 1,
                "top3_comp": 0, "top3_order": 1,
            },
            "depths": {"top10": 3, "top3": 3},
        }
