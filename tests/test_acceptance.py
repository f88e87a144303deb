"""Acceptance gate: eleven checks over the public analysis pipeline.

Each check prints one ``criterion N: PASS`` / ``criterion N: FAIL`` line so
the gate status is readable straight off the pytest output.  The checks mix
exact hand-verifiable values with property suites driven by independent
brute-force transcriptions from ``helpers``.
"""

import functools
import itertools
import json
import os
import random
import time

import numpy as np

from rankbench.cli import run_cli
from rankbench.model import Mechanism
from rankbench.ranking import (
    RankGroup,
    RobustRanking,
    fractional_ranks,
    robust_ranking,
    tied_pair_count,
)
from rankbench.report import build_report, emit_json
from rankbench.resampling import (
    ReplicateStream,
    draw_stratified_replicate,
    generate_score_matrix,
)
from rankbench.sensitivity import FLAG_NAMES, leave_one_out_analysis
from rankbench.stats import bootstrap_p, percentile_ci, holm_bonferroni

from helpers import (
    brute_scores,
    config,
    matrix_from_columns,
    oracle_holm,
    oracle_official_order,
    oracle_robust_partition,
    quality_table_dataset,
    success_table_dataset,
)


def criterion(n):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {n}: FAIL", flush=True)
                raise
            print(f"\ncriterion {n}: PASS ({time.perf_counter() - start:.1f}s)",
                  flush=True)
        return wrapper
    return deco


def grouping_of_sizes(*sizes) -> RobustRanking:
    ranks = fractional_ranks(list(sizes))
    names = iter(f"s{i:03d}" for i in range(sum(sizes)))
    groups = tuple(
        RankGroup(
            index=i,
            members=tuple(next(names) for _ in range(size)),
            fractional_rank=r,
        )
        for i, (size, r) in enumerate(zip(sizes, ranks), start=1)
    )
    return RobustRanking(groups=groups, iteration_log=())


@criterion(1)
def test_criterion_01_fractional_ranks():
    assert fractional_ranks([17, 10, 1, 1]) == [9.0, 22.5, 28.0, 29.0]
    rng = random.Random(101)
    for _ in range(1000):
        left = rng.randint(1, 50)
        sizes = []
        while left:
            size = rng.randint(1, left)
            sizes.append(size)
            left -= size
        ranks = fractional_ranks(sizes)
        n = sum(sizes)
        assert sum(size * r for size, r in zip(sizes, ranks)) == n * (n + 1) / 2


@criterion(2)
def test_criterion_02_tied_pair_arithmetic():
    assert tied_pair_count(grouping_of_sizes(17, 10, 1, 1)) == 181
    one_group = grouping_of_sizes(17)
    top10 = set(one_group.groups[0].members[:10])
    assert tied_pair_count(one_group, top10) == 45
    assert tied_pair_count(grouping_of_sizes(3)) == 3


@criterion(3)
def test_criterion_03_holm_matches_step_down_transcription():
    grid = (0.001, 0.01, 0.02, 0.03, 0.04, 0.06, 0.2, 1.0)
    for m in range(1, 7):
        for ps in itertools.product(grid, repeat=m):
            assert holm_bonferroni(ps, 0.05) == oracle_holm(list(ps), 0.05)


@criterion(4)
def test_criterion_04_bootstrap_test_sanity():
    dominant = success_table_dataset(
        {"s1": [True] * 6, "s2": [False] * 6}
    )
    m = generate_score_matrix(dominant, config("solved_count", replicates_k=500))
    assert bootstrap_p(m, "s1", "s2").p_value == 0.0
    assert bootstrap_p(m, "s1", "s2").rejected is True

    rows = [True, False, True, True, False, True]
    twins = success_table_dataset({"s1": rows, "s2": rows})
    m = generate_score_matrix(twins, config("solved_count", replicates_k=500))
    assert bootstrap_p(m, "s1", "s2").p_value == 1.0
    assert bootstrap_p(m, "s1", "s2").rejected is False

    rng = np.random.default_rng(44)
    for _ in range(100):
        k = int(rng.integers(3, 200))
        cols = rng.integers(0, 6, size=(k, 2)).astype(np.float64)
        m = matrix_from_columns(a=cols[:, 0], b=cols[:, 1])
        forward = round(bootstrap_p(m, "a", "b").p_value * k)
        backward = round(bootstrap_p(m, "b", "a").p_value * k)
        assert forward + backward >= k


@criterion(5)
def test_criterion_05_type_one_error_calibration():
    meta = np.random.default_rng(55)
    competitions = 200
    rejections = 0
    for comp in range(competitions):
        table = {
            "s1": (meta.random(200) < 0.5).tolist(),
            "s2": (meta.random(200) < 0.5).tolist(),
        }
        d = success_table_dataset(table)
        cfg = config("solved_count", replicates_k=2000, master_seed=comp)
        m = generate_score_matrix(d, cfg)
        if bootstrap_p(m, "s1", "s2", alpha=0.05).rejected:
            rejections += 1
    rate = rejections / competitions
    assert 0.0 <= rate <= 0.10, f"true-null rejection rate {rate}"


@criterion(6)
def test_criterion_06_grouping_matches_transcription():
    rng = random.Random(66)
    for trial in range(50):
        s = rng.randint(1, 6)
        n = rng.randint(3, 10)
        bias = rng.choice([0.3, 0.5, 0.8])
        table = {
            f"s{i}": [rng.random() < bias for _ in range(n)] for i in range(s)
        }
        d = success_table_dataset(table)
        alpha = rng.choice([0.01, 0.05, 0.2])
        cfg = config(
            "solved_count",
            replicates_k=rng.randint(10, 200),
            master_seed=trial,
            alpha=alpha,
        )
        m = generate_score_matrix(d, cfg)
        got = [frozenset(g.members) for g in robust_ranking(m, alpha).groups]
        want = oracle_robust_partition(
            m.scores.tolist(), list(m.solver_order), alpha
        )
        assert got == want, f"trial {trial}"


@criterion(7)
def test_criterion_07_stratification_preserves_counts():
    names, strata = [], {}
    for dom in range(14):
        for i in range(20):
            name = f"d{dom:02d}_i{i:02d}"
            names.append(name)
            strata[name] = f"dom{dom:02d}"
    table = {f"s{i}": [True] * len(names) for i in range(3)}
    d = success_table_dataset(table, instances=names, strata=strata)
    ordinal = {label: i for i, label in enumerate(d.stratum_order)}
    per_run = np.array([ordinal[d.strata[rk.instance_id]] for rk in d.runs])
    for index in range(10_000):
        entries = draw_stratified_replicate(d, ReplicateStream(3, index))
        counts = np.bincount(per_run[entries], minlength=14)
        assert counts.min() == counts.max() == 20, f"replicate {index}"


@criterion(8)
def test_criterion_08_worker_count_never_changes_output(tmp_path):
    rng = random.Random(88)
    table = {
        f"s{i:02d}": [rng.random() < 0.5 for _ in range(100)] for i in range(8)
    }
    d = success_table_dataset(table)
    cfg = config("solved_count", replicates_k=10_000, master_seed=11)
    one = generate_score_matrix(d, cfg, threads=1)
    many = generate_score_matrix(d, cfg, threads=os.cpu_count() or 4)
    assert np.array_equal(one.scores, many.scores)
    assert np.array_equal(one.replicate_ranks, many.replicate_ranks)
    assert one.k == many.k
    assert one.solver_order == many.solver_order
    assert one.provenance == many.provenance
    a, b = tmp_path / "one.json", tmp_path / "many.json"
    emit_json(build_report(d, cfg, one), a)
    emit_json(build_report(d, cfg, many), b)
    assert a.read_bytes() == b.read_bytes()


@criterion(9)
def test_criterion_09_percentile_ci_order_statistics():
    shuffled = np.arange(1.0, 10_001.0)
    np.random.default_rng(9).shuffle(shuffled)
    ci = percentile_ci(shuffled, 0.05)
    assert (ci.lower, ci.upper) == (250.0, 9750.0)
    ci = percentile_ci(np.arange(1.0, 101.0), 0.1)
    assert (ci.lower, ci.upper) == (5.0, 95.0)


@criterion(10)
def test_criterion_10_sensitivity_matches_enumeration():
    d = quality_table_dataset({
        "A": [8.0, 8.0, 8.0, 8.0],
        "B": [9.0, 9.0, 9.0, 4.0],
        "C": [1.0, 1.0, 1.0, 1.0],
    })
    rep = leave_one_out_analysis(d, config("mean_metric"))
    mech = Mechanism("mean_metric")
    base = oracle_official_order(brute_scores(d, mech))
    depth10, depth3 = min(10, 3), min(3, 3)
    want = {name: 0 for name in FLAG_NAMES}
    for instance in d.instances:
        kept = [i for i, rk in enumerate(d.runs) if rk.instance_id != instance]
        order = oracle_official_order(brute_scores(d, mech, kept))
        if order != base:
            want["any_change"] += 1
        for depth, comp_name, order_name in (
            (depth10, "top10_comp", "top10_order"),
            (depth3, "top3_comp", "top3_order"),
        ):
            if set(base[:depth]) != set(order[:depth]):
                want[comp_name] += 1
            elif base[:depth] != order[:depth]:
                want[order_name] += 1
    assert rep.counts == want
    assert want == {
        "any_change": 1, "top10_comp": 0, "top10_order": 1,
        "top3_comp": 0, "top3_order": 1,
    }

    rng = random.Random(10)
    for _ in range(100):
        s = rng.randint(2, 6)
        n = rng.randint(2, 6)
        table = {
            f"s{i}": [rng.random() < 0.5 for _ in range(n)] for i in range(s)
        }
        rep = leave_one_out_analysis(
            success_table_dataset(table), config("solved_count")
        )
        for flags in rep.flags.values():
            assert not (flags.top10_comp and flags.top10_order)
            assert not (flags.top3_comp and flags.top3_order)
            any_depth_flag = (flags.top10_comp or flags.top10_order
                              or flags.top3_comp or flags.top3_order)
            if any_depth_flag:
                assert flags.any_change


@criterion(11)
def test_criterion_11_end_to_end_scale(tmp_path):
    rng = random.Random(111)
    lines = ["solver,instance,seed,status,cpu_time,quality"]
    for s in range(29):
        solve_rate = 0.3 + 0.4 * s / 28
        for j in range(500):
            ok = rng.random() < solve_rate
            status = "solved" if ok else "timeout"
            cpu = round(rng.uniform(1.0, 4999.0), 2) if ok else 5000.0
            lines.append(f"s{s:02d},i{j:03d},0,{status},{cpu},")
    runs = tmp_path / "runs.csv"
    runs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "report.json"

    start = time.perf_counter()
    code = run_cli([
        "analyze", "--input", str(runs), "--mechanism", "solved_count",
        "--tiebreak", "total_time", "--replicates", "10000", "--seed", "0",
        "--threads", str(os.cpu_count() or 1), "--output", str(out),
    ])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 60.0, f"analyze took {elapsed:.1f}s"

    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["config"]["replicates"] == 10_000
    assert doc["dataset"] == {
        "solvers": 29, "runs": 500, "instances": 500, "strata": 1,
        "cutoff_seconds": None,
    }
    official_order = [row["solver"] for row in doc["official"]]
    scores = [row["score"] for row in doc["official"]]
    assert scores == sorted(scores, reverse=True)
    assert sorted(official_order) == sorted(doc["solvers"])

    group_of = {m: g["index"] for g in doc["groups"] for m in g["members"]}
    rank_sum = sum(len(g["members"]) * g["fractional_rank"] for g in doc["groups"])
    n = len(official_order)
    assert rank_sum == n * (n + 1) / 2

    for row in doc["official"]:
        stats = doc["solvers"][row["solver"]]
        assert stats["official_rank"] == row["rank"]
        assert stats["official_score"] == row["score"]
        assert stats["group"] == group_of[row["solver"]]
        assert stats["ci_lower"] <= stats["median_score"] <= stats["ci_upper"]
        assert 0.0 <= stats["win_fraction"] <= 1.0
        assert stats["rank_q25"] <= stats["rank_median"] <= stats["rank_q75"]

    for diag in doc["diagnostics"].values():
        subset = diag["solvers"]
        assert subset == official_order[: diag["depth"]]
        assert diag["groups"] == len({group_of[s] for s in subset})
        tied = sum(
            1
            for i, a in enumerate(subset)
            for b in subset[i + 1:]
            if group_of[a] == group_of[b]
        )
        assert diag["tied_pairs"] == tied
        assert diag["inversions"] == len(diag["inversion_pairs"])
        for worse, better in diag["inversion_pairs"]:
            assert doc["solvers"][worse]["official_rank"] > doc["solvers"][better]["official_rank"]
            assert group_of[worse] < group_of[better]

    alpha = doc["config"]["alpha"]
    for it in doc["iterations"]:
        tests = it["tests"]
        ps = [t["p_value"] for t in tests]
        assert ps == sorted(ps)
        m_tests = len(tests)
        for step, t in enumerate(tests, start=1):
            assert t["threshold"] == alpha / (m_tests + 1 - step)
        rejected = oracle_holm(ps, alpha)
        assert [t["rejected"] for t in tests] == [
            i in rejected for i in range(m_tests)
        ]
