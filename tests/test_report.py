"""Report assembly, canonical JSON round-trips and the tabular emitters."""

import json
import random

import pytest

import rankbench.scoring as scoring
from rankbench.report import (
    PLOT_DATA_HEADER,
    build_report,
    canonical_json,
    emit_csv,
    emit_json,
    emit_plot_data,
)
from rankbench.resampling import generate_score_matrix
from rankbench.sensitivity import leave_one_out_analysis

from helpers import config, oracle_holm, success_table_dataset


def pipeline(table=None, k=200, alpha=0.05, seed=7, tiebreak=(), table_seed=23,
             solvers=4, instances=12):
    if table is None:
        rng = random.Random(table_seed)
        table = {
            f"s{i:02d}": [rng.random() < 0.5 for _ in range(instances)]
            for i in range(solvers)
        }
    d = success_table_dataset(table)
    cfg = config("solved_count", replicates_k=k, alpha=alpha, master_seed=seed,
                 tiebreak=tiebreak)
    m = generate_score_matrix(d, cfg)
    return d, cfg, m


class TestBuildReport:
    def test_block_size_does_not_change_the_report(self, monkeypatch):
        # Blocks of one row or one column in every pass: counts, min-ranks,
        # the column sorts and the first-place scans.
        d, cfg, m = pipeline(k=301, solvers=7, tiebreak=("total_time",))
        whole = canonical_json(build_report(d, cfg, m))
        monkeypatch.setattr(scoring, "_BLOCK_ENTRY_BUDGET", 1)
        chopped = generate_score_matrix(d, cfg)
        assert canonical_json(build_report(d, cfg, chopped)) == whole

    def test_provenance_mismatch_rejected(self):
        d, cfg, m = pipeline(seed=1)
        other = config("solved_count", replicates_k=m.k, master_seed=2)
        with pytest.raises(ValueError, match="provenance"):
            build_report(d, other, m)

    def test_solver_order_mismatch_rejected(self):
        d, cfg, m = pipeline()
        other = success_table_dataset(
            {"zz": [True] * 12, "yy": [False] * 12}
        )
        with pytest.raises(ValueError, match="solver order"):
            build_report(other, cfg, m)

    def test_identical_solvers_collapse_to_one_group(self):
        rows = [True, False, True, True, False, True]
        d, cfg, m = pipeline(table={"a": rows, "b": rows})
        r = build_report(d, cfg, m)
        assert r["groups"] == [
            {"index": 1, "fractional_rank": 1.5, "members": ["a", "b"]}
        ]
        assert r["solvers"]["a"]["ci_lower"] == r["solvers"]["b"]["ci_lower"]
        assert r["solvers"]["a"]["ci_upper"] == r["solvers"]["b"]["ci_upper"]
        assert r["win_fractions"] == {"a": 1.0, "b": 1.0}
        assert r["solvers"]["a"]["fractional_rank"] == 1.5

    def test_interval_brackets_median(self):
        d, cfg, m = pipeline()
        r = build_report(d, cfg, m)
        for s, row in r["solvers"].items():
            assert row["ci_lower"] <= row["median_score"] <= row["ci_upper"]
            assert row["rank_q25"] <= row["rank_median"] <= row["rank_q75"]
            assert 0.0 <= row["win_fraction"] <= 1.0

    def test_config_and_dataset_echo(self):
        d, cfg, m = pipeline(k=150, alpha=0.1, seed=5, tiebreak=("total_time",))
        r = build_report(d, cfg, m)
        assert r["config"] == {
            "mechanism": "solved_count",
            "replicates": 150,
            "alpha": 0.1,
            "master_seed": 5,
            "stratified": False,
            "tiebreak": ["total_time"],
        }
        assert r["dataset"] == {
            "solvers": 4,
            "runs": 12,
            "instances": 12,
            "strata": 1,
            "cutoff_seconds": 1000.0,
        }

    def test_official_section_is_sorted_listing(self):
        d, cfg, m = pipeline()
        r = build_report(d, cfg, m)
        solvers = [row["solver"] for row in r["official"]]
        assert sorted(solvers) == sorted(d.solvers)
        scores = [row["score"] for row in r["official"]]
        assert scores == sorted(scores, reverse=True)
        ranks = [row["rank"] for row in r["official"]]
        assert ranks == sorted(ranks)

    def test_diagnostics_recomputable_from_sections(self):
        d, cfg, m = pipeline(solvers=6, table_seed=31)
        r = build_report(d, cfg, m)
        group_of = {
            member: g["index"] for g in r["groups"] for member in g["members"]
        }
        for name, diag in r["diagnostics"].items():
            subset = diag["solvers"]
            assert diag["depth"] == len(subset)
            assert subset == [row["solver"] for row in r["official"][: diag["depth"]]]
            assert diag["groups"] == len({group_of[s] for s in subset})
            tied = sum(
                1
                for i, a in enumerate(subset)
                for b in subset[i + 1:]
                if group_of[a] == group_of[b]
            )
            assert diag["tied_pairs"] == tied
            assert diag["inversions"] == len(diag["inversion_pairs"])
            assert diag["mean_rank_iqr"] >= 0.0

    def test_iteration_tests_follow_step_down_arithmetic(self):
        d, cfg, m = pipeline(solvers=6, table_seed=37, alpha=0.2)
        r = build_report(d, cfg, m)
        assert r["iterations"], "expected at least one iteration"
        for it in r["iterations"]:
            tests = it["tests"]
            ps = [t["p_value"] for t in tests]
            assert ps == sorted(ps)
            m_tests = len(tests)
            for step, t in enumerate(tests, start=1):
                assert t["threshold"] == cfg.alpha / (m_tests + 1 - step)
            rejected = oracle_holm(ps, cfg.alpha)
            assert [t["rejected"] for t in tests] == [
                i in rejected for i in range(m_tests)
            ]
            assert it["winner"] in it["members"]

    def test_groups_partition_the_solvers(self):
        d, cfg, m = pipeline(solvers=5, table_seed=41)
        r = build_report(d, cfg, m)
        members = [s for g in r["groups"] for s in g["members"]]
        assert sorted(members) == sorted(d.solvers)
        assert [g["index"] for g in r["groups"]] == list(
            range(1, len(r["groups"]) + 1)
        )

    def test_sensitivity_block_embedded(self):
        d, cfg, m = pipeline()
        extras = leave_one_out_analysis(d, cfg)
        r = build_report(d, cfg, m, extras)
        assert set(r["sensitivity"]) == {"counts", "depths", "instances"}
        assert len(r["sensitivity"]["instances"]) == 12
        assert build_report(d, cfg, m)["sensitivity"] is None


class TestCanonicalJson:
    def test_round_trip_preserves_report(self):
        d, cfg, m = pipeline()
        r = build_report(d, cfg, m, leave_one_out_analysis(d, cfg))
        assert json.loads(canonical_json(r)) == r

    def test_emissions_are_byte_identical(self, tmp_path):
        d, cfg, m = pipeline()
        r = build_report(d, cfg, m)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit_json(r, a)
        emit_json(r, b)
        assert a.read_bytes() == b.read_bytes()

    def test_rebuilt_pipeline_is_byte_identical(self, tmp_path):
        first = pipeline()
        second = pipeline()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit_json(build_report(*first), a)
        emit_json(build_report(*second), b)
        assert a.read_bytes() == b.read_bytes()

    def test_keys_are_sorted_and_nan_rejected(self):
        text = canonical_json({"b": 1, "a": [2.5]})
        assert text == '{\n  "a": [\n    2.5\n  ],\n  "b": 1\n}\n'
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


class TestPlotData:
    def test_header_limit_and_values(self, tmp_path):
        d, cfg, m = pipeline(solvers=5)
        r = build_report(d, cfg, m)
        path = tmp_path / "plot.csv"
        emit_plot_data(r, path, top=3)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == PLOT_DATA_HEADER
        assert len(lines) == 4
        for line, row in zip(lines[1:], r["official"][:3]):
            cells = line.split(",")
            s = row["solver"]
            assert cells[0] == s
            assert cells[1] == str(r["solvers"][s]["official_rank"])
            assert float(cells[2]) == r["solvers"][s]["official_score"]
            assert float(cells[4]) == r["solvers"][s]["ci_lower"]
            assert float(cells[5]) == r["solvers"][s]["ci_upper"]

    def test_top_larger_than_field_is_fine(self, tmp_path):
        d, cfg, m = pipeline(solvers=2)
        r = build_report(d, cfg, m)
        path = tmp_path / "plot.csv"
        emit_plot_data(r, path, top=10)
        assert len(path.read_text(encoding="utf-8").splitlines()) == 3

    def test_top_must_be_positive(self, tmp_path):
        d, cfg, m = pipeline()
        r = build_report(d, cfg, m)
        with pytest.raises(ValueError, match="top"):
            emit_plot_data(r, tmp_path / "plot.csv", top=0)


class TestCsvEmission:
    def test_file_set_and_official_rows(self, tmp_path):
        d, cfg, m = pipeline()
        r = build_report(d, cfg, m, leave_one_out_analysis(d, cfg))
        written = emit_csv(r, tmp_path / "tables")
        names = sorted(p.name for p in written)
        assert names == [
            "diagnostics.csv",
            "groups.csv",
            "iterations.csv",
            "official.csv",
            "sensitivity.csv",
            "solvers.csv",
        ]
        official = (tmp_path / "tables" / "official.csv").read_text().splitlines()
        assert official[0] == "solver,rank,score"
        assert len(official) == 1 + len(d.solvers)
        first = r["official"][0]
        assert official[1] == (
            f"{first['solver']},{first['rank']},{first['score']!r}"
        )

    def test_sensitivity_csv_only_when_present(self, tmp_path):
        d, cfg, m = pipeline()
        written = emit_csv(build_report(d, cfg, m), tmp_path / "tables")
        assert "sensitivity.csv" not in {p.name for p in written}
