"""Ingestion and validation of competition datasets."""

import json
import math
import re

import pytest

from rankbench.model import (
    AnalysisConfig,
    CompletenessError,
    Dataset,
    DuplicateEntryError,
    Mechanism,
    ParseError,
    ReferenceEntry,
    RunKey,
    RunRecord,
    RunStatus,
    default_stratified,
    load_dataset,
)

from helpers import build_dataset, record

CSV_HEADER = "solver,instance,seed,status,cpu_time,quality\n"


def write_csv(tmp_path, body, name="runs.csv", header=CSV_HEADER):
    path = tmp_path / name
    path.write_text(header + body, encoding="utf-8")
    return path


def write_json(tmp_path, obj, name="data.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


BASIC_CSV = (
    "A,i1,0,solved,10.5,\n"
    "A,i2,0,timeout,1000.0,\n"
    "B,i1,0,solved_optimal,3.25,7.0\n"
    "B,i2,0,crashed,0.0,\n"
)


class TestCsvLoading:
    def test_happy_path(self, tmp_path):
        d = load_dataset(write_csv(tmp_path, BASIC_CSV))
        assert d.solvers == ("A", "B")
        assert d.runs == (RunKey("i1", 0), RunKey("i2", 0))
        assert d.results[("A", RunKey("i1", 0))] == RunRecord(RunStatus.SOLVED, 10.5, None)
        assert d.results[("B", RunKey("i1", 0))] == RunRecord(
            RunStatus.SOLVED_OPTIMAL, 3.25, 7.0
        )
        assert math.isinf(d.cutoff)

    def test_order_is_first_appearance(self, tmp_path):
        body = (
            "Z,i9,1,solved,1.0,\n"
            "A,i9,1,solved,1.0,\n"
            "Z,i1,0,solved,1.0,\n"
            "A,i1,0,solved,1.0,\n"
        )
        d = load_dataset(write_csv(tmp_path, body))
        assert d.solvers == ("Z", "A")
        assert d.runs == (RunKey("i9", 1), RunKey("i1", 0))

    def test_header_must_match_exactly(self, tmp_path):
        path = write_csv(tmp_path, BASIC_CSV, header="solver,instance,seed,status,time,quality\n")
        with pytest.raises(ParseError, match="header"):
            load_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ParseError, match="empty"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "row,fragment",
        [
            ("A,i1,x,solved,1.0,", "seed"),
            ("A,i1,-1,solved,1.0,", "non-negative"),
            ("A,i1,0,meh,1.0,", "status"),
            ("A,i1,0,solved,fast,", "cpu_time"),
            ("A,i1,0,solved,-2.0,", "cpu_time"),
            ("A,i1,0,solved,inf,", "finite"),
            ("A,i1,0,solved,1.0,bad", "quality"),
            ("A,i1,0,solved,1.0,-3", "quality"),
            (",i1,0,solved,1.0,", "empty solver"),
        ],
    )
    def test_field_errors_name_the_line(self, tmp_path, row, fragment):
        path = write_csv(tmp_path, row + "\n")
        with pytest.raises(ParseError, match=fragment) as err:
            load_dataset(path)
        assert f"{path}:2" in str(err.value)

    def test_duplicate_entry(self, tmp_path):
        body = "A,i1,0,solved,1.0,\nA,i1,0,solved,2.0,\n"
        path = write_csv(tmp_path, body)
        with pytest.raises(DuplicateEntryError, match="i1@0") as err:
            load_dataset(path)
        # the later of the two rows is named
        assert f"{path}:3" in str(err.value)

    def test_missing_pair_named(self, tmp_path):
        body = "A,i1,0,solved,1.0,\nA,i2,0,solved,1.0,\nB,i1,0,solved,1.0,\n"
        with pytest.raises(CompletenessError, match="'B' on run i2@0"):
            load_dataset(write_csv(tmp_path, body))

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "runs.parquet"
        path.write_text("x", encoding="utf-8")
        with pytest.raises(ParseError, match="format"):
            load_dataset(path)
        # the suffix alone decides, even for a file holding valid CSV
        path = write_csv(tmp_path, BASIC_CSV, name="runs.txt")
        with pytest.raises(ParseError, match="^unsupported dataset format 'txt'"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        from rankbench.model import DataError

        with pytest.raises(DataError, match="not found"):
            load_dataset(tmp_path / "absent.csv")


class TestConfig:
    def test_full_config(self, tmp_path):
        cfg = {
            "cutoff_seconds": 5000,
            "strata": {"i1": "domA", "i2": "domB"},
            "reference": {
                # B solves i1@0 with quality 7.0, so no higher best-known value
                "i1@0": {"best_known_quality": 7.0, "reference_time": 30.0},
                "i2@0": {"best_known_quality": 8.0},
            },
        }
        d = load_dataset(write_csv(tmp_path, BASIC_CSV), config=write_json(tmp_path, cfg))
        assert d.cutoff == 5000.0
        assert d.strata == {"i1": "domA", "i2": "domB"}
        assert d.reference[RunKey("i1", 0)] == ReferenceEntry(7.0, 30.0)
        assert d.reference[RunKey("i2", 0)] == ReferenceEntry(8.0, None)

    def test_null_cutoff_is_unbounded(self, tmp_path):
        comp = write_json(tmp_path, {"cutoff_seconds": None})
        assert math.isinf(load_dataset(write_csv(tmp_path, BASIC_CSV), config=comp).cutoff)

    @pytest.mark.parametrize(
        "doc,fragment",
        [
            ({"cutoff_seconds": 0}, "cutoff_seconds"),
            ({"cutoff_seconds": -5}, "cutoff_seconds"),
            ({"cutoff_seconds": "fast"}, "number"),
            ({"strata": ["a"]}, "strata"),
            ({"reference": {"i1@0": {"best_known_quality": 0}}}, "best_known_quality"),
            ({"reference": {"i1@0": {"reference_time": -1}}}, "reference_time"),
            ({"reference": {"i1@0": 7}}, "object"),
            ({"reference": {"i1@0": {"reference_time": "5"}}}, "reference_time for 'i1@0'"),
            ({"reference": {"i1@0": {"best_known_quality": True}}}, "quality for 'i1@0'"),
            ({"reference": {"i1@0": {"reference_time": math.inf}}}, "time for 'i1@0'.*finite"),
            ({"reference": {"i1@0": {"reference_time": 10**400}}}, "time for 'i1@0'.*finite"),
            ({"strata": {"i1": None}}, "stratum of 'i1'"),
            ({"strata": {"i1": 5}}, "stratum of 'i1'"),
            ({"cutoff_seconds": 10**400}, "cutoff_seconds must be a finite number"),
            ({"cutoff_seconds": math.inf}, "cutoff_seconds must be a finite number"),
        ],
    )
    def test_config_errors(self, tmp_path, doc, fragment):
        with pytest.raises(ParseError, match=fragment):
            load_dataset(write_csv(tmp_path, BASIC_CSV), config=write_json(tmp_path, doc))

    def test_csv_with_config(self, tmp_path):
        runs = write_csv(tmp_path, BASIC_CSV)
        comp = write_json(
            tmp_path, {"cutoff_seconds": 900.0, "strata": {"i1": "d1"}}, "comp.json"
        )
        d = load_dataset(runs, config=comp)
        assert d.cutoff == 900.0
        # instances the config does not cover land in the default stratum
        assert d.strata == {"i1": "d1", "i2": "default"}

    def test_config_rejects_unknown_instances(self, tmp_path):
        runs = write_csv(tmp_path, BASIC_CSV)
        cases = [
            ({"strata": {"i1": "d1", "i_2": "d2"}}, "strata instance 'i_2'"),
            ({"reference": {"i1@0": {"reference_time": 1.0}, "ghost@0": {}}},
             "reference run 'ghost@0'"),
            ({"reference": {"i1@1": {"reference_time": 1.0}}}, "reference run 'i1@1'"),
            # the first unknown key in file order, whichever section it is in
            ({"reference": {"ghost@0": {}}, "strata": {"i_2": "d2"}}, "reference run 'ghost@0'"),
            ({"strata": {"i_2": "d2"}, "reference": {"ghost@0": {}}}, "strata instance 'i_2'"),
        ]
        for doc, unknown in cases:
            comp = write_json(tmp_path, doc, "comp.json")
            message = f"^{re.escape(str(comp))}: {unknown} is not in the data$"
            with pytest.raises(ParseError, match=message):
                load_dataset(runs, config=comp)

    def test_self_contained_json_rejects_unknown_instances(self, tmp_path):
        rows = [
            {"solver": s, "instance": "i1", "seed": 0, "status": "solved", "cpu_time": 1.0}
            for s in ("A", "B")
        ]
        path = write_json(tmp_path, {"strata": {"i1": "d1", "i2": "d2"}, "results": rows})
        message = f"^{re.escape(str(path))}: strata instance 'i2' is not in the data$"
        with pytest.raises(ParseError, match=message):
            load_dataset(path)
        # a config given alongside overrides the embedded one, and is checked instead
        comp = write_json(tmp_path, {"strata": {"i1": "d1"}}, "comp.json")
        assert load_dataset(path, config=comp).strata == {"i1": "d1"}


class TestBestKnownQuality:
    """A successful run may not report a quality below its run's best known one."""

    REFERENCE = {
        "i1@0": {"best_known_quality": 8.0},
        "i2@0": {"best_known_quality": 2.0},
    }

    @staticmethod
    def json_row(solver, instance, status, quality):
        return {"solver": solver, "instance": instance, "seed": 0, "status": status,
                "cpu_time": 1.0, "quality": quality}

    def test_csv_row_below_best_known_is_rejected(self, tmp_path):
        runs = write_csv(
            tmp_path,
            "A,i1,0,solved,1.0,9.0\n"
            "A,i2,0,solved,1.0,1.5\n"
            "B,i1,0,solved,1.0,8.0\n"
            "B,i2,0,solved_optimal,1.0,1.0\n",
        )
        comp = write_json(tmp_path, {"reference": self.REFERENCE}, "comp.json")
        with pytest.raises(
            ParseError,
            match=r"runs\.csv:3: successful run of solver 'A' on run i2@0 has quality "
            r"1\.5 below its best_known_quality 2\.0",
        ):
            load_dataset(runs, config=comp)

    def test_json_row_below_best_known_is_rejected(self, tmp_path):
        path = write_json(tmp_path, {
            "reference": self.REFERENCE,
            "results": [
                self.json_row("A", "i1", "solved", 9.0),
                self.json_row("B", "i1", "solved_optimal", 7.5),
                self.json_row("A", "i2", "solved", 2.0),
                self.json_row("B", "i2", "solved", 1.0),
            ],
        })
        with pytest.raises(
            ParseError,
            match=r"results\[1\]: successful run of solver 'B' on run i1@0 has quality 7\.5",
        ):
            load_dataset(path)

    def test_unsuccessful_or_absent_quality_loads(self, tmp_path):
        path = write_json(tmp_path, {
            "reference": self.REFERENCE,
            "results": [
                self.json_row("A", "i1", "timeout", 0.5),
                self.json_row("B", "i1", "solved", None),
                self.json_row("A", "i2", "crashed", 1.0),
                self.json_row("B", "i2", "solved", 2.0),
            ],
        })
        d = load_dataset(path)
        assert d.quality[0].tolist() == [0.5, 1.0]
        assert math.isnan(d.quality[1, 0])


class TestJsonDataset:
    def test_round_trip_json(self, tmp_path):
        def row(solver, instance, seed):
            status = "solved" if solver == "A" else "timeout"
            return {"solver": solver, "instance": instance, "seed": seed, "status": status,
                    "cpu_time": 1.5, "quality": 4.0}

        runs = [("i1", 0), ("i1", 1), ("i2", 0)]
        path = write_json(tmp_path, {
            "cutoff_seconds": 100.0,
            "strata": {"i1": "d1", "i2": "d2"},
            "reference": {"i1@0": {"best_known_quality": 2.0, "reference_time": 9.0}},
            "results": [row(s, *rk) for s in ("A", "B") for rk in runs],
        })
        assert load_dataset(path) == build_dataset(
            ["A", "B"],
            runs,
            lambda s, rk: record(s == "A", cpu_time=1.5, quality=4.0),
            strata={"i1": "d1", "i2": "d2"},
            cutoff=100.0,
            reference={RunKey("i1", 0): ReferenceEntry(2.0, 9.0)},
        )

    def test_config_overrides_embedded(self, tmp_path):
        row = {"instance": "i1", "seed": 0, "status": "solved", "cpu_time": 1.0}
        path = write_json(tmp_path, {
            "cutoff_seconds": 50.0,
            "results": [{**row, "solver": "A"}, {**row, "solver": "B"}],
        })
        comp = write_json(tmp_path, {"cutoff_seconds": 7.0}, "comp.json")
        assert load_dataset(path, config=comp).cutoff == 7.0

    def test_results_array_required(self, tmp_path):
        with pytest.raises(ParseError, match="results"):
            load_dataset(write_json(tmp_path, {"cutoff_seconds": 1}))

    def test_empty_results(self, tmp_path):
        d = load_dataset(write_json(tmp_path, {"results": []}))
        assert (d.solvers, d.runs, d.status.shape, len(d.results)) == ((), (), (0, 0), 0)

    def test_duplicate_names_later_row(self, tmp_path):
        row = {"solver": "A", "instance": "i1", "seed": 0, "status": "solved", "cpu_time": 1.0}
        path = write_json(tmp_path, {"results": [row, row]})
        with pytest.raises(DuplicateEntryError, match=r"results\[1\]: duplicate"):
            load_dataset(path)

    @staticmethod
    def seeded_results(seed):
        row = {"solver": "A", "instance": "i1", "status": "solved", "cpu_time": 1.0}
        return {"results": [{**row, "seed": 1}, {**row, "seed": seed}]}

    def test_bool_seed_rejected(self, tmp_path):
        path = write_json(tmp_path, self.seeded_results(True))
        with pytest.raises(ParseError, match=r"results\[1\]: seed True"):
            load_dataset(path)

    def test_float_seed_rejected(self, tmp_path):
        path = write_json(tmp_path, self.seeded_results(1.7))
        with pytest.raises(ParseError, match=r"results\[1\]: seed 1.7"):
            load_dataset(path)


class TestDatasetArrays:
    def test_columns_are_read_only(self, tmp_path):
        d = load_dataset(write_csv(tmp_path, BASIC_CSV))
        for column in (d.status, d.cpu_time, d.quality):
            with pytest.raises(ValueError):
                column[0, 0] = 1

    def test_results_view_matches_columns(self, tmp_path):
        d = load_dataset(write_csv(tmp_path, BASIC_CSV))
        assert len(d.results) == 4
        assert list(d.results) == [(s, rk) for s in d.solvers for rk in d.runs]
        assert d.status.tolist() == [[0, 3], [1, 4]]
        assert ("C", RunKey("i1", 0)) not in d.results

    def test_instance_layout_groups_runs_by_instance(self):
        d = build_dataset(
            ["A"], [("i1", 0), ("i2", 0), ("i1", 1), ("i3", 0), ("i2", 1)],
            lambda s, rk: record(True),
        )
        runs, counts, starts = d.instance_layout
        assert (runs.tolist(), counts.tolist(), starts.tolist()) == (
            [0, 2, 1, 4, 3], [2, 2, 1], [0, 2, 4]
        )


class TestRunKey:
    def test_label_round_trip(self):
        rk = RunKey("queens-12", 3)
        assert rk.label() == "queens-12@3"
        assert RunKey.from_label("queens-12@3") == rk

    def test_instance_id_may_contain_at(self):
        rk = RunKey.from_label("set@hard@7")
        assert rk == RunKey("set@hard", 7)

    @pytest.mark.parametrize("label", ["plain", "x@", "x@-1", "x@two"])
    def test_bad_labels(self, label):
        with pytest.raises(ParseError):
            RunKey.from_label(label)


class TestRunStatus:
    def test_success_statuses(self):
        assert RunStatus.SOLVED.is_success
        assert RunStatus.SOLVED_OPTIMAL.is_success
        for status in (RunStatus.UNSOLVED, RunStatus.TIMEOUT, RunStatus.CRASHED,
                       RunStatus.INCORRECT):
            assert not status.is_success


class TestAnalysisConfig:
    def test_defaults(self):
        cfg = AnalysisConfig(mechanism=Mechanism("solved_count"))
        assert cfg.replicates_k == 10_000
        assert cfg.alpha == 0.05
        assert cfg.master_seed == 0
        assert cfg.stratified is False
        assert cfg.tiebreak == ()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"replicates_k": 0},
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"master_seed": -1},
            {"master_seed": 2**64},
            {"tiebreak": ("fastest",)},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            AnalysisConfig(mechanism=Mechanism("solved_count"), **kwargs)

    def test_mechanism_id(self):
        assert Mechanism("solved_count").id == "solved_count"
        assert Mechanism("par_k", par_penalty=2).id == "par_k(2)"


class TestDefaultStratified:
    def test_two_strata_on(self):
        d = build_dataset(
            ["A", "B"], [("i1", 0), ("i2", 0)], lambda s, rk: record(True),
            strata={"i1": "d1", "i2": "d2"},
        )
        assert default_stratified(d) is True

    def test_single_stratum_off(self):
        d = build_dataset(
            ["A", "B"], [("i1", 0), ("i2", 0)], lambda s, rk: record(True),
            strata={"i1": "d1", "i2": "d1"},
        )
        assert default_stratified(d) is False

    def test_no_strata_off(self):
        d = build_dataset(["A", "B"], [("i1", 0)], lambda s, rk: record(True))
        assert default_stratified(d) is False
