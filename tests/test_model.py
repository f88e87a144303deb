"""Ingestion and validation of competition datasets."""

import json
import math
import os
import random
import re

import numpy as np
import pytest

from rankbench import model

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
            # a quoted field spanning lines 2-3: the bad record is on line 4
            ('A,"i\n1",0,solved,1.0,\nA,i2,0,solved,fast,', "cpu_time"),
        ],
    )
    def test_field_errors_name_the_line(self, tmp_path, row, fragment):
        path = write_csv(tmp_path, row + "\n")
        with pytest.raises(ParseError, match=fragment) as err:
            load_dataset(path)
        # the bad record is the body's last; its physical line is named
        assert f"{path}:{2 + row.count(chr(10))}:" in str(err.value)

    def test_oversized_field_names_the_line(self, tmp_path):
        path = write_csv(tmp_path, "A,i1,0,solved,1.0,\nA," + "i" * 200_000 + ",0,solved,1.0,\n")
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert str(err.value) == f"{path}:3: field larger than field limit (131072)"

    def test_invalid_utf8_csv_names_the_line(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_bytes(CSV_HEADER.encode() + b"A,i1,0,solved,1.0,\r\nA,i\xff2,0,solved,1.0,\n")
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert str(err.value) == (
            f"{path}:3: invalid UTF-8 (byte 0xff at offset 68: invalid start byte)"
        )

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
            # Each of these loaded, as no strata or reference, or failed outside ParseError.
            ({"strata": []}, "strata must be an object"),
            ({"strata": False}, "strata must be an object"),
            ({"reference": [1]}, "reference must be an object"),
            ({"reference": "x"}, "reference must be an object"),
            ({"reference": 0}, "reference must be an object"),
            # Each of these failed without naming the config file.
            ({"reference": {"plain": {}}}, "run label 'plain' is not of the form instance@seed"),
            ({"reference": {"i1@x": {}}}, "run label 'i1@x' has a non-integer seed"),
            ({"reference": {"i1@-1": {}}}, "run label 'i1@-1' has a negative seed"),
            # Each of these loaded, the unknown key dropped.
            ({"stata": {"i1": "x"}, "cutoff_seconds": 5}, "unknown config key 'stata'"),
            ({"cutoff_seconds": 5, "results": []}, "unknown config key 'results'"),
            ({"reference": {"i1@0": {"bogus": 1}}},
             "unknown field 'bogus' in reference entry for 'i1@0'"),
            ({"reference": {"i1@0": {"reference_time": 3, "best_known": 2}}},
             "unknown field 'best_known' in reference entry for 'i1@0'"),
        ],
    )
    def test_config_errors(self, tmp_path, doc, fragment):
        comp = write_json(tmp_path, doc, "comp.json")
        with pytest.raises(ParseError, match=f"^{re.escape(str(comp))}: .*{fragment}"):
            load_dataset(write_csv(tmp_path, BASIC_CSV), config=comp)

    def test_null_sections_are_empty(self, tmp_path):
        comp = write_json(tmp_path, {"strata": None, "reference": None}, "comp.json")
        d = load_dataset(write_csv(tmp_path, BASIC_CSV), config=comp)
        assert (d.strata, d.reference) == ({"i1": "default", "i2": "default"}, {})

    def test_invalid_utf8_config_is_a_parse_error(self, tmp_path):
        comp = tmp_path / "comp.json"
        comp.write_bytes(b'{"cutoff_seconds": 5}\n\xff')
        with pytest.raises(ParseError) as err:
            load_dataset(write_csv(tmp_path, BASIC_CSV), config=comp)
        assert str(err.value) == (
            f"{comp}: invalid UTF-8 (byte 0xff at offset 22: invalid start byte)"
        )

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

    def test_invalid_utf8_dataset_is_a_parse_error(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_bytes(b'{"results": [], "strata": {"i\xe9": "x"}}')
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert str(err.value) == (
            f"{path}: invalid UTF-8 (byte 0xe9 at offset 29: invalid continuation byte)"
        )

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

    ROW = {"solver": "A", "instance": "i1", "seed": 0, "status": "solved", "cpu_time": 1.0}

    @pytest.mark.parametrize(
        "doc, fragment",
        [
            ({"results": 5}, "an object with a 'results' array"),
            ({"results": {"x": 1}}, "an object with a 'results' array"),
            ({"results": None}, "an object with a 'results' array"),
            ({"results": [ROW], "reference": [1]}, "reference must be an object"),
            ({"results": [ROW], "reference": "x"}, "reference must be an object"),
            ({"results": [ROW], "reference": 0}, "reference must be an object"),
            ({"results": [ROW], "strata": []}, "strata must be an object"),
            ({"results": [ROW, {**ROW, "solver": 5}]}, r"results\[1\]: solver 5 is not a string"),
            ({"results": [{**ROW, "instance": ["x"]}]}, r"results\[0\]: instance \['x'\] is not"),
            # An int id would load, and then match no string key of "strata".
            ({"results": [{**ROW, "instance": 7}], "strata": {"7": "g"}},
             r"results\[0\]: instance 7 is not a string"),
            ({"results": [ROW], "solvers": ["A"]}, "unknown config key 'solvers'"),
            ({"results": [ROW], "reference": {"i1@0": {"quality": 1}}},
             "unknown field 'quality' in reference entry for 'i1@0'"),
            # A misspelt key would otherwise load as a missing quality.
            ({"results": [ROW, {**ROW, "solver": "B", "qualty": 5}]},
             r"results\[1\]: unknown field 'qualty'$"),
            # A string would be parsed as a CSV field is: "7", " 01" and "٧" as
            # seeds 7, 1 and 7, "1_000" as 1000.0 and "" as an empty quality.
            ({"results": [{**ROW, "seed": "7"}]},
             r"results\[0\]: seed '7' is a string, not a number$"),
            ({"results": [ROW, {**ROW, "seed": " 01"}]},
             r"results\[1\]: seed ' 01' is a string, not a number$"),
            ({"results": [{**ROW, "seed": "٧"}]},
             r"results\[0\]: seed '٧' is a string, not a number$"),
            ({"results": [{**ROW, "cpu_time": "1_000"}]},
             r"results\[0\]: cpu_time '1_000' is a string, not a number$"),
            ({"results": [{**ROW, "quality": "3"}]},
             r"results\[0\]: quality '3' is a string, not a number$"),
            ({"results": [{**ROW, "quality": ""}]},
             r"results\[0\]: quality '' is a string, not a number$"),
        ],
    )
    def test_malformed_structure_rejected(self, tmp_path, doc, fragment):
        path = write_json(tmp_path, doc)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: .*{fragment}"):
            load_dataset(path)

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

    def test_run_rows_view_the_instance_layout(self):
        # Runs shuffled: each instance's runs are apart in the input rows.
        d = build_dataset(
            ["A"], [("i1", 0), ("i2", 0), ("i1", 1), ("i3", 2), ("i2", 1), ("i3", 0)],
            lambda s, rk: record(True),
        )
        rows = d.run_rows
        assert rows.tolist() == [[0, 2], [1, 4], [3, 5]]
        assert np.shares_memory(rows, d.instance_layout[0])
        with pytest.raises(ValueError):
            rows[0, 0] = 1
        # Instances with different run counts have no rows.
        d = build_dataset(["A"], [("i1", 0), ("i2", 0), ("i1", 1)], lambda s, rk: record(True))
        assert d.run_rows is None and d.stratum_layout[1] is None

    def test_stratum_layout_groups_instances_by_stratum(self):
        # Strata first seen in the order Y, X; instances of X keep their order.
        d = build_dataset(
            ["A"], [("i1", 0), ("i2", 0), ("i1", 1), ("i3", 0), ("i2", 1), ("i3", 1)],
            lambda s, rk: record(True),
            strata={"i1": "Y", "i2": "X", "i3": "X"},
        )
        instances, rows, sizes, starts = d.stratum_layout
        assert instances.tolist() == [0, 1, 2]
        assert rows.tolist() == [[0, 2], [1, 4], [3, 5]]
        assert (sizes.dtype, sizes.tolist(), starts.tolist()) == (np.uint64, [1, 2, 2], [0, 1, 1])
        d = build_dataset(
            ["A"], [("i1", 0), ("i2", 0), ("i3", 0)], lambda s, rk: record(True),
            strata={"i1": "Y", "i2": "X", "i3": "Y"},
        )
        instances, rows, sizes, starts = d.stratum_layout
        assert (instances.tolist(), rows.tolist()) == ([0, 2, 1], [[0], [2], [1]])
        assert (sizes.tolist(), starts.tolist()) == ([2, 2, 1], [0, 0, 2])


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


class TestColumnarCsv:
    """The columnar CSV reader against the per-row reader it falls back to."""

    ROWS = "A,i1,0,solved,{},\nB,i1,0,timeout,2.0,\n"
    AGREEMENT = {
        # spellings of a number
        "underscore": (ROWS.format("1_000"), True),
        "padded": (ROWS.format(" 12.5 "), True),
        "arabic_indic": (ROWS.format("١٢.٥"), False),
        "overflow": (ROWS.format("1e999"), False),
        "hex": (ROWS.format("0x10"), False),
        "empty_time": (ROWS.format(""), False),
        "nan": (ROWS.format("nan"), False),
        "negative_zero": (ROWS.format("-0.0"), True),
        "leading_dot": (ROWS.format(".5"), True),
        "trailing_dot": (ROWS.format("5."), True),
        "sixteen_digits": (ROWS.format("1234567890123456.5"), True),
        "long_mantissa": (ROWS.format("0.1000000000000000055511151231257827"), True),
        "exponent": (ROWS.format("2.5e-3"), True),
        "negative": (ROWS.format("-1"), False),
        "upper_exponent": (ROWS.format("1E3"), True),
        "plus_sign": (ROWS.format("+2.5"), True),
        "tab_padded": (ROWS.format("\t7.5\t"), True),
        "underflow": (ROWS.format("1e-400"), True),
        "inner_underscores": (ROWS.format("1_0.0_1"), True),
        "infinity": (ROWS.format("infinity"), False),
        "file_separator": (ROWS.format("\x1c7"), False),
        "arabic_indic_mid_file": (
            "A,i1,0,solved,1.5,\nA,i2,0,solved,١٢.٥,2\nA,i3,0,solved,2.5,\n", False
        ),
        "nan_quality": ("A,i1,0,solved,1.0,nan\n", False),
        "padded_quality": ("A,i1,0,solved,1.0, 3\n", True),
        # seeds and statuses
        "seed_spellings_one_run": ("A,i1,01,solved,1.0,\nB,i1,1,solved,2.0,\n", True),
        "seed_with_space": ("A,i1, 7,solved,1.0,\n", True),
        "negative_seed": ("A,i1,-1,solved,1.0,\n", False),
        "bad_seed": ("A,i1,x,solved,1.0,\n", False),
        "bad_status": ("A,i1,0,Solved,1.0,\n", False),
        "empty_instance": ("A,,0,solved,1.0,\n", False),
        # layout
        "crlf": ("A,i1,0,solved,1.0,\r\nB,i1,0,solved,2.0,3\r\n", True),
        "quoted_id": ('A,"i,1",0,solved,1.0,\nB,"i,1",0,solved,2.0,\n', False),
        "quoted_plain_id": ('A,"i1",0,solved,1.0,\nB,i1,0,solved,2.0,\n', False),
        "blank_lines": ("A,i1,0,solved,1.0,\n\nB,i1,0,solved,2.0,\n\n", False),
        "no_trailing_newline": ("A,i1,0,solved,1.0,\nB,i1,0,solved,2.0,", True),
        "lone_carriage_return": ("A,i1,0,solved,1.0,\rB,i1,0,solved,2.0,\n", False),
        # a CR must be followed by a line feed, also as the file's last byte
        "carriage_return_in_id": ("A,i\r1,0,solved,1.0,\nB,i\r1,0,solved,2.0,\n", False),
        "bare_carriage_return_at_end": ("A,i1,0,solved,1.0,\nB,i1,0,solved,2.0,\r", False),
        "crlf_then_bare_carriage_return_at_end": (
            "A,i1,0,solved,1.0,\r\nB,i1,0,solved,2.0,\r", False
        ),
        "non_ascii_ids": ("éè,ü \x85,0,solved,1.0,\nB,ü \x85,0,solved,2.0,\n", True),
        "four_fields": ("A,i1,0,solved\n", False),
        "seven_fields": ("A,i1,0,solved,1.0,,\n", False),
        # five commas a line on average: line 2 would read as "B,i1,0,solved,2.0,7"
        "four_then_six_commas": ("A,i1,0,solved,1\n5,B,i1,0,solved,2.0,7\n", False),
        "header_only": ("", False),
        "short_run_after_long": (
            "A," + "x" * 40 + "," + "1" * 20 + ",solved,1,\nA,i,0,solved,1,\n",
            True,
        ),
        # errors raised after placement keep their line
        "duplicate_late": ("A,i1,0,solved,1.0,\n" * 2 + "B,i1,0,solved,1.0,\n" * 3, True),
        "missing_entry": ("A,i1,0,solved,1.0,\nB,i2,0,solved,1.0,\n", True),
        # codes follow first appearance, not the sorted order of the texts
        "reverse_sorted_ids": (
            "".join(
                f"{solver},{instance},{seed},solved,1.0,\n"
                for solver in "CBA"
                for instance, seed in (("i3", 2), ("i2", 1), ("i1", 0))
            ),
            True,
        ),
    }

    @staticmethod
    def outcome(path, config=None):
        try:
            d = load_dataset(path, config)
        except model.DataError as exc:
            return type(exc).__name__, str(exc)
        arrays = tuple(column.tobytes() for column in (d.status, d.cpu_time, d.quality))
        return d, arrays

    def assert_agree(self, path, monkeypatch, accepted, config=None):
        assert (model._columnar_table(path, str) is not None) == accepted
        columnar = self.outcome(path, config)
        with monkeypatch.context() as m:
            m.setattr(model, "_columnar_table", lambda path, where: None)
            per_row = self.outcome(path, config)
        assert columnar == per_row

    @pytest.mark.parametrize("block_bytes", [1, 7, 1 << 18])
    @pytest.mark.parametrize("name", list(AGREEMENT))
    def test_paths_agree(self, tmp_path, monkeypatch, name, block_bytes):
        monkeypatch.setattr(model, "_CSV_BLOCK_BYTES", block_bytes)
        body, accepted = self.AGREEMENT[name]
        path = tmp_path / "runs.csv"
        header = CSV_HEADER.replace("\n", "\r\n") if "crlf" in name else CSV_HEADER
        path.write_bytes((header + body).encode())
        self.assert_agree(path, monkeypatch, accepted)

    @pytest.mark.parametrize("layout", ["lf", "crlf", "no_final_newline"])
    def test_paths_agree_across_default_blocks(self, tmp_path, monkeypatch, layout):
        # 30 solvers x 400 instances x 2 seeds: about 1.15 MB, five blocks.
        rng = random.Random(28)
        statuses = [status.value for status in RunStatus]
        lines = [CSV_HEADER.rstrip("\n")]
        for solver in range(30):
            for instance in range(400):
                for seed in range(2):
                    quality = f"{rng.uniform(0, 100):.4f}" if rng.random() < 0.5 else ""
                    lines.append(
                        f"solver{solver:02d},inst{instance:04d},{seed},"
                        f"{rng.choice(statuses)},{rng.uniform(0, 300):.6f},{quality}"
                    )
        end = "\r\n" if layout == "crlf" else "\n"
        text = end.join(lines) + ("" if layout == "no_final_newline" else end)
        assert len(text) > 4 * model._CSV_BLOCK_BYTES
        path = tmp_path / "runs.csv"
        path.write_bytes(text.encode())
        self.assert_agree(path, monkeypatch, True)

    @pytest.mark.parametrize("layout", ["lf", "crlf", "no_final_newline"])
    def test_columns_hold_rows_of_the_minimum_length(self, tmp_path, monkeypatch, layout):
        # 40 x 40 one-letter solvers and instances: 1,600 lines of 16 bytes
        # ("x,y,0,solved,0," and "\n"), the most the file's size allows.
        letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMN"
        end = "\r\n" if layout == "crlf" else "\n"
        lines = [CSV_HEADER.rstrip("\n")]
        lines += [f"{x},{y},0,solved,0," for x in letters for y in letters]
        text = end.join(lines) + ("" if layout == "no_final_newline" else end)
        path = tmp_path / "runs.csv"
        path.write_bytes(text.encode())
        table = model._columnar_table(path, str)
        assert table is not None and len(table.status) == len(table.positions) == 1_600
        self.assert_agree(path, monkeypatch, True)

    def test_lines_shorter_than_the_minimum_go_to_the_per_row_reader(self, tmp_path):
        # 11-byte lines: more rows than a valid file of this size can hold.
        path = write_csv(tmp_path, "a,b,0,x,0,\n" * 3_000)
        assert model._columnar_table(path, str) is None
        with pytest.raises(ParseError, match=r"runs\.csv:2: unknown status 'x'$"):
            load_dataset(path)

    def test_rows_past_the_size_at_open_go_to_the_per_row_reader(self, tmp_path, monkeypatch):
        # One line a block: a block past the columns' end is one row, which
        # numpy would broadcast into an empty slice.
        monkeypatch.setattr(model, "_CSV_BLOCK_BYTES", 1)
        path = write_csv(tmp_path, "A,i1,0,solved,1.0,\nB,i1,0,solved,2.0,\n")
        stat = os.stat(path)
        grown = os.stat_result((*stat[:6], len(CSV_HEADER), *stat[7:]))  # size: the header's
        with monkeypatch.context() as m:
            m.setattr(os, "fstat", lambda fd: grown)
            assert model._columnar_table(path, str) is None
        assert model._columnar_table(path, str) is not None

    @pytest.mark.parametrize(
        "data,accepted",
        [
            (b"\xef\xbb\xbf" + CSV_HEADER.encode() + b"A,i1,0,solved,1.0,\n", False),
            (CSV_HEADER.encode() + b"A,i\xff,0,solved,1.0,\n", False),
            (CSV_HEADER.encode() + b"A,i1,0,solved,1\xc3.0,\n", False),
            (CSV_HEADER.encode() + b"A,i,0,solved,1.0,\nA,i\x00,0,solved,1.0,\n", False),
            (CSV_HEADER.encode() + b"A," + b"i" * 200_000 + b",0,solved,1.0,\n", False),
        ],
        ids=["bom", "bad_utf8_id", "bad_utf8_number", "nul", "oversized_field"],
    )
    def test_paths_agree_on_bytes(self, tmp_path, monkeypatch, data, accepted):
        path = tmp_path / "runs.csv"
        path.write_bytes(data)
        self.assert_agree(path, monkeypatch, accepted)

    @pytest.mark.parametrize("block_bytes", [1, 7, 1 << 18])
    def test_best_known_quality_error_after_a_block_boundary(
        self, tmp_path, monkeypatch, block_bytes
    ):
        monkeypatch.setattr(model, "_CSV_BLOCK_BYTES", block_bytes)
        path = write_csv(
            tmp_path,
            "A,i1,0,solved,1.0,9.0\nB,i1,0,solved,1.0,8.0\n"
            "A,i2,0,solved,1.0,3\nB,i2,0,solved,1.0,1.5\n",
        )
        reference = {"reference": {"i2@0": {"best_known_quality": 2.0}}}
        comp = write_json(tmp_path, reference, "comp.json")
        self.assert_agree(path, monkeypatch, True, comp)
        with pytest.raises(ParseError, match=r"runs\.csv:5: successful run of solver 'B'"):
            load_dataset(path, comp)

    def test_duplicate_after_a_block_boundary_names_its_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(model, "_CSV_BLOCK_BYTES", 40)  # two 19-byte lines a block
        body = "A,i1,0,solved,1.0,\nA,i2,0,solved,1.0,\nB,i1,0,solved,1.0,\nA,i2,0,solved,1.0,\n"
        path = write_csv(tmp_path, body)
        assert model._columnar_table(path, str) is not None
        message = r"runs\.csv:5: duplicate result for solver 'A' on run i2@0"
        with pytest.raises(DuplicateEntryError, match=message):
            load_dataset(path)

    @pytest.mark.parametrize("block_bytes", [1, 1 << 18])
    def test_runs_with_the_same_bytes_in_other_fields_stay_apart(
        self, tmp_path, monkeypatch, block_bytes
    ):
        # Both rows' instance and seed bytes read "abcdefgh", "12345678", "9".
        monkeypatch.setattr(model, "_CSV_BLOCK_BYTES", block_bytes)
        path = write_csv(
            tmp_path, "A,abcdefgh12345678,9,solved,1.0,\nA,abcdefgh,123456789,solved,2.0,\n"
        )
        self.assert_agree(path, monkeypatch, True)
        runs = load_dataset(path).runs
        assert runs == (RunKey("abcdefgh12345678", 9), RunKey("abcdefgh", 123456789))

    @staticmethod
    def numbers(texts):
        """``_numbers`` of the texts, laid out as a block's fields."""
        data = b",".join(text.encode() for text in texts)
        lengths = np.array([len(text.encode()) for text in texts])
        firsts = np.concatenate(([0], np.cumsum(lengths[:-1] + 1)))
        block = np.frombuffer(data + bytes(8), dtype=np.uint8)
        return model._numbers(model._words(block, firsts, lengths))

    @staticmethod
    def spelling(rng):
        """A random ASCII text near a number's spelling: signs, exponents,
        underscores, spaces and tabs, ``inf``/``nan`` words and stray bytes."""
        def digits():
            return "".join(rng.choice("0123456789_") for _ in range(rng.randint(0, 4)))

        word = rng.choice(["inf", "nan", "infinity", "in", "nana"])
        body = rng.choice([
            digits(),
            f"{digits()}.{digits()}",
            "".join(c.upper() if rng.random() < 0.5 else c for c in word),
        ])
        if rng.random() < 0.4:
            body += rng.choice("eE") + rng.choice(["", "+", "-"]) + digits()
        text = rng.choice(["", "", "+", "-", "--", "+-"]) + body
        pads = ["", " ", "\t", "\x0b\x0c", "\x1c", "\x1f"]
        text = rng.choice(pads) + text + rng.choice(pads)
        for _ in range(rng.choice([0, 0, 1, 2])):  # insert a stray printable byte
            n = rng.randint(0, len(text))
            text = text[:n] + rng.choice("0.1e+-_ x") + text[n:]
        return text

    def test_numbers_match_float_bit_for_bit(self):
        def expected(text):
            try:
                value = float(text)
            except ValueError:
                return None
            return value if 0 <= value < math.inf else None

        rng = random.Random(15)
        decimals = []
        for _ in range(200_000):
            digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 17)))
            cut = rng.randint(0, len(digits))
            decimals.append(digits if rng.random() < 0.2 else f"{digits[:cut]}.{digits[cut:]}")
        want = np.array([float(text) for text in decimals])
        assert self.numbers(decimals).tobytes() == want.tobytes()
        accepted = 0
        for text in sorted({self.spelling(rng) for _ in range(20_000)} - {""}):
            value = expected(text)
            if value is None:
                with pytest.raises(ValueError):
                    self.numbers([text])
            else:
                accepted += 1
                assert self.numbers([text]).tobytes() == np.float64(value).tobytes(), text
        assert accepted > 1_000
        # Non-ASCII digits and spaces, which float() may read, fail the
        # block cast; the per-row reader reads such a file.
        for text in ["١٢.٥", "\xa03\u2003", "３.５", "\u200b3", "²", "-٠"]:
            with pytest.raises(ValueError):
                self.numbers([text])
