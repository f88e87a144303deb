"""Command-line behavior: exit codes, outputs, determinism, environment."""

import csv
import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import rankbench
from rankbench.cli import run_cli

SOLVE_TABLE = {
    "alpha": [True, True, True, True, True, True],
    "beta": [True, True, True, True, False, False],
    "gamma": [True, True, False, False, False, False],
}
TIMES = {"alpha": 9.0, "beta": 5.0, "gamma": 2.0}


@pytest.fixture()
def runs_csv(tmp_path):
    lines = ["solver,instance,seed,status,cpu_time,quality"]
    for solver, solved in SOLVE_TABLE.items():
        for j, ok in enumerate(solved, start=1):
            status = "solved" if ok else "timeout"
            time = TIMES[solver] if ok else 100.0
            lines.append(f"{solver},i{j},0,{status},{time},")
    path = tmp_path / "runs.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture()
def comp_json(tmp_path):
    doc = {
        "cutoff_seconds": 100.0,
        "strata": {f"i{j}": ("crafted" if j <= 3 else "random") for j in range(1, 7)},
    }
    path = tmp_path / "comp.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def analyze_args(runs_csv, out, replicates="60", **extra):
    args = [
        "analyze", "--input", str(runs_csv), "--mechanism", "solved_count",
        "--replicates", replicates, "--output", str(out),
    ]
    for flag, value in extra.items():
        args.append("--" + flag.replace("_", "-"))
        if value is not True:
            args.append(str(value))
    return args


class TestAnalyze:
    def test_happy_path_writes_report(self, tmp_path, runs_csv, capsys):
        out = tmp_path / "report.json"
        code = run_cli(analyze_args(runs_csv, out, alpha="0.1", seed="3"))
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["config"] == {
            "alpha": 0.1, "master_seed": 3, "mechanism": "solved_count",
            "replicates": 60, "stratified": False, "tiebreak": [],
        }
        assert [row["solver"] for row in doc["official"]] == ["alpha", "beta", "gamma"]
        assert doc["sensitivity"] is None
        assert set(doc["solvers"]) == {"alpha", "beta", "gamma"}

    def test_side_outputs(self, tmp_path, runs_csv):
        out = tmp_path / "report.json"
        code = run_cli(analyze_args(
            runs_csv, out, with_sensitivity=True,
            plot_data=tmp_path / "plot.csv", top="2", csv_dir=tmp_path / "tables",
        ))
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["sensitivity"]["depths"] == {"top10": 3, "top3": 3}
        plot = (tmp_path / "plot.csv").read_text(encoding="utf-8").splitlines()
        assert plot[0].startswith("solver,official_rank,")
        assert len(plot) == 3
        assert (tmp_path / "tables" / "sensitivity.csv").exists()
        assert (tmp_path / "tables" / "solvers.csv").exists()

    def test_config_file_enables_auto_stratification(self, tmp_path, runs_csv, comp_json):
        out = tmp_path / "report.json"
        code = run_cli(analyze_args(runs_csv, out, config=comp_json))
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["config"]["stratified"] is True
        assert doc["dataset"]["strata"] == 2
        assert doc["dataset"]["cutoff_seconds"] == 100.0

    def test_stratified_off_overrides_auto(self, tmp_path, runs_csv, comp_json):
        out = tmp_path / "report.json"
        code = run_cli(analyze_args(runs_csv, out, config=comp_json, stratified="off"))
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["config"]["stratified"] is False

    def test_reruns_and_thread_counts_are_byte_identical(self, tmp_path, runs_csv):
        outs = [tmp_path / f"r{i}.json" for i in range(3)]
        for out, threads in zip(outs, ("1", "1", "7")):
            assert run_cli(analyze_args(runs_csv, out, threads=threads)) == 0
        blobs = [out.read_bytes() for out in outs]
        assert blobs[0] == blobs[1] == blobs[2]


class TestScore:
    def test_stdout_json(self, runs_csv, capsys):
        assert run_cli(["score", "--input", str(runs_csv),
                        "--mechanism", "solved_count"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mechanism"] == "solved_count"
        assert doc["scores"] == {"alpha": 6.0, "beta": 4.0, "gamma": 2.0}
        assert [row["rank"] for row in doc["ranking"]] == [1, 2, 3]

    def test_output_file_matches_stdout(self, tmp_path, runs_csv, capsys):
        assert run_cli(["score", "--input", str(runs_csv),
                        "--mechanism", "solved_count"]) == 0
        stdout = capsys.readouterr().out
        path = tmp_path / "scores.json"
        assert run_cli(["score", "--input", str(runs_csv),
                        "--mechanism", "solved_count", "--output", str(path)]) == 0
        assert path.read_text(encoding="utf-8") == stdout

    def test_par_penalty_flag_changes_par_scores(self, runs_csv, comp_json, capsys):
        base = ["score", "--input", str(runs_csv), "--config", str(comp_json),
                "--mechanism", "par_k"]
        assert run_cli(base) == 0
        ten = json.loads(capsys.readouterr().out)
        assert run_cli(base + ["--par-k", "2"]) == 0
        two = json.loads(capsys.readouterr().out)
        assert ten["mechanism"] == "par_k(10)"
        assert two["mechanism"] == "par_k(2)"
        assert ten["scores"]["gamma"] < two["scores"]["gamma"]

    def test_tiebreak_flag_orders_equal_scores(self, tmp_path, capsys):
        lines = ["solver,instance,seed,status,cpu_time,quality",
                 "slow,i1,0,solved,50.0,",
                 "fast,i1,0,solved,1.0,"]
        path = tmp_path / "tie.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        base = ["score", "--input", str(path), "--mechanism", "solved_count"]
        assert run_cli(base) == 0
        plain = json.loads(capsys.readouterr().out)
        assert [r["solver"] for r in plain["ranking"]] == ["fast", "slow"]
        assert [r["rank"] for r in plain["ranking"]] == [1, 1]
        assert run_cli(base + ["--tiebreak", "total_time"]) == 0
        broken = json.loads(capsys.readouterr().out)
        assert [r["rank"] for r in broken["ranking"]] == [1, 2]


class TestMatrixAndSensitivity:
    def test_matrix_csv_shape(self, tmp_path, runs_csv):
        out = tmp_path / "matrix.csv"
        code = run_cli(["matrix", "--input", str(runs_csv), "--mechanism",
                        "solved_count", "--replicates", "25", "--output", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "replicate,alpha,beta,gamma"
        assert len(lines) == 26

    def test_sensitivity_outputs(self, tmp_path, runs_csv, capsys):
        flags = tmp_path / "flags.csv"
        agg = tmp_path / "agg.json"
        code = run_cli(["sensitivity", "--input", str(runs_csv), "--mechanism",
                        "solved_count", "--output", str(flags), "--json", str(agg)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert agg.read_text(encoding="utf-8") == stdout
        doc = json.loads(stdout)
        assert doc["instances"] == 6
        assert set(doc["counts"]) == {
            "any_change", "top10_comp", "top10_order", "top3_comp", "top3_order"
        }
        header = flags.read_text(encoding="utf-8").splitlines()[0]
        assert header == "instance,any_change,top10_comp,top10_order,top3_comp,top3_order"


class TestEmptyDataset:
    def test_score_prints_an_empty_ranking(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"results": []}', encoding="utf-8")
        assert run_cli(["score", "--input", str(path), "--mechanism", "solved_count"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"mechanism": "solved_count", "ranking": [], "scores": {}}


class TestExitCodes:
    def test_missing_mechanism_is_usage_error(self, tmp_path, runs_csv, capsys):
        code = run_cli(["analyze", "--input", str(runs_csv),
                        "--output", str(tmp_path / "r.json")])
        assert code == 2

    def test_bad_alpha_is_usage_error(self, tmp_path, runs_csv, capsys):
        code = run_cli(analyze_args(runs_csv, tmp_path / "r.json", alpha="1.5"))
        assert code == 2

    def test_zero_replicates_is_usage_error(self, tmp_path, runs_csv, capsys):
        code = run_cli(analyze_args(runs_csv, tmp_path / "r.json", replicates="0"))
        assert code == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_unsigned_bits_is_usage_error(self, tmp_path, runs_csv, capsys, seed):
        code = run_cli(analyze_args(runs_csv, tmp_path / "r.json", seed=seed))
        assert code == 2
        assert f"seed must fit in 64 unsigned bits, got {seed}" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli(["frobnicate"]) == 2
        assert run_cli([]) == 2

    def test_sensitivity_has_no_threads_flag(self, tmp_path, runs_csv, capsys):
        code = run_cli(["sensitivity", "--input", str(runs_csv), "--mechanism",
                        "solved_count", "--output", str(tmp_path / "f.csv"),
                        "--threads", "2"])
        assert code == 2

    def test_replicates_beyond_physical_memory_is_data_error(self, tmp_path, runs_csv, capsys):
        # The preflight refuses before allocating anything.
        for command in ("analyze", "matrix"):
            args = analyze_args(runs_csv, tmp_path / "out", replicates=str(10**15))
            args[0] = command
            assert run_cli(args) == 1
            err = capsys.readouterr().err
            assert err.startswith("rankbench: error: 1000000000000000 replicates of 3 solvers")
            assert "physical memory" in err
            assert not (tmp_path / "out").exists()

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "analyze" in capsys.readouterr().out

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code = run_cli(analyze_args(tmp_path / "nope.csv", tmp_path / "r.json"))
        assert code == 1
        assert capsys.readouterr().err.startswith("rankbench: error:")

    def test_malformed_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("solver,instance,seed,status,cpu_time,quality\n"
                       "a,i1,0,meh,1.0,\n", encoding="utf-8")
        code = run_cli(["score", "--input", str(bad), "--mechanism", "solved_count"])
        assert code == 1
        err = capsys.readouterr().err
        assert "rankbench: error:" in err and "status" in err

    def test_oversized_csv_field_is_one_error_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("solver,instance,seed,status,cpu_time,quality\n"
                       f"A,{'i' * 200_000},0,solved,1.0,\n", encoding="utf-8")
        code = run_cli(["score", "--input", str(bad), "--mechanism", "solved_count"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"rankbench: error: {bad}:2: field larger than field limit (131072)\n"
        )

    def test_config_naming_an_absent_instance_is_data_error(self, tmp_path, runs_csv, capsys):
        config = tmp_path / "comp.json"
        config.write_text(json.dumps({"strata": {"i_2": "d2"}}), encoding="utf-8")
        code = run_cli(["score", "--input", str(runs_csv), "--config", str(config),
                        "--mechanism", "solved_count"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"rankbench: error: {config}: strata instance 'i_2' is not in the data\n"
        )

    def test_misspelled_config_key_is_data_error(self, tmp_path, runs_csv, capsys):
        # This ran unstratified, the misspelled "strata" dropped.
        config = tmp_path / "comp.json"
        config.write_text(json.dumps({"stata": {"i1": "d1"}, "cutoff_seconds": 5}),
                          encoding="utf-8")
        code = run_cli(analyze_args(runs_csv, tmp_path / "r.json", config=config))
        assert code == 1
        assert capsys.readouterr().err == (
            f"rankbench: error: {config}: unknown config key 'stata'\n"
        )

    def test_mechanism_without_reference_data_is_data_error(self, runs_csv, capsys):
        code = run_cli(["score", "--input", str(runs_csv),
                        "--mechanism", "ipc_quality"])
        assert code == 1
        assert "rankbench: error:" in capsys.readouterr().err


class TestThreadsEnv:
    def test_env_variable_is_ignored(self, tmp_path, runs_csv, monkeypatch):
        plain = tmp_path / "plain.json"
        assert run_cli(analyze_args(runs_csv, plain)) == 0
        monkeypatch.setenv("RANKBENCH_THREADS", "lots")
        env_out = tmp_path / "env.json"
        assert run_cli(analyze_args(runs_csv, env_out)) == 0
        assert plain.read_bytes() == env_out.read_bytes()


class TestCsvQuoting:
    """Ids holding a comma or a quote come back whole from every CSV output."""

    SOLVERS = ('a,"1', "b", "c")
    INSTANCES = ('i,"2', "j", "k", "l")

    def test_every_emitted_table_parses_back_to_the_ids(self, tmp_path):
        runs = tmp_path / "runs.csv"
        with runs.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["solver", "instance", "seed", "status", "cpu_time", "quality"])
            for i, solver in enumerate(self.SOLVERS):
                for j, instance in enumerate(self.INSTANCES):
                    status = "solved" if (i + j) % 3 else "timeout"
                    writer.writerow([solver, instance, 0, status, 1.5 + i + j, ""])
        io = ["--input", str(runs), "--mechanism", "solved_count"]
        sampling = ["--replicates", "50"]
        assert run_cli(["analyze", *io, *sampling, "--output", str(tmp_path / "r.json"),
                        "--with-sensitivity", "--csv-dir", str(tmp_path / "tables"),
                        "--plot-data", str(tmp_path / "plot.csv")]) == 0
        assert run_cli(["sensitivity", *io, "--output", str(tmp_path / "flags.csv")]) == 0
        assert run_cli(["matrix", *io, *sampling,
                        "--output", str(tmp_path / "matrix.csv")]) == 0

        def table(path):
            with path.open(encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
            assert all(len(row) == len(rows[0]) for row in rows), path.name
            return rows[0], rows[1:]

        tables = tmp_path / "tables"
        solver_columns = {
            tables / "official.csv": [0],
            tables / "solvers.csv": [0],
            tables / "groups.csv": [2],
            tables / "iterations.csv": [1, 2],
            tmp_path / "plot.csv": [0],
        }
        for path, columns in solver_columns.items():
            _, rows = table(path)
            assert rows, path.name
            for j in columns:
                assert {row[j] for row in rows} <= set(self.SOLVERS), path.name
            if columns == [0]:
                assert sorted(row[0] for row in rows) == sorted(self.SOLVERS), path.name
        for path in (tables / "sensitivity.csv", tmp_path / "flags.csv"):
            _, rows = table(path)
            assert [row[0] for row in rows] == list(self.INSTANCES), path.name
        header, rows = table(tmp_path / "matrix.csv")
        assert header == ["replicate", *self.SOLVERS]
        assert len(rows) == 50
        _, rows = table(tables / "diagnostics.csv")
        assert [row[0] for row in rows] == ["all", "top10", "top3"]


class TestModuleEntryPoint:
    def test_no_arguments_is_usage_error(self):
        # the child imports the same package as this interpreter
        src = str(Path(rankbench.__file__).resolve().parent.parent)
        path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        proc = subprocess.run(
            [sys.executable, "-m", "rankbench"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        )
        assert proc.returncode == 2
        assert "usage:" in proc.stderr


class TestBlasThreads:
    def test_float_report_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        rng = random.Random(11)
        lines = ["solver,instance,seed,status,cpu_time,quality"]
        for s in range(29):
            for j in range(500):
                ok = rng.random() < 0.3 + 0.4 * s / 28
                cpu = round(rng.uniform(1.0, 4999.0), 2) if ok else 5000.0
                lines.append(f"s{s:02d},i{j:03d},0,{'solved' if ok else 'timeout'},{cpu},")
        runs = tmp_path / "runs.csv"
        runs.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = tmp_path / "comp.json"
        config.write_text('{"cutoff_seconds": 5000}', encoding="utf-8")
        src = str(Path(rankbench.__file__).resolve().parent.parent)
        reports = []
        for blas in ("1", "2"):
            out = tmp_path / f"report-{blas}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "rankbench", "analyze", "--input", str(runs),
                 "--config", str(config), "--mechanism", "par_k", "--replicates", "2000",
                 "--output", str(out)],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": blas},
            )
            assert proc.returncode == 0, proc.stderr
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


class TestInstalledScript:
    def test_console_entry_point_runs(self, tmp_path, runs_csv):
        out = tmp_path / "report.json"
        proc = subprocess.run(
            ["rankbench", "analyze", "--input", str(runs_csv),
             "--mechanism", "solved_count", "--replicates", "40",
             "--output", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text(encoding="utf-8"))["config"]["replicates"] == 40

    def test_entry_point_and_interpreter_agree(self, runs_csv):
        args = ["score", "--input", str(runs_csv), "--mechanism", "solved_count"]
        script = subprocess.run(
            ["rankbench", *args], capture_output=True, text=True
        )
        interp = subprocess.run(
            [sys.executable, "-c", "from rankbench.cli import main; main()", *args],
            capture_output=True, text=True,
        )
        assert script.returncode == 0, script.stderr
        assert interp.returncode == 0, interp.stderr
        assert script.stdout == interp.stdout

    def test_no_arguments_is_usage_error(self):
        proc = subprocess.run(["rankbench"], capture_output=True, text=True)
        assert proc.returncode == 2
        assert "usage:" in proc.stderr


class TestConsoleScriptDeclaration:
    """The console script ``pyproject.toml`` declares, resolved in process,
    so the entry-point wiring is checked where no script is installed."""

    def test_declared_target_is_main_and_needs_a_command(self, monkeypatch, capsys):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"rankbench": "rankbench.cli:main"}
        module, _, name = scripts["rankbench"].partition(":")
        main = getattr(importlib.import_module(module), name)
        monkeypatch.setattr(sys, "argv", ["rankbench"])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
