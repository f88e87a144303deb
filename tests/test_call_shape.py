"""The call shape of ``analyze`` as the benchmark's traced run sees it.

``perfbench/traced.py`` wraps module-level names where each caller looks
them up and counts the calls that go through them; a traced run whose
product code stops calling through one of those seams, or calls it a
different number of times, fails without a result.  This test wraps the
same names with the same tracer around one in-process ``analyze``, and
checks that its metrics are the per-layer metrics ``BENCHMARK.json``
declares.
"""

import importlib
import importlib.util
import json
import math
import random
from pathlib import Path

import pytest

from rankbench.cli import run_cli

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "perfbench" / "traced.py"
BENCHMARK = ROOT / "BENCHMARK.json"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_table(tmp_path, seeds, strata, qualities=False):
    """5 solvers x 12 instances x ``seeds`` seeds, as CSV and config; with
    ``strata``, the instances alternate between two strata, and with
    ``qualities`` every row reports a quality."""
    rng = random.Random(41)
    lines = ["solver,instance,seed,status,cpu_time,quality"]
    for solver in ("s1", "s2", "s3", "s4", "s5"):
        for j in range(12):
            for seed in range(seeds):
                solved = rng.random() < 0.6
                status = "solved" if solved else "timeout"
                time = round(rng.uniform(1.0, 90.0), 2) if solved else 100.0
                quality = rng.randint(0, 40) if qualities else ""
                lines.append(f"{solver},i{j:02d},{seed},{status},{time},{quality}")
    runs = tmp_path / "runs.csv"
    runs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = tmp_path / "comp.json"
    comp = {"cutoff_seconds": 100.0}
    if strata:
        comp["strata"] = {f"i{j:02d}": "even" if j % 2 == 0 else "odd" for j in range(12)}
    config.write_text(json.dumps(comp), encoding="utf-8")
    return runs, config


# (seeds, strata, flags, stratified, (solvers, runs, instances)).  The
# second is the benchmark's acceptance shape: uniform draws of one run per
# instance, which return their drawn indices and are counted as runs.  The
# third is its large shape: par_k with no tiebreak and no leave-one-out.
# The fourth is its fragility shape: mean_metric over every row's quality,
# stratified draws of two seeds an instance, leave-one-out, no tiebreak.
WITH_TIEBREAK = ("--tiebreak", "total_time", "--with-sensitivity")
SHAPES = {
    "two_seed_stratified": (
        2, True, ("--mechanism", "par_k", *WITH_TIEBREAK), True, (5, 24, 12)
    ),
    "acceptance": (1, False, ("--mechanism", "solved_count", *WITH_TIEBREAK), False, (5, 12, 12)),
    "large": (1, False, ("--mechanism", "par_k", "--par-k", "10"), False, (5, 12, 12)),
    "fragility": (
        2, True, ("--mechanism", "mean_metric", "--with-sensitivity"), True, (5, 24, 12)
    ),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_traced_analyze_calls_every_seam_as_often_as_the_report_says(
    monkeypatch, tmp_path, shape
):
    seeds, strata, flags, stratified, sizes = SHAPES[shape]
    traced = load_traced()
    tracer = traced.Tracer()
    for module_name, attr, name in traced.WRAPPED:
        module = importlib.import_module(f"rankbench.{module_name}")
        if hasattr(module, attr):
            monkeypatch.setattr(module, attr, getattr(module, attr))  # undone after the test
        tracer.wrap(module, attr, name)
    runs, config = write_table(tmp_path, seeds, strata, qualities=shape == "fragility")
    out = tmp_path / "report.json"
    argv = [
        "analyze", "--input", str(runs), "--config", str(config), *flags,
        "--replicates", "300", "--seed", "7", "--output", str(out),
    ]
    assert run_cli(argv) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["config"]["stratified"] is stratified
    sensitivity = "--with-sensitivity" in flags

    names = {name for _, _, name in traced.WRAPPED}
    called = {span[0] for span in tracer.spans}
    assert tracer.wrapped == names  # every span name has a seam the package still has
    assert called == (names if sensitivity else names - {"sensitivity.leave_one_out"})

    def calls(name):
        return sum(span[0] == name for span in tracer.spans)

    metrics = traced.layer_metrics(tracer.spans, [])
    # run.py adds trace.overhead_s; a declared metric missing here would be
    # missing from a traced run's result.
    declared = {m["name"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]}
    assert set(metrics) | {"trace.overhead_s"} == declared
    assert all(math.isfinite(value) for value in metrics.values()), metrics
    dataset = report["dataset"]
    assert (dataset["solvers"], dataset["runs"], dataset["instances"]) == sizes
    tests = sum(len(iteration["tests"]) for iteration in report["iterations"])
    assert metrics["resampling.draw_calls"] == 300
    assert metrics["resampling.words"] == 300 * dataset["runs"]
    assert metrics["stats.bootstrap_p_calls"] == tests > 0
    assert calls("stats.percentile_ci") == dataset["solvers"]
    assert metrics["sensitivity.rescorings"] == (dataset["instances"] if sensitivity else 0)
    assert metrics["report.bytes"] == out.stat().st_size
