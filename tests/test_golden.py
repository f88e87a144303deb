"""Output bytes are pinned: every file and stdout stream the commands write
for one small seeded dataset must hash to its committed SHA-256.

The dataset (6 solvers, 6 instances x 2 seeds, 3 strata, a cutoff and
reference data for every run) is scored under all six mechanisms, with
and without the ``total_time`` tiebreak, with uniform and stratified
replicates.  A digest that changes means the program's output changed.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from rankbench.cli import run_cli

DIGESTS = json.loads((Path(__file__).parent / "golden_digests.json").read_text(encoding="utf-8"))

MECHANISMS = ("solved_count", "optimal_count", "par_k", "ipc_quality", "ipc_agile", "mean_metric")
CASES = [
    f"{mechanism}/{tiebreak}/{sampling}"
    for mechanism in MECHANISMS
    for tiebreak in ("none", "total_time")
    for sampling in ("uniform", "stratified")
]


def dataset_doc() -> dict:
    """Seeded results with near-ties, timeouts, optimal runs and one solved
    run beyond the cutoff, so every mechanism, tiebreak and flag matters."""
    rng = random.Random(1402)
    instances = [f"inst{j}" for j in range(6)]
    reference, results = {}, []
    for instance in instances:
        for seed in (0, 1):
            best = round(rng.uniform(10, 20), 2)
            reference[f"{instance}@{seed}"] = {
                "best_known_quality": best,
                "reference_time": round(rng.uniform(1, 30), 2),
            }
            for s in range(6):
                solved = rng.random() < 0.75 - 0.05 * s
                status = rng.choice(["solved", "solved_optimal"]) if solved else "timeout"
                cpu_time = round(rng.uniform(0.5, 95), 1) if solved else 100.0
                if solved and s == 5 and instance == "inst3":
                    cpu_time = 120.0
                quality = round(best * rng.uniform(1, 1.5), 2)
                results.append({
                    "solver": f"s{s}", "instance": instance, "seed": seed,
                    "status": status, "cpu_time": cpu_time, "quality": quality,
                })
    return {
        "cutoff_seconds": 100.0,
        "strata": {instance: f"family{j % 3}" for j, instance in enumerate(instances)},
        "reference": reference,
        "results": results,
    }


def output_digests(tmp_path: Path, capsys, case: str) -> dict[str, str]:
    """Run analyze, score, sensitivity and matrix for one case and return
    the SHA-256 of every output, keyed by its name."""
    mechanism, tiebreak, sampling = case.split("/")
    data = tmp_path / "competition.json"
    data.write_text(json.dumps(dataset_doc()), encoding="utf-8")
    common = ["--input", str(data), "--mechanism", mechanism]
    if tiebreak != "none":
        common += ["--tiebreak", tiebreak]
    sampling_flags = ["--replicates", "200", "--seed", "99",
                      "--stratified", "on" if sampling == "stratified" else "off"]
    out = tmp_path / "out"
    commands = {
        "analyze": ["analyze", *common, *sampling_flags, "--output", str(out / "report.json"),
                    "--with-sensitivity", "--csv-dir", str(out / "csv"),
                    "--plot-data", str(out / "plot.csv")],
        "score": ["score", *common, "--output", str(out / "score.json")],
        "sensitivity": ["sensitivity", *common, "--output", str(out / "flags.csv")],
        "matrix": ["matrix", *common, *sampling_flags, "--output", str(out / "matrix.csv")],
    }
    digests = {}
    out.mkdir()
    for name, argv in commands.items():
        assert run_cli(argv) == 0, name
        stdout = capsys.readouterr().out
        if stdout:
            digests[f"{name}.stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    for path in sorted(out.rglob("*")):
        if path.is_file():
            key = path.relative_to(out).as_posix()
            digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_output_bytes_match_digests(tmp_path, capsys, case):
    assert output_digests(tmp_path, capsys, case) == DIGESTS[case]
