"""Output bytes are pinned: every file and stdout stream the commands write
for one small seeded dataset must hash to its committed SHA-256.

The dataset (6 solvers, 6 instances x 2 seeds, 3 strata, a cutoff and
reference data for every run) is scored under all six mechanisms, with
and without the ``total_time`` tiebreak, with uniform and stratified
replicates.  A digest that changes means the program's output changed.

The float mechanisms' outputs are also written in child processes under
other numpy CPU dispatch levels and another OpenBLAS kernel, and must not
change there.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import rankbench
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


def output_digests(tmp_path: Path, case: str) -> dict[str, str]:
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
        with contextlib.redirect_stdout(io.StringIO()) as captured:
            assert run_cli(argv) == 0, name
        stdout = captured.getvalue()
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
def test_output_bytes_match_digests(tmp_path, case):
    assert output_digests(tmp_path, case) == DIGESTS[case]


FLOAT_CASES = [case for case in CASES if case.split("/")[0] in ("ipc_agile", "par_k")]
KERNEL_KNOBS = ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")
KERNELS = {
    "numpy_without_avx512": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR,AVX512_ICL,X86_V4"},
    "numpy_baseline": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR,AVX512_ICL,X86_V4,X86_V3"},
    "openblas_prescott": {"OPENBLAS_CORETYPE": "Prescott"},
}
CHILD = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from test_golden import FLOAT_CASES, output_digests
work = Path(sys.argv[2])
digests = {}
for j, case in enumerate(FLOAT_CASES):
    (work / str(j)).mkdir()
    digests[case] = output_digests(work / str(j), case)
print(json.dumps(digests))
"""


def child_digests(tmp_path: Path, knobs: dict[str, str]) -> dict:
    """:func:`output_digests` of every float case, from a fresh interpreter
    whose CPU-kernel variables are exactly ``knobs``; a numpy that refuses
    the requested dispatch level skips the calling test."""
    src = str(Path(rankbench.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k not in KERNEL_KNOBS}
    env.update(knobs, PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error::ImportWarning", "-c", CHILD,
         str(Path(__file__).parent), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    if proc.returncode != 0 and "cannot disable CPU feature" in proc.stderr:
        refusal = proc.stderr.strip().splitlines()[-2:]
        pytest.skip(f"numpy refuses {knobs} on this CPU: {' '.join(refusal)}")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def default_kernel_digests(tmp_path_factory) -> dict:
    return child_digests(tmp_path_factory.mktemp("default_kernel"), {})


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_float_outputs_do_not_depend_on_the_cpu_kernel(tmp_path, default_kernel_digests, kernel):
    assert child_digests(tmp_path, KERNELS[kernel]) == default_kernel_digests
