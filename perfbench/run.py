"""Closed-loop benchmark of the ``rankbench analyze`` command line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 30 --trace 0

One run generates the workload's inputs from ``--seed``, makes one untimed
``--threads 2`` invocation, then for about ``--seconds`` seconds alternates
an ``analyze`` child (``analyze_s``, ``peak_rss_mb``) with a
fresh-interpreter import of ``rankbench.cli`` (``setup_s``), one child at
a time, each timed child between two runs of ``calibrate.py`` that
calibrate its wall time to a reference machine speed.  Every timed child
runs with ``--threads 1`` and the BLAS and OpenMP pools pinned to one
thread.  Reports are read and checked only between children.

With ``--trace 1`` the loop alternates untraced children with traced ones
(``perfbench/traced.py``) and reports per-layer metrics instead.

The second-to-last line of standard output is a JSON record of the
environment, the exact-repeat counters and the quartiles of every timing;
the last line is the result: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

from checks import check_report, report_counters  # noqa: E402
from traced import LAYER_METRICS, layer_metrics  # noqa: E402
from workloads import NAMES, Workload, generate  # noqa: E402

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ANALYZE = "import sys; from rankbench.cli import main; sys.exit(main())"
SETUP = "import rankbench.cli"
PROBE = """
import json, os, sys, numpy, rankbench
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except (TypeError, KeyError):
    blas = {}
print(json.dumps({
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
    "rankbench_file": rankbench.__file__,
    "pinned": {k: os.environ.get(k) for k in %r},
}))
""" % (sorted(PINNED),)
CHILD_TIMEOUT_S = 60
TRACED = str(HERE / "traced.py")
CALIBRATE = str(HERE / "calibrate.py")
# Timings are reported at the machine speed where calibrate.py takes this long.
CALIBRATION_REF_S = 0.3

# Traced per-layer counters that must equal the counts a report implies.
TRACED_COUNTERS = {
    "model.rows": "rows",
    "resampling.words": "words_drawn",
    "resampling.draw_calls": "replicates",
    "ranking.rounds": "robust_rounds",
    "stats.bootstrap_p_calls": "bootstrap_tests",
    "sensitivity.rescorings": "loo_rescorings",
    "report.bytes": "report_bytes",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class Child:
    status: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def run_child(argv: list[str], env: dict, log: Path) -> Child:
    """Spawn ``python argv``, wait for it, and time it from spawn to exit."""
    with open(log, "wb") as fh:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, fh.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, fh.fileno(), 2),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
        previous = signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    return Child(
        status=os.waitstatus_to_exitcode(status),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
    )


def pinned_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "RANKBENCH_THREADS"}
    env.update(PINNED)
    env["PYTHONPATH"] = str(SRC)
    return env


def steal_seconds() -> float | None:
    """Machine-wide steal time so far, from /proc/stat (None if unreadable)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def summary(values: list[float]) -> dict:
    """Sample count, quartiles, and the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered)}
    if n >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(ordered, n=4)
    if n > 10:
        out[f"p{100 * (n - 10) // n}"] = ordered[n - 11]
    return out


class Session:
    """One benchmark run: inputs, the invocations made, and what they produced."""

    def __init__(self, workload: Workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.env = pinned_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: bytes | None = None

    def analyze(self, threads: int, traced_spans: Path | None = None) -> Child:
        """One ``analyze`` child; its report is checked after it has exited."""
        out = self.workdir / "report.json"
        out.unlink(missing_ok=True)
        argv = self.workload.analyze_argv(out, threads)
        if traced_spans is None:
            child = run_child(["-c", ANALYZE, *argv], self.env, self.workdir / "child.log")
        else:
            child = run_child([TRACED, str(traced_spans), *argv], self.env,
                              self.workdir / "child.log")
        self.attempted += 1
        problems = self._check(child, out)
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])
        return child

    def _check(self, child: Child, out: Path) -> list[str]:
        if child.status != 0:
            log = (self.workdir / "child.log").read_text(errors="replace")[-400:]
            return [f"analyze exited with {child.status}: {log}"]
        raw = out.read_bytes()
        if self.reference is None:
            self.reference = raw
            return check_report(json.loads(raw), self.workload.expected)
        if raw != self.reference:
            found = check_report(json.loads(raw), self.workload.expected)
            return ["report bytes differ from the run's first report", *found]
        return []

    def helper(self, argv: list[str]) -> Child:
        """A timed child that must succeed: the setup import or the calibration."""
        log = self.workdir / "helper.log"
        child = run_child(argv, self.env, log)
        if child.status != 0:
            raise BenchError(f"{argv} failed: {log.read_text(errors='replace')[-400:]}")
        return child


def probe_environment(env: dict, log: Path) -> dict:
    child = run_child(["-c", PROBE], env, log)
    text = log.read_text(errors="replace")
    if child.status != 0:
        raise BenchError(f"environment probe failed: {text[-400:]}")
    info = json.loads(text.strip().splitlines()[-1])
    if Path(info["rankbench_file"]).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"rankbench imported from {info['rankbench_file']}, not from {SRC}")
    if info["pinned"] != PINNED:
        raise BenchError(f"thread pools not pinned in the child: {info['pinned']}")
    return info


def check_counters(name: str, seed: int, counters: dict) -> list[str]:
    """Compare with the counters an earlier run of this code and seed stored."""
    path = WORK / "counters" / f"{name}-{seed}.json"
    if path.exists():
        stored = json.loads(path.read_text())
        if stored != counters:
            return [f"counters {counters} differ from an earlier run's {stored}"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counters, sort_keys=True) + "\n")
    return []


def measure(session: Session, seconds: float, trace: bool) -> dict[str, list]:
    """The timed loop: one child at a time for about ``seconds``.

    The loop stops after the iteration that ends nearest the deadline, so a
    run lasts ``seconds`` give or take half an iteration.
    """
    samples: dict[str, list] = {"analyze": [], "setup": [], "calibrate": [], "traced": []}
    spans_path = session.workdir / "spans.json"
    start = time.perf_counter()
    if not trace:
        samples["calibrate"].append(session.helper([CALIBRATE]))
    while True:
        iteration_start = time.perf_counter()
        if trace:
            samples["analyze"].append(session.analyze(threads=1))
            spans_path.unlink(missing_ok=True)
            child = session.analyze(threads=1, traced_spans=spans_path)
            if child.status == 0:
                doc = json.loads(spans_path.read_text())
                samples["traced"].append((child, layer_metrics(doc["spans"], doc["absent"])))
                samples["absent"] = doc["absent"]
        else:
            # Calibration children bracket every timed child: C A C S C A C S C ...
            samples["analyze"].append(session.analyze(threads=1))
            samples["calibrate"].append(session.helper([CALIBRATE]))
            samples["setup"].append(session.helper(["-c", SETUP]))
            samples["calibrate"].append(session.helper([CALIBRATE]))
        now = time.perf_counter()
        if now - start + (now - iteration_start) / 2 >= seconds:
            return samples


def calibrated(children: list[Child], calibrations: list[Child], first: int) -> list[float]:
    """Each child's wall time at the reference speed.

    Child ``i`` ran between calibrations ``first + 2i`` and ``first + 2i + 1``;
    its time is scaled by ``CALIBRATION_REF_S`` over their geometric mean.
    """
    out = []
    for i, child in enumerate(children):
        before, after = calibrations[first + 2 * i], calibrations[first + 2 * i + 1]
        out.append(child.wall_s * CALIBRATION_REF_S / math.sqrt(before.wall_s * after.wall_s))
    return out


def end_to_end_metrics(samples: dict[str, list], timings: dict) -> dict:
    """Medians over the run's children; the two times calibrated per child."""
    timings["setup_wall_s"] = summary([c.wall_s for c in samples["setup"]])
    timings["calibrate_wall_s"] = summary([c.wall_s for c in samples["calibrate"]])
    timings["analyze_s"] = summary(calibrated(samples["analyze"], samples["calibrate"], 0))
    timings["setup_s"] = summary(calibrated(samples["setup"], samples["calibrate"], 1))
    return {
        "analyze_s": {"value": timings["analyze_s"]["median"], "unit": "s"},
        "peak_rss_mb": {"value": timings["peak_rss_mb"]["median"], "unit": "MB"},
        "setup_s": {"value": timings["setup_s"]["median"], "unit": "s"},
    }


def traced_metrics(
    samples: dict[str, list], timings: dict, counters: dict, problems: list[str]
) -> tuple[dict, list[str]]:
    """Per-layer medians over the traced children, plus the tracing overhead."""
    traced = samples["traced"]
    if not traced:
        raise BenchError("no traced invocation succeeded")
    units = {k: u for k, (u, _) in LAYER_METRICS.items()}
    layers = {}
    for name in traced[0][1]:
        values = [m[name] for _, m in traced]
        if units[name] in ("count", "bytes"):
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced runs: {values}")
            layers[name] = values[0]
        else:
            layers[name] = statistics.median(values)
    for layer, counter in TRACED_COUNTERS.items():
        if counters and layer in layers and layers[layer] != counters[counter]:
            problems.append(f"traced {layer} {layers[layer]} != report's {counters[counter]}")
    timings["traced_wall_s"] = summary([c.wall_s for c, _ in traced])
    layers["trace.overhead_s"] = (
        timings["traced_wall_s"]["median"] - timings["analyze_wall_s"]["median"]
    )
    units["trace.overhead_s"] = "s"
    return {k: {"value": v, "unit": units[k]} for k, v in layers.items()}, samples["absent"]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rankbench" / "cli.py").is_file():
        raise BenchError(f"no rankbench sources under {SRC}")
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        session = Session(generate(args.workload, args.seed, workdir), workdir)
        environment = probe_environment(session.env, workdir / "probe.log")
        session.analyze(threads=2)  # untimed; also warms caches and bytecode
        steal_before = steal_seconds()
        samples = measure(session, args.seconds, bool(args.trace))
        steal_after = steal_seconds()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counters = {}
    if session.reference is not None:
        counters = report_counters(json.loads(session.reference), len(session.reference))
        session.problems += check_counters(args.workload, args.seed, counters)

    timings = {
        "analyze_wall_s": summary([c.wall_s for c in samples["analyze"]]),
        "analyze_cpu_s": summary([c.cpu_s for c in samples["analyze"]]),
        "peak_rss_mb": summary([c.maxrss_mb for c in samples["analyze"]]),
    }
    if args.trace:
        metrics, absent = traced_metrics(samples, timings, counters, session.problems)
    else:
        metrics, absent = end_to_end_metrics(samples, timings), []

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": {
            **environment,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "timed_argv": session.workload.analyze_argv(Path("report.json"), threads=1),
            "steal_s": None if steal_before is None or steal_after is None
            else steal_after - steal_before,
        },
        "counters": counters,
        "report_sha256": hashlib.sha256(session.reference or b"").hexdigest(),
        "timings": timings,
        "absent": absent,
        "problems": session.problems,
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not session.problems and session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
