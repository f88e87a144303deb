"""Deterministic benchmark workloads and their independent oracles.

Each workload is a results CSV (plus an optional competition config) made
from a seed, the ``rankbench analyze`` flags that go with it, and the
answers a correct report must contain, recomputed here in pure Python
with exact integer arithmetic: official scores, listing order, ranks and,
where the workload asks for it, the leave-one-instance-out flags.

Times are generated with two decimals and handled as integer hundredths,
so every total the oracle forms is exact.  Integer mechanisms are checked
exactly.  Float mechanisms are checked to within the rounding-error bound
that holds for any summation order, ``(n - 1) * 2**-53`` times the sum of
the magnitudes, plus one unit in the last place for the final division.
That leaves the package free to change how it sums (numpy's pairwise sum
lands within 17 units in the last place on ``large``), while a 0.01 s
error in a single run still moves a ``par_k`` score by over 1,000 times
the tolerance.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

__all__ = ["NAMES", "Workload", "generate"]

NAMES = ("acceptance", "large", "fragility")

REPLICATES = 10_000
CSV_HEADER = "solver,instance,seed,status,cpu_time,quality"


@dataclass(frozen=True)
class Workload:
    """Generated inputs plus the expected report contents.

    ``expected`` holds the ``dataset`` and ``config`` report sections, the
    oracle ``official`` listing (solver, rank, score and the tolerance on
    the score) and the per-instance leave-one-out flags (or None).
    """

    csv: Path
    config: Path | None
    flags: tuple[str, ...]
    expected: dict

    def analyze_argv(self, output: Path, threads: int) -> list[str]:
        argv = ["analyze", "--input", str(self.csv)]
        if self.config is not None:
            argv += ["--config", str(self.config)]
        return argv + [*self.flags, "--output", str(output), "--threads", str(threads)]


def _cents(rng: random.Random) -> int:
    """A successful run's cpu time in hundredths, as criterion 11 draws it."""
    return round(rng.uniform(1.0, 4999.0) * 100)


def _fmt_cents(cents: int) -> str:
    return f"{cents // 100}.{cents % 100:02d}"


def _listing(keys: dict[str, tuple]) -> list[str]:
    """Official listing: ascending key (lower is better), then solver id."""
    return sorted(keys, key=lambda s: (keys[s], s))


def _ranks(order: list[str], keys: dict[str, tuple]) -> dict[str, int]:
    ranks = {}
    for pos, s in enumerate(order, start=1):
        prev = order[pos - 2] if pos > 1 else None
        ranks[s] = ranks[prev] if prev is not None and keys[prev] == keys[s] else pos
    return ranks


def _has_float_tie(keys: dict[str, tuple]) -> bool:
    """Two solvers share an exact key that float sums might not reproduce."""
    return len(set(keys.values())) != len(keys)


def _flags(base: list[str], variant: list[str]) -> dict[str, bool]:
    out = {"any_change": base != variant}
    for depth, tag in ((min(10, len(base)), "top10"), (min(3, len(base)), "top3")):
        comp = set(base[:depth]) != set(variant[:depth])
        out[f"{tag}_comp"] = comp
        out[f"{tag}_order"] = not comp and base[:depth] != variant[:depth]
    return out


def _loo_flags(base: list[str], variant_keys) -> dict[str, dict[str, bool]]:
    return {inst: _flags(base, _listing(keys)) for inst, keys in variant_keys}


def _tolerance(score: float, terms: int) -> float:
    """Rounding bound for a mean of ``terms`` same-sign values; 0 when exact."""
    if terms == 0:
        return 0.0
    return (terms - 1) * 2.0**-53 * abs(score) + math.ulp(score)


def _write_csv(path: Path, rows: list[str]) -> None:
    path.write_text(CSV_HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def _timed_table(rng, solvers, instances):
    """Criterion 11's generator: solve rate rising with the solver index.

    Returns the CSV rows and, per solver, the solved flag and cpu cents of
    every instance (seed 0 only).
    """
    rows, solved, cents = [], {}, {}
    last = len(solvers) - 1
    for si, s in enumerate(solvers):
        rate = 0.3 + 0.4 * si / last
        ok_list, cent_list = [], []
        for inst in instances:
            ok = rng.random() < rate
            c = _cents(rng) if ok else 500_000
            rows.append(f"{s},{inst},0,{'solved' if ok else 'timeout'},{_fmt_cents(c)},")
            ok_list.append(ok)
            cent_list.append(c)
        solved[s], cents[s] = ok_list, cent_list
    return rows, solved, cents


def _acceptance(rng, workdir: Path):
    """29 x 500 x 1 seed, solved_count with the total_time tiebreak."""
    solvers = [f"s{s:02d}" for s in range(29)]
    instances = [f"i{j:03d}" for j in range(500)]
    rows, solved, cents = _timed_table(rng, solvers, instances)
    count = {s: sum(solved[s]) for s in solvers}
    spent = {s: sum(c for ok, c in zip(solved[s], cents[s]) if ok) for s in solvers}
    keys = {s: (-count[s], spent[s]) for s in solvers}

    def variant(j):
        return {
            s: (-(count[s] - solved[s][j]), spent[s] - (cents[s][j] if solved[s][j] else 0))
            for s in solvers
        }

    variants = [(inst, variant(j)) for j, inst in enumerate(instances)]
    # total_time is a float sum, so an exact tie in it may not survive numpy.
    if _has_float_tie(keys) or any(_has_float_tie(v) for _, v in variants):
        return None
    _write_csv(workdir / "runs.csv", rows)
    scores = {s: float(count[s]) for s in solvers}
    return dict(
        config=None,
        flags=("--mechanism", "solved_count", "--tiebreak", "total_time", "--with-sensitivity"),
        dataset={"solvers": 29, "runs": 500, "instances": 500, "strata": 1, "cutoff_seconds": None},
        keys=keys,
        scores=scores,
        terms=0,
        loo=_loo_flags(_listing(keys), variants),
        tiebreak=["total_time"],
        mechanism="solved_count",
        stratified=False,
    )


def _large(rng, workdir: Path):
    """100 x 1000 x 1 seed, par_k(10) with a 5000 s cutoff, no sensitivity."""
    solvers = [f"s{s:03d}" for s in range(100)]
    instances = [f"i{j:04d}" for j in range(1000)]
    rows, solved, cents = _timed_table(rng, solvers, instances)
    penalty = 10 * 500_000
    total = {
        s: sum(c if ok else penalty for ok, c in zip(solved[s], cents[s])) for s in solvers
    }
    keys = {s: (total[s],) for s in solvers}
    if _has_float_tie(keys):
        return None
    _write_csv(workdir / "runs.csv", rows)
    (workdir / "config.json").write_text(json.dumps({"cutoff_seconds": 5000}) + "\n")
    n = len(instances)
    scores = {s: float(Fraction(-total[s], 100 * n)) for s in solvers}
    return dict(
        config=workdir / "config.json",
        flags=("--mechanism", "par_k", "--par-k", "10"),
        dataset={"solvers": 100, "runs": 1000, "instances": 1000, "strata": 1,
                 "cutoff_seconds": 5000.0},
        keys=keys,
        scores=scores,
        terms=n,
        loo=None,
        tiebreak=[],
        mechanism="par_k(10)",
        stratified=False,
    )


def _fragility(rng, workdir: Path):
    """12 near-clone pairs x 1000 instances x 2 seeds, mean_metric, 4 strata.

    Pair ``pNN`` and its clone ``pNNc`` have equal quality totals, so the
    listing breaks their tie by solver id.  The clone is one point better
    on two runs and one point worse on two others; removing the instance
    of a run where it is worse puts the clone ahead and flips the pair.
    """
    pairs = [f"p{j:02d}" for j in range(12)]
    solvers = [name for p in pairs for name in (p, p + "c")]
    instances = [f"i{j:04d}" for j in range(1000)]
    runs = [(j, seed) for j in range(len(instances)) for seed in (0, 1)]
    quality: dict[str, list[int]] = {}
    for pi, p in enumerate(pairs):
        top = 20 + 2 * pi
        base = [rng.randint(0, top) for _ in runs]
        clone = list(base)
        picks = rng.sample([r for r, q in enumerate(base) if 1 <= q < top], 4)
        for r, delta in zip(picks, (1, 1, -1, -1)):
            clone[r] += delta
        quality[p], quality[p + "c"] = base, clone

    rows = []
    for s in solvers:
        for r, (j, seed) in enumerate(runs):
            c = _cents(rng)
            status = "solved" if c < 400_000 else "timeout"
            rows.append(f"{s},{instances[j]},{seed},{status},{_fmt_cents(c)},{quality[s][r]}")
    _write_csv(workdir / "runs.csv", rows)
    strata = {inst: f"family{j % 4}" for j, inst in enumerate(instances)}
    (workdir / "config.json").write_text(json.dumps({"strata": strata}) + "\n")

    total = {s: sum(quality[s]) for s in solvers}
    keys = {s: (-total[s],) for s in solvers}
    per_instance = {
        s: [quality[s][2 * j] + quality[s][2 * j + 1] for j in range(len(instances))]
        for s in solvers
    }
    variants = [
        (inst, {s: (-(total[s] - per_instance[s][j]),) for s in solvers})
        for j, inst in enumerate(instances)
    ]
    n = len(runs)
    scores = {s: total[s] / n for s in solvers}
    return dict(
        config=workdir / "config.json",
        flags=("--mechanism", "mean_metric", "--with-sensitivity"),
        dataset={"solvers": 24, "runs": 2000, "instances": 1000, "strata": 4,
                 "cutoff_seconds": None},
        keys=keys,
        scores=scores,
        terms=n,
        loo=_loo_flags(_listing(keys), variants),
        tiebreak=[],
        mechanism="mean_metric",
        stratified=True,
    )


_BUILDERS = {"acceptance": _acceptance, "large": _large, "fragility": _fragility}


def generate(name: str, seed: int, workdir: Path) -> Workload:
    """Write workload ``name`` for ``seed`` under ``workdir``.

    A draw whose float-valued keys tie exactly between two solvers is
    redrawn with the next attempt number, so the oracle's listing never
    depends on how the package rounds a sum.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    build = _BUILDERS[name]
    attempt = 0
    while (spec := build(random.Random(f"{name}:{seed}:{attempt}"), workdir)) is None:
        attempt += 1
    keys, scores = spec["keys"], spec["scores"]
    order = _listing(keys)
    ranks = _ranks(order, keys)
    master_seed = seed % 2**64
    expected = {
        "dataset": spec["dataset"],
        "config": {
            "mechanism": spec["mechanism"],
            "replicates": REPLICATES,
            "alpha": 0.05,
            "master_seed": master_seed,
            "stratified": spec["stratified"],
            "tiebreak": spec["tiebreak"],
        },
        "official": [
            {
                "solver": s,
                "rank": ranks[s],
                "score": scores[s],
                "tolerance": _tolerance(scores[s], spec["terms"]),
            }
            for s in order
        ],
        "sensitivity": spec["loo"],
    }
    flags = (*spec["flags"], "--replicates", str(REPLICATES), "--seed", str(master_seed))
    return Workload(
        csv=workdir / "runs.csv",
        config=spec["config"],
        flags=flags,
        expected=expected,
    )
