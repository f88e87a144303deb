"""Shared dataset builders and independent brute-force oracles.

The oracles here transcribe the intended definitions directly in pure
Python (no vectorization, no shared code paths with the package) so the
optimized implementations can be checked against them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from rankbench.model import (
    AnalysisConfig,
    Dataset,
    Mechanism,
    RunKey,
    RunRecord,
    RunStatus,
)

# ---------------------------------------------------------------------------
# Dataset builders


def record(solved: bool, cpu_time: float = 10.0, quality: float | None = None,
           optimal: bool = False) -> RunRecord:
    if optimal:
        status = RunStatus.SOLVED_OPTIMAL
    elif solved:
        status = RunStatus.SOLVED
    else:
        status = RunStatus.TIMEOUT
    return RunRecord(status=status, cpu_time=cpu_time, quality=quality)


def build_dataset(solvers, runs, record_for, strata=None, cutoff=math.inf,
                  reference=None) -> Dataset:
    """``record_for(solver, run_key) -> RunRecord`` fills the results table."""
    runs = tuple(RunKey(*rk) if not isinstance(rk, RunKey) else rk for rk in runs)
    records = [[record_for(s, rk) for rk in runs] for s in solvers]
    shape = (len(solvers), len(runs))
    statuses = tuple(RunStatus)

    def column(value) -> np.ndarray:
        return np.array([[value(rec) for rec in row] for row in records]).reshape(shape)

    return Dataset(
        solvers=tuple(solvers),
        runs=runs,
        status=column(lambda rec: statuses.index(rec.status)),
        cpu_time=column(lambda rec: rec.cpu_time),
        quality=column(lambda rec: math.nan if rec.quality is None else rec.quality),
        strata=strata or {},
        cutoff=cutoff,
        reference=reference or {},
    )


def success_table_dataset(table: dict[str, list[bool]], cutoff: float = 1000.0,
                          times: dict[str, list[float]] | None = None,
                          instances: list[str] | None = None,
                          strata: dict[str, str] | None = None) -> Dataset:
    """One seed-0 run per instance; ``table[solver][i]`` says run i succeeds."""
    solvers = list(table)
    n = len(next(iter(table.values())))
    names = instances or [f"i{j}" for j in range(n)]
    runs = [RunKey(name, 0) for name in names]

    def rec(solver, rk):
        j = names.index(rk.instance_id)
        t = times[solver][j] if times else 10.0
        return record(table[solver][j], cpu_time=t)

    return build_dataset(solvers, runs, rec, strata=strata, cutoff=cutoff)


def quality_table_dataset(table: dict[str, list[float]], cutoff: float = 1000.0) -> Dataset:
    """mean_metric-shaped data: every run solved, with the given qualities."""
    solvers = list(table)
    n = len(next(iter(table.values())))
    runs = [RunKey(f"i{j}", 0) for j in range(n)]

    def rec(solver, rk):
        j = int(rk.instance_id[1:])
        return record(True, cpu_time=10.0, quality=table[solver][j])

    return build_dataset(solvers, runs, rec, cutoff=cutoff)


def config(mechanism="solved_count", **kwargs) -> AnalysisConfig:
    if isinstance(mechanism, str):
        mechanism = Mechanism(mechanism)
    return AnalysisConfig(mechanism=mechanism, **kwargs)


def matrix_from_columns(**columns):
    """Hand-built ScoreMatrix with rank-1 placeholders for rank columns."""
    from rankbench.resampling import ScoreMatrix
    from rankbench.scoring import min_ranks_rows

    names = tuple(columns)
    scores = np.column_stack(
        [np.asarray(columns[name], dtype=np.float64) for name in names]
    )
    return ScoreMatrix(
        k=scores.shape[0],
        scores=scores,
        replicate_ranks=min_ranks_rows(scores, []),
        solver_order=names,
        provenance={},
    )


# ---------------------------------------------------------------------------
# Brute-force oracles


def oracle_nearest_rank_index(q: str, k: int) -> int:
    """Exact-rational nearest-rank index for a decimal quantile string."""
    index = math.ceil(Fraction(q) * k)
    return min(max(index, 1), k)


def oracle_holm(p_values: list[float], alpha: float) -> set[int]:
    """Literal step-down: sort ascending (stable), reject the prefix before
    the first index i (1-based) with p'_i >= alpha / (m + 1 - i)."""
    m = len(p_values)
    order = sorted(range(m), key=lambda j: p_values[j])
    rejected: set[int] = set()
    for step, j in enumerate(order, start=1):
        if p_values[j] >= alpha / (m + 1 - step):
            break
        rejected.add(j)
    return rejected


def oracle_median(column: list[float]) -> float:
    """Nearest-rank 0.5 quantile."""
    ordered = sorted(column)
    return ordered[oracle_nearest_rank_index("0.5", len(ordered)) - 1]


def oracle_first_place_counts(rows: list[list[float]], cols: list[int]) -> dict[int, int]:
    counts = {j: 0 for j in cols}
    for row in rows:
        best = max(row[j] for j in cols)
        for j in cols:
            if row[j] == best:
                counts[j] += 1
    return counts


def oracle_robust_partition(rows: list[list[float]], solver_ids: list[str],
                            alpha: float) -> list[frozenset[str]]:
    """Direct transcription of the grouping loop over a k x S score table."""
    k = len(rows)
    remaining = list(range(len(solver_ids)))
    groups: list[frozenset[str]] = []
    while remaining:
        counts = oracle_first_place_counts(rows, remaining)
        winner = min(
            remaining,
            key=lambda j: (
                -counts[j],
                -oracle_median([row[j] for row in rows]),
                solver_ids[j],
            ),
        )
        others = [j for j in remaining if j != winner]
        p = {
            j: sum(1 for row in rows if row[winner] <= row[j]) / k
            for j in others
        }
        rejected_pos = oracle_holm([p[j] for j in others], alpha)
        rejected = {others[pos] for pos in rejected_pos}
        groups.append(
            frozenset(solver_ids[j] for j in remaining if j not in rejected)
        )
        remaining = [j for j in remaining if j in rejected]
    return groups


def oracle_min_ranks(keys: list[tuple]) -> list[int]:
    """Competition min-ranks of comparable sort keys (smaller is better)."""
    return [1 + sum(1 for other in keys if other < key) for key in keys]


def oracle_official_order(scores: dict[str, float],
                          chain: dict[str, tuple] | None = None) -> list[str]:
    chain = chain or {}
    return sorted(scores, key=lambda s: (-scores[s], *chain.get(s, ()), s))


def brute_contribution(d: Dataset, mech: Mechanism, solver: str, rk: RunKey) -> float:
    """Per-run score contribution computed straight from the record."""
    rec = d.results[(solver, rk)]
    ok = rec.status.is_success
    within = rec.cpu_time <= d.cutoff
    if mech.name == "solved_count":
        return 1.0 if ok and within else 0.0
    if mech.name == "optimal_count":
        return 1.0 if rec.status is RunStatus.SOLVED_OPTIMAL else 0.0
    if mech.name == "par_k":
        return rec.cpu_time if ok and within else mech.par_penalty * d.cutoff
    if mech.name == "ipc_quality":
        if not ok:
            return 0.0
        best = d.reference[rk].best_known_quality
        return best / rec.quality
    if mech.name == "ipc_agile":
        if not (ok and within):
            return 0.0
        ref = max(d.reference[rk].reference_time, 1.0)
        ratio = max(rec.cpu_time, 1.0) / ref
        return 1.0 / (1.0 + math.log10(max(ratio, 1.0)))
    return rec.quality  # mean_metric


# The contribution tables of the most recently scored (dataset, mechanism)
# pairs; each entry keeps its dataset alive, so an id is never reused.
_BRUTE_TABLES: dict[tuple[int, Mechanism], tuple[Dataset, dict[str, list[float]]]] = {}


def brute_contribution_table(d: Dataset, mech: Mechanism) -> dict[str, list[float]]:
    """``{solver: [brute_contribution of each run of d.runs]}``, built once
    per dataset and mechanism."""
    key = (id(d), mech)
    if key not in _BRUTE_TABLES:
        if len(_BRUTE_TABLES) >= 16:
            del _BRUTE_TABLES[next(iter(_BRUTE_TABLES))]
        table = {s: [brute_contribution(d, mech, s, rk) for rk in d.runs] for s in d.solvers}
        _BRUTE_TABLES[key] = (d, table)
    return _BRUTE_TABLES[key][1]


def brute_scores(d: Dataset, mech: Mechanism | str,
                 entries: list[int] | None = None) -> dict[str, float]:
    """Pure-Python multiset scoring; ``entries`` indexes ``d.runs``.  Each
    total is ``math.fsum`` of the contributions (the exactly rounded sum),
    and a mean divides it once."""
    if isinstance(mech, str):
        mech = Mechanism(mech)
    if entries is None:
        entries = range(len(d.runs))
    out = {}
    for s, contributions in brute_contribution_table(d, mech).items():
        total = math.fsum(contributions[i] for i in entries)
        if mech.name == "par_k":
            out[s] = -total / len(entries)
        elif mech.name == "mean_metric":
            out[s] = total / len(entries)
        else:
            out[s] = total
    return out


# ---------------------------------------------------------------------------
# Stream spec v3: a pure-Python Philox-4x64-10 and the replicate draws

_MASK64 = 2**64 - 1
PHILOX_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def philox_block(counter: int, key: tuple[int, int]) -> list[int]:
    """The four words of Philox-4x64-10 (Salmon, Moraes, Dror & Shaw,
    "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011) at a 256-bit
    ``counter`` whose word 0 is its low 64 bits, under a two-word key."""
    c0, c1, c2, c3 = ((counter >> (64 * j)) & _MASK64 for j in range(4))
    k0, k1 = key
    for _ in range(10):
        p0, p1 = PHILOX_MULTIPLIERS[0] * c0, PHILOX_MULTIPLIERS[1] * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK64, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK64
        k0, k1 = (k0 + PHILOX_WEYL[0]) & _MASK64, (k1 + PHILOX_WEYL[1]) & _MASK64
    return [c0, c1, c2, c3]


def philox_words(key: tuple[int, int], counter: int, count: int) -> list[int]:
    """The first ``count`` words a Philox generator with state ``counter``
    yields: it adds one to the counter (modulo 2**256) before each block."""
    words: list[int] = []
    while len(words) < count:
        counter = (counter + 1) % 2**256
        words.extend(philox_block(counter, key))
    return words[:count]


def replicate_halves(seed: int, index: int, width: int) -> list[int]:
    """The ``width`` 32-bit halves replicate ``index`` of ``seed`` draws
    (stream spec v3): the generator is keyed ``(seed, 0)``, a replicate
    takes ``B = ceil(ceil(width / 2) / 4)`` blocks, its words are those
    after counter ``index * B``, and position ``2j`` is the low half of
    word ``j``, position ``2j + 1`` its high half."""
    blocks = math.ceil(math.ceil(width / 2) / 4)
    words = philox_words((seed, 0), index * blocks, 4 * blocks)
    return [half for word in words for half in (word % 2**32, word // 2**32)][:width]


def oracle_indices(seed: int, index: int, moduli) -> list[int]:
    """Replicate ``(seed, index)``'s entries for one modulus ``n`` (``n``
    positions) or a sequence of one modulus per position: each half ``h``
    with its modulus ``m`` gives ``floor(h * m / 2**32)``, in big-integer
    arithmetic."""
    moduli = [moduli] * moduli if isinstance(moduli, int) else [int(m) for m in moduli]
    halves = replicate_halves(seed, index, len(moduli))
    return [(h * m) >> 32 for h, m in zip(halves, moduli)]


def oracle_draw(d: Dataset, halves: list[int], stratified: bool) -> list[int]:
    """A replicate's run indices from its 32-bit halves (stream spec v3).

    Instances come in order of first appearance over ``d.runs``, each with
    its runs in run order.  A uniform draw is one group of every instance;
    a stratified draw has one group per stratum, strata in order of first
    appearance and each stratum's instances in instance order.  Group by
    group, each of its instances takes the next half ``h`` and draws member
    ``floor(h * m / 2**32)`` of the group's ``m`` instances, in big-integer
    arithmetic; the drawn instance brings all of its runs.
    """
    runs_of: dict[str, list[int]] = {}
    for j, rk in enumerate(d.runs):
        runs_of.setdefault(rk.instance_id, []).append(j)
    groups: dict[str, list[str]] = {}
    for instance in runs_of:
        groups.setdefault(d.stratum_of(instance) if stratified else "", []).append(instance)
    halves = iter(halves)
    drawn = []
    for members in groups.values():
        for _ in members:
            drawn.extend(runs_of[members[(int(next(halves)) * len(members)) >> 32]])
    return drawn


def oracle_replicate(d: Dataset, seed: int, index: int, stratified: bool) -> list[int]:
    """Replicate ``index`` of ``seed`` of a uniform or stratified draw of
    ``d``, from the oracles alone: one position per instance."""
    instances = len({rk.instance_id for rk in d.runs})
    return oracle_draw(d, replicate_halves(seed, index, instances), stratified)
