"""Output checks on ``rankbench analyze`` reports, and exact-repeat counters.

:func:`check_report` applies criterion 11's structural checks to a parsed
report and compares it with a workload's oracle.  :func:`report_counters`
derives the counts that must repeat exactly across runs of the same code
and seed.
"""

from __future__ import annotations

__all__ = ["check_report", "report_counters"]


def _structure(doc: dict) -> list[str]:
    problems = []
    official = doc["official"]
    order = [row["solver"] for row in official]
    solvers = doc["solvers"]
    n = len(order)
    if sorted(order) != sorted(solvers) or len(set(order)) != n:
        problems.append("official listing is not a permutation of the solvers")
        return problems

    for pos, row in enumerate(official):
        prev = official[pos - 1] if pos else None
        if prev is None:
            ok = row["rank"] == 1
        elif row["rank"] == prev["rank"]:
            ok = row["score"] == prev["score"]
        else:
            ok = row["rank"] == pos + 1 and row["score"] <= prev["score"]
        if not ok:
            problems.append(f"official rank/score inconsistent at position {pos + 1}")

    members = [m for g in doc["groups"] for m in g["members"]]
    if sorted(members) != sorted(order) or len(set(members)) != n:
        problems.append("groups do not partition the solvers")
        return problems
    if [g["index"] for g in doc["groups"]] != list(range(1, len(doc["groups"]) + 1)):
        problems.append("group indices are not 1..G")
    rank_sum = sum(len(g["members"]) * g["fractional_rank"] for g in doc["groups"])
    if rank_sum != n * (n + 1) / 2:
        problems.append(f"fractional ranks sum to {rank_sum}, not {n * (n + 1) / 2}")
    group_of = {m: g["index"] for g in doc["groups"] for m in g["members"]}

    for row in official:
        stats = solvers[row["solver"]]
        if (
            stats["official_rank"] != row["rank"]
            or stats["official_score"] != row["score"]
            or stats["group"] != group_of[row["solver"]]
            or not stats["ci_lower"] <= stats["median_score"] <= stats["ci_upper"]
            or not 0.0 <= stats["win_fraction"] <= 1.0
            or not stats["rank_q25"] <= stats["rank_median"] <= stats["rank_q75"]
        ):
            problems.append(f"solver section of {row['solver']} is inconsistent")

    for name, diag in doc["diagnostics"].items():
        subset = diag["solvers"]
        tied = sum(
            1
            for i, a in enumerate(subset)
            for b in subset[i + 1 :]
            if group_of[a] == group_of[b]
        )
        if (
            subset != order[: diag["depth"]]
            or diag["groups"] != len({group_of[s] for s in subset})
            or diag["tied_pairs"] != tied
            or diag["inversions"] != len(diag["inversion_pairs"])
        ):
            problems.append(f"diagnostics section {name} is inconsistent")
    return problems


def _against_oracle(doc: dict, expected: dict) -> list[str]:
    problems = []
    for section in ("config", "dataset"):
        if doc[section] != expected[section]:
            problems.append(f"{section} section {doc[section]} != {expected[section]}")

    got, want = doc["official"], expected["official"]
    if [r["solver"] for r in got] != [r["solver"] for r in want]:
        problems.append("official listing order differs from the oracle")
    elif [r["rank"] for r in got] != [r["rank"] for r in want]:
        problems.append("official ranks differ from the oracle")
    else:
        for g, w in zip(got, want):
            if not abs(g["score"] - w["score"]) <= w["tolerance"]:
                problems.append(f"score of {g['solver']}: {g['score']!r} != {w['score']!r}")

    flags = expected["sensitivity"]
    sens = doc["sensitivity"]
    if flags is None:
        if sens is not None:
            problems.append("report has a sensitivity section the workload did not ask for")
    elif sens is None:
        problems.append("report lacks the sensitivity section")
    else:
        n = len(want)
        counts = {
            name: sum(f[name] for f in flags.values())
            for name in next(iter(flags.values()))
        }
        if sens["instances"] != flags:
            wrong = sum(sens["instances"].get(i) != f for i, f in flags.items())
            problems.append(f"leave-one-out flags differ from the oracle on {wrong} instances")
        if sens["counts"] != counts:
            problems.append(f"leave-one-out counts {sens['counts']} != {counts}")
        if sens["depths"] != {"top10": min(10, n), "top3": min(3, n)}:
            problems.append(f"leave-one-out depths {sens['depths']} are wrong")
    return problems


def check_report(doc: dict, expected: dict) -> list[str]:
    """Every problem found in one parsed report; empty when it passes."""
    try:
        return _structure(doc) + _against_oracle(doc, expected)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"report is malformed: {exc!r}"]


def report_counters(doc: dict, size: int) -> dict[str, int]:
    """Work counts implied by one report of ``size`` bytes."""
    data, cfg = doc["dataset"], doc["config"]
    sens = doc["sensitivity"]
    return {
        "rows": data["solvers"] * data["runs"],
        "runs": data["runs"],
        "instances": data["instances"],
        "strata": data["strata"],
        "replicates": cfg["replicates"],
        "words_drawn": cfg["replicates"] * data["runs"],
        "robust_rounds": len(doc["iterations"]),
        "bootstrap_tests": sum(len(it["tests"]) for it in doc["iterations"]),
        "loo_rescorings": 0 if sens is None else len(sens["instances"]),
        "report_bytes": size,
    }
