"""Competition data model, ingestion and validation.

A competition is a set of solvers, a set of runs (instance, seed), and a
total table of per-(solver, run) results.  Datasets are immutable after
construction and safe for concurrent reads.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

import numpy as np

__all__ = [
    "AnalysisConfig",
    "CompletenessError",
    "DataError",
    "Dataset",
    "DuplicateEntryError",
    "Mechanism",
    "ParseError",
    "ReferenceEntry",
    "RunKey",
    "RunRecord",
    "RunStatus",
    "TIEBREAK_KEYS",
    "load_dataset",
    "save_dataset",
    "validate_dataset",
]

RESULTS_CSV_HEADER = ["solver", "instance", "seed", "status", "cpu_time", "quality"]

DEFAULT_STRATUM = "default"

TIEBREAK_KEYS = ("total_time",)


class DataError(Exception):
    """Base class for problems with competition input data."""


class ParseError(DataError):
    """A file or field could not be parsed."""


class DuplicateEntryError(DataError):
    """The same (solver, instance, seed) result appeared more than once."""


class CompletenessError(DataError):
    """The results table is missing at least one (solver, run) entry."""


class RunStatus(str, Enum):
    """Outcome of a single solver run.

    Only ``solved`` and ``solved_optimal`` count as success; every other
    status contributes no success to any scoring mechanism.
    """

    SOLVED = "solved"
    SOLVED_OPTIMAL = "solved_optimal"
    UNSOLVED = "unsolved"
    TIMEOUT = "timeout"
    CRASHED = "crashed"
    INCORRECT = "incorrect"

    @property
    def is_success(self) -> bool:
        return self in (RunStatus.SOLVED, RunStatus.SOLVED_OPTIMAL)


class RunKey(NamedTuple):
    """A single run: a benchmark instance paired with a pseudo-random seed."""

    instance_id: str
    seed: int

    def label(self) -> str:
        """``instance@seed`` form used in config files and error messages."""
        return f"{self.instance_id}@{self.seed}"

    @staticmethod
    def from_label(label: str) -> "RunKey":
        instance, sep, seed = label.rpartition("@")
        if not sep or not instance:
            raise ParseError(f"run label {label!r} is not of the form instance@seed")
        try:
            value = int(seed)
        except ValueError:
            raise ParseError(f"run label {label!r} has a non-integer seed") from None
        if value < 0:
            raise ParseError(f"run label {label!r} has a negative seed")
        return RunKey(instance, value)


@dataclass(frozen=True)
class RunRecord:
    """Result of one solver on one run."""

    status: RunStatus
    cpu_time: float
    quality: float | None = None


class ReferenceEntry(NamedTuple):
    """Per-run reference data; either field may be absent (None)."""

    best_known_quality: float | None
    reference_time: float | None


@dataclass(frozen=True)
class Mechanism:
    """Scoring mechanism identifier plus parameters.

    ``par_penalty`` only affects the ``par_k`` mechanism (penalty factor
    applied to the cutoff for unsuccessful runs).
    """

    name: str
    par_penalty: int = 10

    @property
    def id(self) -> str:
        if self.name == "par_k":
            return f"par_k({self.par_penalty})"
        return self.name


@dataclass(frozen=True)
class Dataset:
    """Immutable competition dataset.

    ``results`` is a total table: exactly one record for every pair in
    ``solvers`` x ``runs``.  ``cutoff`` is the per-run CPU-time limit in
    seconds; ``math.inf`` means no limit was configured.  Construction does
    not reject invalid data -- use :func:`validate_dataset` to inspect a
    programmatically built dataset.
    """

    solvers: tuple[str, ...]
    runs: tuple[RunKey, ...]
    results: Mapping[tuple[str, RunKey], RunRecord]
    strata: Mapping[str, str] = field(default_factory=dict)
    cutoff: float = math.inf
    reference: Mapping[RunKey, ReferenceEntry] = field(default_factory=dict)

    def stratum_of(self, instance_id: str) -> str:
        return self.strata.get(instance_id, DEFAULT_STRATUM)

    @cached_property
    def instances(self) -> tuple[str, ...]:
        """Instance ids in order of first appearance in ``runs``."""
        seen: dict[str, None] = {}
        for rk in self.runs:
            seen.setdefault(rk.instance_id, None)
        return tuple(seen)

    @cached_property
    def solver_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.solvers)}

    @cached_property
    def run_index(self) -> dict[RunKey, int]:
        return {r: i for i, r in enumerate(self.runs)}

    @cached_property
    def stratum_order(self) -> tuple[str, ...]:
        """Stratum labels in order of first appearance over ``runs``."""
        seen: dict[str, None] = {}
        for rk in self.runs:
            seen.setdefault(self.stratum_of(rk.instance_id), None)
        return tuple(seen)

    @cached_property
    def stratum_members(self) -> dict[str, np.ndarray]:
        """Run indices per stratum, in run order."""
        members: dict[str, list[int]] = {label: [] for label in self.stratum_order}
        for i, rk in enumerate(self.runs):
            members[self.stratum_of(rk.instance_id)].append(i)
        return {label: np.asarray(idx, dtype=np.int64) for label, idx in members.items()}

    def _record_array(self, getter) -> np.ndarray:
        out = np.empty((len(self.solvers), len(self.runs)), dtype=np.float64)
        for si, s in enumerate(self.solvers):
            for ri, rk in enumerate(self.runs):
                try:
                    rec = self.results[(s, rk)]
                except KeyError:
                    raise CompletenessError(
                        f"missing result for solver {s!r} on run {rk.label()}"
                    ) from None
                out[si, ri] = getter(rec)
        return out

    @cached_property
    def success_matrix(self) -> np.ndarray:
        """(solvers x runs) boolean: run status counts as success."""
        return self._record_array(lambda r: r.status.is_success).astype(bool)

    @cached_property
    def optimal_matrix(self) -> np.ndarray:
        return self._record_array(lambda r: r.status == RunStatus.SOLVED_OPTIMAL).astype(bool)

    @cached_property
    def cpu_time_matrix(self) -> np.ndarray:
        return self._record_array(lambda r: r.cpu_time)

    @cached_property
    def quality_matrix(self) -> np.ndarray:
        """(solvers x runs) qualities; NaN where absent."""
        return self._record_array(lambda r: math.nan if r.quality is None else r.quality)

    @cached_property
    def best_known_vector(self) -> np.ndarray:
        """Per-run best known quality; NaN where absent."""
        out = np.full(len(self.runs), math.nan)
        for i, rk in enumerate(self.runs):
            ref = self.reference.get(rk)
            if ref is not None and ref.best_known_quality is not None:
                out[i] = ref.best_known_quality
        return out

    @cached_property
    def reference_time_vector(self) -> np.ndarray:
        """Per-run reference time; NaN where absent."""
        out = np.full(len(self.runs), math.nan)
        for i, rk in enumerate(self.runs):
            ref = self.reference.get(rk)
            if ref is not None and ref.reference_time is not None:
                out[i] = ref.reference_time
        return out


@dataclass(frozen=True)
class AnalysisConfig:
    """Parameters of a bootstrap analysis."""

    mechanism: Mechanism
    replicates_k: int = 10_000
    alpha: float = 0.05
    master_seed: int = 0
    stratified: bool = False
    tiebreak: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.replicates_k < 1:
            raise ValueError(f"replicates_k must be >= 1, got {self.replicates_k}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be an unsigned 64-bit integer")
        for key in self.tiebreak:
            if key not in TIEBREAK_KEYS:
                raise ValueError(f"unknown tiebreak key {key!r}; supported: {TIEBREAK_KEYS}")


def default_stratified(d: Dataset) -> bool:
    """Stratify by default exactly when the dataset declares >= 2 strata."""
    return len(set(d.strata.values())) >= 2


# ---------------------------------------------------------------------------
# Ingestion


def _parse_float(text: str, what: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{where}: {what} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ParseError(f"{where}: {what} must be finite, got {text!r}")
    return value


def _parse_result_row(row: dict, where: str) -> tuple[str, RunKey, RunRecord]:
    solver = row["solver"]
    instance = row["instance"]
    if not solver or not instance:
        raise ParseError(f"{where}: empty solver or instance identifier")
    try:
        seed = int(row["seed"])
    except (TypeError, ValueError):
        raise ParseError(f"{where}: seed {row['seed']!r} is not an integer") from None
    if seed < 0:
        raise ParseError(f"{where}: seed must be non-negative, got {seed}")
    try:
        status = RunStatus(row["status"])
    except ValueError:
        raise ParseError(f"{where}: unknown status {row['status']!r}") from None
    cpu_time = _parse_float(str(row["cpu_time"]), "cpu_time", where)
    if cpu_time < 0:
        raise ParseError(f"{where}: cpu_time must be >= 0, got {cpu_time}")
    quality_raw = row.get("quality")
    if quality_raw is None or quality_raw == "":
        quality = None
    else:
        quality = _parse_float(str(quality_raw), "quality", where)
        if quality < 0:
            raise ParseError(f"{where}: quality must be >= 0, got {quality}")
    return solver, RunKey(instance, seed), RunRecord(status, cpu_time, quality)


def _assemble(
    rows: Iterable[tuple[str, RunKey, RunRecord, str]],
    strata: Mapping[str, str],
    cutoff: float,
    reference: Mapping[RunKey, ReferenceEntry],
) -> Dataset:
    solvers: dict[str, None] = {}
    runs: dict[RunKey, None] = {}
    results: dict[tuple[str, RunKey], RunRecord] = {}
    for solver, rk, record, where in rows:
        solvers.setdefault(solver, None)
        runs.setdefault(rk, None)
        if (solver, rk) in results:
            raise DuplicateEntryError(
                f"{where}: duplicate result for solver {solver!r} on run {rk.label()}"
            )
        results[(solver, rk)] = record
    for solver in solvers:
        for rk in runs:
            if (solver, rk) not in results:
                raise CompletenessError(
                    f"missing result for solver {solver!r} on run {rk.label()}"
                )
    run_list = tuple(runs)
    full_strata = {rk.instance_id: DEFAULT_STRATUM for rk in run_list}
    for instance, label in strata.items():
        if instance in full_strata:
            full_strata[instance] = str(label)
    return Dataset(
        solvers=tuple(solvers),
        runs=run_list,
        results=results,
        strata=full_strata,
        cutoff=cutoff,
        reference=dict(reference),
    )


def _parse_config(doc: dict, where: str) -> tuple[float, dict, dict[RunKey, ReferenceEntry]]:
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: config must be a JSON object")
    cutoff_raw = doc.get("cutoff_seconds")
    if cutoff_raw is None:
        cutoff = math.inf
    else:
        if not isinstance(cutoff_raw, (int, float)) or isinstance(cutoff_raw, bool):
            raise ParseError(f"{where}: cutoff_seconds must be a number")
        cutoff = float(cutoff_raw)
        if not cutoff > 0:
            raise ParseError(f"{where}: cutoff_seconds must be > 0, got {cutoff}")
    strata = doc.get("strata") or {}
    if not isinstance(strata, dict):
        raise ParseError(f"{where}: strata must be an object mapping instance to stratum")
    reference: dict[RunKey, ReferenceEntry] = {}
    for label, entry in (doc.get("reference") or {}).items():
        rk = RunKey.from_label(label)
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: reference entry for {label!r} must be an object")
        best = entry.get("best_known_quality")
        ref_time = entry.get("reference_time")
        if best is not None and not best > 0:
            raise ParseError(f"{where}: best_known_quality for {label!r} must be > 0")
        if ref_time is not None and not ref_time > 0:
            raise ParseError(f"{where}: reference_time for {label!r} must be > 0")
        reference[rk] = ReferenceEntry(
            None if best is None else float(best),
            None if ref_time is None else float(ref_time),
        )
    return cutoff, dict(strata), reference


def load_config(path: str | Path) -> tuple[float, dict, dict[RunKey, ReferenceEntry]]:
    """Parse a competition config JSON file (cutoff, strata, reference)."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    return _parse_config(doc, str(path))


def _load_csv(path: Path) -> list[tuple[str, RunKey, RunRecord, str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if header != RESULTS_CSV_HEADER:
            raise ParseError(
                f"{path}: header must be exactly {','.join(RESULTS_CSV_HEADER)!r}, "
                f"got {','.join(header)!r}"
            )
        rows = []
        for lineno, fields in enumerate(reader, start=2):
            if not fields:
                continue
            if len(fields) != len(RESULTS_CSV_HEADER):
                raise ParseError(f"{path}:{lineno}: expected {len(RESULTS_CSV_HEADER)} fields")
            row = dict(zip(RESULTS_CSV_HEADER, fields))
            where = f"{path}:{lineno}"
            rows.append((*_parse_result_row(row, where), where))
    return rows


def _load_json(path: Path) -> tuple[list, float, dict, dict[RunKey, ReferenceEntry]]:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "results" not in doc:
        raise ParseError(f"{path}: dataset JSON must be an object with a 'results' array")
    cutoff, strata, reference = _parse_config(doc, str(path))
    rows = []
    for i, row in enumerate(doc["results"]):
        if not isinstance(row, dict):
            raise ParseError(f"{path}: results[{i}] must be an object")
        where = f"{path}: results[{i}]"
        # int() would silently truncate these and could merge distinct runs.
        if isinstance(row.get("seed"), (bool, float)):
            raise ParseError(f"{where}: seed {row['seed']!r} is not an integer")
        normalized = {
            "solver": row.get("solver"),
            "instance": row.get("instance"),
            "seed": row.get("seed"),
            "status": row.get("status"),
            "cpu_time": row.get("cpu_time"),
            "quality": row.get("quality"),
        }
        if normalized["quality"] is not None:
            normalized["quality"] = str(normalized["quality"])
        rows.append((*_parse_result_row(normalized, where), where))
    return rows, cutoff, strata, reference


def load_dataset(
    path: str | Path,
    format: str | None = None,
    config: str | Path | None = None,
) -> Dataset:
    """Load a dataset from a run-results CSV or a self-contained JSON file.

    ``format`` is ``"csv"`` or ``"json"``; when omitted it is inferred from
    the file suffix.  For CSV input, cutoff, strata and reference data come
    from the optional ``config`` JSON file; without one, every instance goes
    into a single default stratum and the cutoff is unbounded.  A ``config``
    given alongside JSON input overrides the embedded values.
    """
    path = Path(path)
    if format is None:
        format = path.suffix.lstrip(".").lower()
    if format not in ("csv", "json"):
        raise ParseError(f"unsupported dataset format {format!r} (expected csv or json)")
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    if format == "csv":
        rows = _load_csv(path)
        cutoff, strata, reference = math.inf, {}, {}
    else:
        rows, cutoff, strata, reference = _load_json(path)
    if config is not None:
        cutoff, strata, reference = load_config(config)
    return _assemble(rows, strata, cutoff, reference)


# ---------------------------------------------------------------------------
# Serialization


def _result_rows(d: Dataset) -> Iterable[tuple[str, RunKey, RunRecord]]:
    for solver in d.solvers:
        for rk in d.runs:
            yield solver, rk, d.results[(solver, rk)]


def dataset_to_json_obj(d: Dataset) -> dict:
    """Self-contained JSON-able representation (see :func:`load_dataset`)."""
    return {
        "cutoff_seconds": None if math.isinf(d.cutoff) else d.cutoff,
        "strata": dict(d.strata),
        "reference": {
            rk.label(): {
                key: value
                for key, value in (
                    ("best_known_quality", ref.best_known_quality),
                    ("reference_time", ref.reference_time),
                )
                if value is not None
            }
            for rk, ref in d.reference.items()
        },
        "results": [
            {
                "solver": solver,
                "instance": rk.instance_id,
                "seed": rk.seed,
                "status": rec.status.value,
                "cpu_time": rec.cpu_time,
                "quality": rec.quality,
            }
            for solver, rk, rec in _result_rows(d)
        ],
    }


def save_dataset(d: Dataset, path: str | Path, format: str | None = None) -> None:
    """Write ``d`` back to disk; the same-format round trip is lossless.

    CSV carries the results table only (solver-major row order); JSON carries
    every dataset field.
    """
    path = Path(path)
    if format is None:
        format = path.suffix.lstrip(".").lower()
    if format == "csv":
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(RESULTS_CSV_HEADER)
            for solver, rk, rec in _result_rows(d):
                writer.writerow(
                    [
                        solver,
                        rk.instance_id,
                        rk.seed,
                        rec.status.value,
                        repr(rec.cpu_time),
                        "" if rec.quality is None else repr(rec.quality),
                    ]
                )
    elif format == "json":
        path.write_text(
            json.dumps(dataset_to_json_obj(d), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
    else:
        raise ParseError(f"unsupported dataset format {format!r} (expected csv or json)")


# ---------------------------------------------------------------------------
# Validation


def validate_dataset(d: Dataset) -> list[str]:
    """Check every dataset invariant; return one description per violation.

    Violations are data, not errors: an empty list means the dataset is
    sound.  Each message names the offending solver, run or instance.
    """
    violations: list[str] = []
    if len(d.solvers) < 2:
        violations.append(f"dataset has {len(d.solvers)} solver(s); at least 2 required")
    if len(d.runs) < 1:
        violations.append("dataset has no runs; at least 1 required")
    if len(set(d.solvers)) != len(d.solvers):
        violations.append("duplicate solver identifiers in solver list")
    if len(set(d.runs)) != len(d.runs):
        violations.append("duplicate (instance, seed) pairs in run list")
    if math.isnan(d.cutoff) or d.cutoff <= 0:
        violations.append(f"cutoff must be > 0 seconds, got {d.cutoff}")

    for rk in d.runs:
        if rk.seed < 0:
            violations.append(f"run {rk.label()}: seed must be non-negative")
    if d.strata:
        for instance in d.instances:
            if instance not in d.strata:
                violations.append(f"instance {instance!r} has no stratum label")

    for solver in d.solvers:
        for rk in d.runs:
            rec = d.results.get((solver, rk))
            where = f"({solver!r}, {rk.label()})"
            if rec is None:
                violations.append(f"missing result for {where}")
                continue
            if not math.isfinite(rec.cpu_time) or rec.cpu_time < 0:
                violations.append(f"{where}: cpu_time must be finite and >= 0, got {rec.cpu_time}")
            if rec.quality is not None and (not math.isfinite(rec.quality) or rec.quality < 0):
                violations.append(f"{where}: quality must be finite and >= 0, got {rec.quality}")
            ref = d.reference.get(rk)
            if (
                rec.status.is_success
                and rec.quality is not None
                and ref is not None
                and ref.best_known_quality is not None
                and rec.quality < ref.best_known_quality
            ):
                violations.append(
                    f"{where}: reference-consistency violation: quality {rec.quality} "
                    f"< best_known_quality {ref.best_known_quality}"
                )

    for rk, ref in d.reference.items():
        if ref.best_known_quality is not None and ref.best_known_quality <= 0:
            violations.append(f"reference for {rk.label()}: best_known_quality must be > 0")
        if ref.reference_time is not None and ref.reference_time <= 0:
            violations.append(f"reference for {rk.label()}: reference_time must be > 0")

    return violations
