"""Competition data model, ingestion and validation.

A competition is a set of solvers, a set of runs (instance, seed), and a
total table of per-(solver, run) results, held as (solvers x runs)
arrays.  Datasets are immutable after construction and safe for
concurrent reads.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from array import array
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

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
    "write_csv",
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


# A status is stored as its position in declaration order.
_STATUSES = tuple(RunStatus)
_STATUS_CODES = {status.value: code for code, status in enumerate(_STATUSES)}
_SUCCESS = np.array([status.is_success for status in _STATUSES])


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


def _grouped(codes: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(order, counts, starts)`` of integer codes ``0..m-1``: a stable
    argsort (positions code by code, in position order within a code), and
    per code its count and first position in ``order`` (all int64)."""
    codes = np.array(codes, dtype=np.int64)
    counts = np.bincount(codes)
    return np.argsort(codes, kind="stable"), counts, np.cumsum(counts) - counts


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable competition dataset: a total (solvers x runs) table of
    arrays, row ``i`` for ``solvers[i]`` and column ``j`` for ``runs[j]``.

    - ``status``: int8 codes into ``tuple(RunStatus)`` (0 is ``solved``);
    - ``cpu_time``: float64 seconds;
    - ``quality``: float64, NaN where the run reported no quality.

    Construction keeps read-only copies of the arrays; ``results`` views
    the same cells as :class:`RunRecord` objects.  ``cutoff`` is the
    per-run CPU-time limit in seconds (``math.inf``: none configured).
    Construction does not reject invalid data: :func:`load_dataset` checks
    its input, a programmatically built dataset is taken as given.
    ``instance_layout`` and ``stratum_layout`` group the runs by instance
    and by stratum through one helper.
    """

    solvers: tuple[str, ...]
    runs: tuple[RunKey, ...]
    status: np.ndarray
    cpu_time: np.ndarray
    quality: np.ndarray
    strata: Mapping[str, str] = field(default_factory=dict)
    cutoff: float = math.inf
    reference: Mapping[RunKey, ReferenceEntry] = field(default_factory=dict)

    def __post_init__(self) -> None:
        shape = (len(self.solvers), len(self.runs))
        for name, dtype in (("status", np.int8), ("cpu_time", float), ("quality", float)):
            column = np.array(getattr(self, name), dtype=dtype)
            if column.shape != shape:
                raise ValueError(f"{name} has shape {column.shape}, expected {shape}")
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            (self.solvers, self.runs, self.strata, self.cutoff, self.reference)
            == (other.solvers, other.runs, other.strata, other.cutoff, other.reference)
            and np.array_equal(self.status, other.status)
            and np.array_equal(self.cpu_time, other.cpu_time)
            and np.array_equal(self.quality, other.quality, equal_nan=True)
        )

    def stratum_of(self, instance_id: str) -> str:
        return self.strata.get(instance_id, DEFAULT_STRATUM)

    @cached_property
    def results(self) -> Mapping[tuple[str, RunKey], RunRecord]:
        """Read-only ``(solver, run) -> RunRecord`` view of the arrays."""
        return _ResultsView(self)

    @property
    def success_matrix(self) -> np.ndarray:
        """(solvers x runs) boolean: run status counts as success."""
        return _SUCCESS[self.status]

    @property
    def optimal_matrix(self) -> np.ndarray:
        return self.status == _STATUSES.index(RunStatus.SOLVED_OPTIMAL)

    @cached_property
    def instances(self) -> tuple[str, ...]:
        """Instance ids in order of first appearance in ``runs``."""
        return tuple(dict.fromkeys(rk.instance_id for rk in self.runs))

    @cached_property
    def stratum_order(self) -> tuple[str, ...]:
        """Stratum labels in order of first appearance over ``runs``."""
        return tuple(dict.fromkeys(self.stratum_of(rk.instance_id) for rk in self.runs))

    @cached_property
    def instance_layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(runs, counts, starts)`` of :func:`_grouped` over the runs'
        instances: the run indices instance by instance (instances in
        ``instances`` order, runs in run order), and per instance its run
        count and first position in ``runs``."""
        code = {instance: j for j, instance in enumerate(self.instances)}
        return _grouped([code[rk.instance_id] for rk in self.runs])

    @cached_property
    def stratum_layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(runs, sizes, starts)``: the run indices stratum by stratum
        (strata in ``stratum_order``, runs in run order), and per position
        the size (uint64) and first position of its stratum.  Grouped by
        :func:`_grouped`, as ``instance_layout`` is."""
        code = {label: j for j, label in enumerate(self.stratum_order)}
        labels = (self.stratum_of(rk.instance_id) for rk in self.runs)
        runs, lengths, starts = _grouped([code[label] for label in labels])
        if lengths.max(initial=1) >= 2**31:
            raise ValueError(f"run count {lengths.max()} out of supported range [1, 2**31)")
        return runs, np.repeat(lengths, lengths).astype(np.uint64), np.repeat(starts, lengths)

    def _reference_vector(self, name: str) -> np.ndarray:
        values = (getattr(self.reference.get(rk), name, None) for rk in self.runs)
        return np.array([math.nan if v is None else v for v in values], dtype=np.float64)

    @cached_property
    def best_known_vector(self) -> np.ndarray:
        """Per-run best known quality; NaN where absent."""
        return self._reference_vector("best_known_quality")

    @cached_property
    def reference_time_vector(self) -> np.ndarray:
        """Per-run reference time; NaN where absent."""
        return self._reference_vector("reference_time")


class _ResultsView(Mapping):
    """``(solver, run) -> RunRecord`` over a dataset's arrays; ``len()`` builds no record."""

    def __init__(self, d: Dataset) -> None:
        self._d = d
        self._solver_pos = {s: i for i, s in enumerate(d.solvers)}
        self._run_pos = {rk: j for j, rk in enumerate(d.runs)}

    def __getitem__(self, key: tuple[str, RunKey]) -> RunRecord:
        d, i, j = self._d, self._solver_pos[key[0]], self._run_pos[key[1]]
        quality = None if math.isnan(d.quality[i, j]) else float(d.quality[i, j])
        return RunRecord(_STATUSES[d.status[i, j]], float(d.cpu_time[i, j]), quality)

    def __iter__(self) -> Iterator[tuple[str, RunKey]]:
        return ((s, rk) for s in self._d.solvers for rk in self._d.runs)

    def __len__(self) -> int:
        return self._d.status.size


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


class _RowError(Exception):
    """An invalid field; the row parser prefixes the row's location."""


def _parse_nonnegative(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise _RowError(f"{what} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise _RowError(f"{what} must be finite, got {text!r}")
    if value < 0:
        raise _RowError(f"{what} must be >= 0, got {value}")
    return value


class _Table:
    """Result rows parsed straight into typed columns, solvers and runs
    coded in order of first appearance.  ``where(pos)`` names the row at
    source position ``pos`` (a CSV line number or a JSON ``results`` index).

    The columns are ``array.array`` buffers of machine integers (``q``,
    status ``b``) and doubles (``d``): 1-8 bytes a field instead of a list
    slot plus a boxed Python number, and numpy reads them without a copy
    of each element.
    """

    def __init__(self, rows: Iterable[tuple[int, Sequence]], where: Callable[[int], str]) -> None:
        self.where = where
        self.solvers, self.runs = {}, {}  # solver and (instance, seed) -> code
        self.positions, self.solver_codes, self.run_codes = array("q"), array("q"), array("q")
        self.status, self.cpu_time, self.quality = array("b"), array("d"), array("d")
        for pos, fields in rows:
            try:
                self._append(*fields)
            except _RowError as exc:
                raise ParseError(f"{where(pos)}: {exc}") from None
            self.positions.append(pos)

    def _append(self, solver, instance, seed_raw, status_raw, cpu_raw, quality_raw) -> None:
        # int() would silently truncate a JSON bool or float and could merge distinct runs.
        if isinstance(seed_raw, (bool, float)):
            raise _RowError(f"seed {seed_raw!r} is not an integer")
        if not solver or not instance:
            raise _RowError("empty solver or instance identifier")
        try:
            seed = int(seed_raw)
        except (TypeError, ValueError):
            raise _RowError(f"seed {seed_raw!r} is not an integer") from None
        if seed < 0:
            raise _RowError(f"seed must be non-negative, got {seed}")
        try:
            status = _STATUS_CODES[status_raw]
        except (KeyError, TypeError):
            raise _RowError(f"unknown status {status_raw!r}") from None
        cpu_time = _parse_nonnegative(str(cpu_raw), "cpu_time")
        if quality_raw is None or quality_raw == "":
            quality = math.nan
        else:
            quality = _parse_nonnegative(str(quality_raw), "quality")
        self.solver_codes.append(self.solvers.setdefault(solver, len(self.solvers)))
        self.run_codes.append(self.runs.setdefault((instance, seed), len(self.runs)))
        self.status.append(status)
        self.cpu_time.append(cpu_time)
        self.quality.append(quality)

    def dataset(self, config: _Config) -> Dataset:
        """Place every row in its (solver, run) cell; each cell needs exactly
        one row, every instance and run the config names must be in the
        data, and no successful run's quality may be below its run's
        best-known quality."""
        solvers, runs = tuple(self.solvers), tuple(RunKey(*key) for key in self.runs)
        shape = (len(solvers), len(runs))
        cells = np.frombuffer(self.solver_codes, dtype=np.int64) * shape[1]
        cells += np.frombuffer(self.run_codes, dtype=np.int64)
        counts = np.bincount(cells, minlength=shape[0] * shape[1])
        if (counts > 1).any():
            firsts = np.unique(cells, return_index=True)[1]
            row = int(np.setdiff1d(np.arange(len(cells)), firsts)[0])  # earliest repeat
            raise DuplicateEntryError(
                f"{self.where(self.positions[row])}: duplicate result for solver "
                f"{solvers[self.solver_codes[row]]!r} on run {runs[self.run_codes[row]].label()}"
            )
        if (counts == 0).any():
            si, ri = divmod(int(np.argmin(counts)), shape[1])
            raise CompletenessError(
                f"missing result for solver {solvers[si]!r} on run {runs[ri].label()}"
            )
        present = set(runs) | {rk.instance_id for rk in runs}
        for what, key in config.named:
            if key not in present:
                raise ParseError(f"{config.where}: {what} is not in the data")
        order = np.argsort(cells)  # cells is now a permutation of the table's cells
        d = Dataset(
            solvers=solvers,
            runs=runs,
            status=np.frombuffer(self.status, dtype=np.int8)[order].reshape(shape),
            cpu_time=np.frombuffer(self.cpu_time)[order].reshape(shape),
            quality=np.frombuffer(self.quality)[order].reshape(shape),
            strata={
                rk.instance_id: config.strata.get(rk.instance_id, DEFAULT_STRATUM) for rk in runs
            },
            cutoff=config.cutoff,
            reference=dict(config.reference),
        )
        if any(ref.best_known_quality is not None for ref in config.reference.values()):
            # NaN (absent) quality or best-known quality compares false.
            below = d.success_matrix & (d.quality < d.best_known_vector)
            if below.any():
                row = int(order[np.flatnonzero(below)].min())  # earliest offending row
                si, ri = self.solver_codes[row], self.run_codes[row]
                raise ParseError(
                    f"{self.where(self.positions[row])}: successful run of solver "
                    f"{solvers[si]!r} on run {runs[ri].label()} has quality "
                    f"{float(d.quality[si, ri])} below its best_known_quality "
                    f"{float(d.best_known_vector[ri])}"
                )
        return d


def _finite_number(value) -> bool:
    """A JSON number, not a bool, that float() converts to a finite value."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


def _reference_value(entry: dict, key: str, label: str, where: str) -> float | None:
    value = entry.get(key)
    if value is None:
        return None
    if not _finite_number(value):
        raise ParseError(f"{where}: {key} for {label!r} must be a finite number, got {value!r}")
    if not value > 0:
        raise ParseError(f"{where}: {key} for {label!r} must be > 0")
    return float(value)


class _Config(NamedTuple):
    """A parsed config.  ``where`` names its source; ``named`` lists its
    strata instances and reference runs in file order, each as (what,
    instance id or :class:`RunKey`), for the check that the data has them."""

    cutoff: float
    strata: dict
    reference: dict[RunKey, ReferenceEntry]
    where: str
    named: tuple[tuple[str, str | RunKey], ...]


def _parse_config(doc: dict, where: str) -> _Config:
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: config must be a JSON object")
    cutoff_raw = doc.get("cutoff_seconds")
    if cutoff_raw is None:
        cutoff = math.inf
    else:
        if not _finite_number(cutoff_raw):
            raise ParseError(
                f"{where}: cutoff_seconds must be a finite number, got {cutoff_raw!r}"
            )
        cutoff = float(cutoff_raw)
        if not cutoff > 0:
            raise ParseError(f"{where}: cutoff_seconds must be > 0, got {cutoff}")
    strata = doc.get("strata") or {}
    if not isinstance(strata, dict):
        raise ParseError(f"{where}: strata must be an object mapping instance to stratum")
    for instance, label in strata.items():
        if not isinstance(label, str):
            raise ParseError(f"{where}: stratum of {instance!r} must be a string, got {label!r}")
    reference: dict[RunKey, ReferenceEntry] = {}
    reference_runs = []
    for label, entry in (doc.get("reference") or {}).items():
        rk = RunKey.from_label(label)
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: reference entry for {label!r} must be an object")
        fields = ReferenceEntry._fields
        reference[rk] = ReferenceEntry(*(_reference_value(entry, f, label, where) for f in fields))
        reference_runs.append((f"reference run {label!r}", rk))
    named = {
        "strata": [(f"strata instance {instance!r}", instance) for instance in strata],
        "reference": reference_runs,
    }
    in_file_order = tuple(item for section in doc if section in named for item in named[section])
    return _Config(cutoff, dict(strata), reference, where, in_file_order)


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None


def _load_csv(path: Path) -> tuple[_Table, _Config]:
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

        def rows() -> Iterator[tuple[int, list[str]]]:
            for lineno, fields in enumerate(reader, start=2):
                if not fields:
                    continue
                if len(fields) != len(RESULTS_CSV_HEADER):
                    raise ParseError(f"{path}:{lineno}: expected {len(RESULTS_CSV_HEADER)} fields")
                yield lineno, fields

        return _Table(rows(), lambda lineno: f"{path}:{lineno}"), _Config(math.inf, {}, {}, "", ())


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write one CSV table in the dialect the loader reads; a cell holding a
    comma, quote or newline is quoted."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _load_json(path: Path) -> tuple[_Table, _Config]:
    doc = _read_json(path)
    if not isinstance(doc, dict) or "results" not in doc:
        raise ParseError(f"{path}: dataset JSON must be an object with a 'results' array")
    config = _parse_config(doc, str(path))

    def rows() -> Iterator[tuple[int, list]]:
        for i, row in enumerate(doc["results"]):
            if not isinstance(row, dict):
                raise ParseError(f"{path}: results[{i}] must be an object")
            yield i, [row.get(key) for key in RESULTS_CSV_HEADER]

    return _Table(rows(), lambda i: f"{path}: results[{i}]"), config


def load_dataset(path: str | Path, config: str | Path | None = None) -> Dataset:
    """Load a dataset from a run-results CSV or a self-contained JSON file,
    as the file suffix (``.csv`` or ``.json``) says.

    For CSV input, cutoff, strata and reference data come from the
    optional ``config`` JSON file; without one, every instance goes into a
    single default stratum and the cutoff is unbounded.  A ``config``
    given alongside JSON input overrides the embedded values.  A strata
    instance or reference run that the data lacks is a :class:`ParseError`
    naming the config source and the first such key in file order.
    """
    path = Path(path)
    suffix = path.suffix.lstrip(".").lower()
    if suffix not in ("csv", "json"):
        raise ParseError(f"unsupported dataset format {suffix!r} (expected csv or json)")
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    table, parsed = (_load_csv if suffix == "csv" else _load_json)(path)
    if config is not None:
        parsed = _parse_config(_read_json(Path(config)), str(config))
    return table.dataset(parsed)
