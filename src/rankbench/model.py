"""Competition data model, ingestion and validation.

A competition is a set of solvers, a set of runs (instance, seed), and a
total table of per-(solver, run) results, held as (solvers x runs)
arrays.  Datasets are immutable after construction and safe for
concurrent reads.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
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
    ``instance_layout`` groups the runs by instance and
    ``stratum_layout`` the instances by stratum, through one grouping
    helper; when every instance has as many runs, ``run_rows`` views
    ``instance_layout``'s runs as one row per instance.
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
    def run_rows(self) -> np.ndarray | None:
        """Read-only (instances x W) view of ``instance_layout``'s runs,
        row ``j`` the runs of ``instances[j]``, when every instance has
        ``W`` runs; None when instances have different run counts."""
        runs, counts, _ = self.instance_layout
        width = counts.max(initial=0)
        if counts.min(initial=width) < width:
            return None
        rows = runs.reshape(len(counts), width)
        rows.flags.writeable = False
        return rows

    @cached_property
    def stratum_layout(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
        """``(instances, rows, sizes, starts)``: the instance indices
        stratum by stratum (strata in ``stratum_order``, instances in
        ``instances`` order, by :func:`_grouped`), ``run_rows`` in that
        order (or None), and per position the instance count (uint64) and
        first position of its stratum."""
        code = {label: j for j, label in enumerate(self.stratum_order)}
        labels = (self.stratum_of(instance) for instance in self.instances)
        order, lengths, starts = _grouped([code[label] for label in labels])
        return (
            order,
            None if self.run_rows is None else self.run_rows[order],
            np.repeat(lengths, lengths).astype(np.uint64),
            np.repeat(starts, lengths),
        )

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
    """Stratify by default exactly when the runs' instances fall into >= 2
    strata, the default stratum included (:attr:`Dataset.stratum_order`)."""
    return len(d.stratum_order) >= 2


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


class _Table(NamedTuple):
    """Result rows as typed columns: row ``i`` comes from source position
    ``positions[i]`` (a CSV line number or a JSON ``results`` index), which
    ``where`` names.  Solvers and runs are coded in order of first
    appearance; ``solvers`` and ``runs`` (``(instance, seed)`` pairs) list
    them by code.
    """

    solvers: Sequence[str]
    runs: Sequence[tuple[str, int]]
    solver_codes: np.ndarray  # integer
    run_codes: np.ndarray  # integer
    status: np.ndarray  # int8
    cpu_time: np.ndarray  # float64
    quality: np.ndarray  # float64, NaN where absent
    positions: Sequence[int]
    where: Callable[[int], str]

    def dataset(self, config: _Config) -> Dataset:
        """Place every row in its (solver, run) cell; each cell needs exactly
        one row, every instance and run the config names must be in the
        data, and no successful run's quality may be below its run's
        best-known quality."""
        solvers, runs = tuple(self.solvers), tuple(RunKey(*key) for key in self.runs)
        shape = (len(solvers), len(runs))
        cells = self.solver_codes.astype(np.int64)
        cells *= shape[1]
        cells += self.run_codes
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
            status=self.status[order].reshape(shape),
            cpu_time=self.cpu_time[order].reshape(shape),
            quality=self.quality[order].reshape(shape),
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


def _checked_row(solver, instance, seed_raw, status_raw, cpu_raw, quality_raw) -> tuple:
    """One row's ``(solver, (instance, seed), status code, cpu_time,
    quality)``; an invalid field raises :class:`_RowError`."""
    # int() would silently truncate a JSON bool or float and could merge distinct runs.
    if isinstance(seed_raw, (bool, float)):
        raise _RowError(f"seed {seed_raw!r} is not an integer")
    for what, value in (("solver", solver), ("instance", instance)):
        if value is not None and not isinstance(value, str):
            raise _RowError(f"{what} {value!r} is not a string")
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
    return solver, (instance, seed), status, cpu_time, quality


def _parse_rows(rows: Iterable[tuple[int, Sequence]], where: Callable[[int], str]) -> _Table:
    """The per-row parser: check and convert each ``(position, fields)`` row
    in turn; the first invalid field is a :class:`ParseError` naming its row.

    The columns collect in ``array.array`` buffers of machine integers
    (``q``, status ``b``) and doubles (``d``): 1-8 bytes a field instead of
    a list slot plus a boxed Python number, and numpy reads them without a
    copy of each element.
    """
    solvers, runs = {}, {}  # solver and (instance, seed) -> code
    positions, solver_codes, run_codes = array("q"), array("q"), array("q")
    status, cpu_time, quality = array("b"), array("d"), array("d")
    for pos, fields in rows:
        try:
            solver, run, code, cpu, q = _checked_row(*fields)
        except _RowError as exc:
            raise ParseError(f"{where(pos)}: {exc}") from None
        positions.append(pos)
        solver_codes.append(solvers.setdefault(solver, len(solvers)))
        run_codes.append(runs.setdefault(run, len(runs)))
        status.append(code)
        cpu_time.append(cpu)
        quality.append(q)
    return _Table(
        tuple(solvers),
        tuple(runs),
        np.frombuffer(solver_codes, dtype=np.int64),
        np.frombuffer(run_codes, dtype=np.int64),
        np.frombuffer(status, dtype=np.int8),
        np.frombuffer(cpu_time),
        np.frombuffer(quality),
        positions,
        where,
    )


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


def _object_or_none(doc: dict, key: str, what: str, where: str) -> dict:
    """``doc[key]``: a JSON object, or an empty one for null or absent."""
    value = {} if doc.get(key) is None else doc[key]
    if not isinstance(value, dict):
        raise ParseError(f"{where}: {key} must be an object mapping {what}")
    return value


class _Config(NamedTuple):
    """A parsed config.  ``where`` names its source; ``named`` lists its
    strata instances and reference runs in file order, each as (what,
    instance id or :class:`RunKey`), for the check that the data has them."""

    cutoff: float
    strata: dict
    reference: dict[RunKey, ReferenceEntry]
    where: str
    named: tuple[tuple[str, str | RunKey], ...]


def _unknown(keys, known: Sequence[str]) -> str | None:
    return next((key for key in keys if key not in known), None)


def _parse_config(doc: dict, where: str) -> _Config:
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: config must be a JSON object")
    key = _unknown(doc, ("cutoff_seconds", "strata", "reference"))
    if key is not None:
        raise ParseError(f"{where}: unknown config key {key!r}")
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
    strata = _object_or_none(doc, "strata", "instance to stratum", where)
    for instance, label in strata.items():
        if not isinstance(label, str):
            raise ParseError(f"{where}: stratum of {instance!r} must be a string, got {label!r}")
    reference: dict[RunKey, ReferenceEntry] = {}
    reference_runs = []
    references = _object_or_none(doc, "reference", "instance@seed to run data", where)
    fields = ReferenceEntry._fields
    for label, entry in references.items():
        try:
            rk = RunKey.from_label(label)
        except ParseError as exc:
            raise ParseError(f"{where}: {exc}") from None
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: reference entry for {label!r} must be an object")
        field = _unknown(entry, fields)
        if field is not None:
            raise ParseError(f"{where}: unknown field {field!r} in reference entry for {label!r}")
        reference[rk] = ReferenceEntry(*(_reference_value(entry, f, label, where) for f in fields))
        reference_runs.append((f"reference run {label!r}", rk))
    named = {
        "strata": [(f"strata instance {instance!r}", instance) for instance in strata],
        "reference": reference_runs,
    }
    in_file_order = tuple(item for section in doc if section in named for item in named[section])
    return _Config(cutoff, dict(strata), reference, where, in_file_order)


def _not_utf8(where: str, exc: UnicodeDecodeError) -> ParseError:
    byte = exc.object[exc.start]
    return ParseError(
        f"{where}: invalid UTF-8 (byte 0x{byte:02x} at offset {exc.start}: {exc.reason})"
    )


def _read_json(path: Path):
    def unique(pairs: list[tuple[str, object]]) -> dict:
        # The last of a repeated key would win silently; the input is ambiguous.
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [key for key, _ in pairs]
            key = next(key for j, key in enumerate(keys) if key in keys[:j])
            raise ParseError(f"{path}: duplicate key {key!r}")
        return obj

    data = path.read_bytes()
    try:
        return json.loads(data.decode("utf-8"), object_pairs_hook=unique)
    except UnicodeDecodeError as exc:
        raise _not_utf8(str(path), exc) from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None


def _load_csv(path: Path) -> tuple[_Table, _Config]:
    def where(lineno: int) -> str:
        return f"{path}:{lineno}"

    table = _columnar_table(path, where)
    if table is None:
        table = _csv_records_table(path, where)
    return table, _Config(math.inf, {}, {}, "", ())


def _csv_records_table(path: Path, where: Callable[[int], str]) -> _Table:
    """The per-row CSV reader: ``csv.reader`` records through
    :func:`_parse_rows`.  It reads every spelling the ``csv`` module does
    and names the physical line where a bad record starts; a file that is
    not UTF-8 fails as a whole, at the line of its first invalid byte."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]  # lines end at "\n", "\r\n" or a lone "\r", as csv reads them
        lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise _not_utf8(where(lineno), exc) from None
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))

    def records() -> Iterator[tuple[int, list[str]]]:
        lineno = 1  # where the next record starts
        try:
            for fields in reader:
                yield lineno, fields
                lineno = reader.line_num + 1
        except csv.Error as exc:
            raise ParseError(f"{where(lineno)}: {exc}") from None

    lines = records()
    _, header = next(lines, (1, None))
    if header is None:
        raise ParseError(f"{path}: empty file")
    if header != RESULTS_CSV_HEADER:
        raise ParseError(
            f"{path}: header must be exactly {','.join(RESULTS_CSV_HEADER)!r}, "
            f"got {','.join(header)!r}"
        )

    def rows() -> Iterator[tuple[int, list[str]]]:
        for lineno, fields in lines:
            if not fields:
                continue
            if len(fields) != len(RESULTS_CSV_HEADER):
                raise ParseError(f"{where(lineno)}: expected {len(RESULTS_CSV_HEADER)} fields")
            yield lineno, fields

    return _parse_rows(rows(), where)


# Bytes per block of the columnar CSV reader: it reads this many bytes and
# the rest of the last line, and splits and converts those lines, with no
# object per line.  The working arrays take about five times the block's
# bytes, whatever the length of the file.
_CSV_BLOCK_BYTES = 1 << 18

_CSV_HEADER_LINES = tuple(",".join(RESULTS_CSV_HEADER).encode() + end for end in (b"\n", b"\r\n"))


def _columnar_table(path: Path, where: Callable[[int], str]) -> _Table | None:
    """The table of a plain CSV file, read once, split and converted in
    numpy blocks of about ``_CSV_BLOCK_BYTES`` bytes of whole lines; None
    for any other file, or at the first field that fails a check.  The
    columns are sized from the file's size, which bounds its row count.

    A plain file is UTF-8 with the header line exactly
    ``RESULTS_CSV_HEADER``; it holds no double quote, no NUL byte and no
    carriage return outside a CRLF line end, and every later line holds
    exactly five commas, so it has no blank line and row ``i`` sits on
    line ``i + 2``.  Each distinct solver text, ``instance,seed`` text and
    status text of the file is decoded and converted once, with the
    per-row parser's own ``int()`` and ``_STATUS_CODES``, and runs are
    coded by ``(instance, int(seed))``, so ``01`` and ``1`` are one run.
    :func:`_numbers` reads the times and qualities with numpy's bytes
    cast, which gives ``float()``'s value for every ASCII spelling; a
    non-ASCII one fails it.  A None sends the file to the per-row reader,
    so what is accepted and every message stay the per-row reader's.
    """
    solvers, runs = {}, {}  # solver and (instance, seed) -> code

    def run_code(text: bytes) -> int:
        instance, seed = text.split(b",")
        return runs.setdefault((instance.decode(), _seed_value(seed)), len(runs))

    # Solver code, run code and status, each from one text: the solver
    # field, the instance and seed fields with the comma between them, and
    # the status field.
    coders = (
        ((0, 0), _Coder(lambda text: solvers.setdefault(text.decode(), len(solvers)))),
        ((1, 2), _Coder(run_code)),
        ((3, 3), _Coder(lambda text: _STATUS_CODES[text.decode()])),
    )
    limit = csv.field_size_limit()

    def read_block(lines: bytes, row: int) -> int | None:
        """Fill the rows from ``row`` with the block's lines: the row after
        them, or None when the block fails a check."""
        if b'"' in lines or b"\0" in lines:
            return None
        split = _split(lines)
        if split is None:
            return None
        block, firsts, lengths = split
        if lengths.max() > limit or (lengths[[0, 1, 4]] == 0).any():
            return None
        here = slice(row, row + lengths.shape[1])
        if here.stop > len(status):  # more rows than the file's size holds: it grew
            return None
        for column, ((first, last), coder) in zip((solver_codes, run_codes, status), coders):
            spans = firsts[last] + lengths[last] - firsts[first]
            column[here] = coder(_words(block, firsts[first], spans))
        cpu_time[here] = _numbers(_words(block, firsts[4], lengths[4]))
        quality[here] = _numbers(_words(block, firsts[5], lengths[5]))
        return here.stop

    with path.open("rb") as fh:
        if fh.readline() not in _CSV_HEADER_LINES:
            return None
        # A valid line takes at least 16 bytes ("a,b,0,solved,0," and its
        # end), so the columns hold every row of a valid file; their pages
        # past the last row are never touched.
        rows = (os.fstat(fh.fileno()).st_size - fh.tell()) // 16 + 1
        solver_codes, run_codes = np.empty(rows, np.int32), np.empty(rows, np.int32)
        status, cpu_time, quality = np.empty(rows, np.int8), np.empty(rows), np.empty(rows)
        row = 0
        try:
            while lines := fh.read(_CSV_BLOCK_BYTES):
                lines += fh.readline()  # the rest of its last line
                row = read_block(lines, row)
                if row is None:
                    return None
        except (ValueError, KeyError):  # a text the per-row parser rejects
            return None
    if row == 0:
        return None
    # realloc gives back each column's unused tail; no view of a column
    # exists.  Freed at full size, a column would raise glibc's mmap
    # threshold and move later arrays onto the heap.
    for column in (solver_codes, run_codes, status, cpu_time, quality):
        column.resize(row, refcheck=False)
    return _Table(
        tuple(solvers),
        tuple(runs),
        solver_codes,
        run_codes,
        status,
        cpu_time,
        quality,
        range(2, row + 2),
        where,
    )


def _split(lines: bytes) -> tuple | None:
    """A block's lines split at their commas, as ``(block, firsts,
    lengths)``: field ``f`` of line ``i`` is the ``lengths[f, i]`` bytes
    from ``block[firsts[f, i]]``, and ``block`` holds the lines' bytes
    and 8 zero bytes, so that the 8 bytes from any field start are
    inside.  The separators are the commas and line ends, found in one
    pass; an unterminated last line ends at the block's end.  None when
    a line does not hold exactly five commas, a CR is not followed by a
    line feed, or the block holds 1 GB or more."""
    if len(lines) >= 2**30:  # offsets into the block, plus a field, stay int32
        return None
    block = np.zeros(len(lines) + 8, dtype=np.uint8)
    raw = block[: len(lines)]
    raw[:] = np.frombuffer(lines, dtype=np.uint8)
    newline = raw == ord("\n")
    seps = np.flatnonzero(newline | (raw == ord(","))).astype(np.int32)
    ends = np.count_nonzero(newline)
    if not lines.endswith(b"\n"):
        seps, ends = np.append(seps, np.int32(len(lines))), ends + 1
    # Six separators a line end, every sixth of them a line end (the block's
    # end reads as a zero byte): five commas on every line.
    if len(seps) != 6 * ends or (block[seps[5::6]] == ord(",")).any():
        return None
    firsts = np.empty_like(seps)  # a field starts one past the separator before it
    firsts[0] = 0
    firsts[1:] = seps[:-1] + 1
    if b"\r" in lines:
        # A CR ends its line: the byte after it (past the block's end, a
        # zero byte) is a line feed.
        if (block[np.flatnonzero(raw == ord("\r")) + 1] != ord("\n")).any():
            return None
        # A CRLF line's last field ends at its "\r".
        seps[5::6] -= raw[seps[5::6] - 1] == ord("\r")
    return block, firsts.reshape(ends, 6).T, (seps - firsts).reshape(ends, 6).T


# _KEEP[r]: the first r bytes of a little-endian 8-byte word.
_KEEP = np.array([2 ** (8 * r) - 1 for r in range(9)], dtype=np.uint64)


def _words(block: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The texts ``block[starts[i]:starts[i] + lengths[i]]`` as rows of
    8-byte words, zero past each text's end: two texts are equal exactly
    when their rows are, as the file holds no NUL byte."""
    at = np.ndarray((len(block) - 7,), "<u8", block, 0, (1,))  # the word at every offset
    # A text's j-th word starts inside the text, or is masked to zero.
    return np.column_stack([
        at[np.minimum(starts + 8 * j, len(at) - 1)] & _KEEP[np.clip(lengths - 8 * j, 0, 8)]
        for j in range(max(-(-int(lengths.max()) // 8), 1))
    ])


def _texts(words: np.ndarray) -> np.ndarray:
    """The rows of ``words`` viewed as one NUL-padded bytes array (dtype
    ``S{8w}``, no copy): element ``i`` is row ``i``'s text."""
    return words.view(f"S{8 * words.shape[1]}")[:, 0]


class _Coder:
    """Codes texts in order of first appearance over a file's blocks:
    ``code_of(text)`` gives a text's code the first time the text is seen,
    and only then."""

    def __init__(self, code_of: Callable[[bytes], int]) -> None:
        self.code_of = code_of
        self.known = {}  # text -> code

    def __call__(self, words: np.ndarray) -> np.ndarray:
        """The codes of a block's texts, given as :func:`_words` rows; only
        the block's distinct texts, from ``np.unique``, become bytes
        objects.  Texts not yet known are coded in order of their first
        row, not in ``np.unique``'s sorted order."""
        texts, firsts, local = np.unique(_texts(words), return_index=True, return_inverse=True)
        texts = texts.tolist()
        codes = list(map(self.known.get, texts))
        if None in codes:
            for n in np.argsort(firsts).tolist():  # in order of first appearance
                if codes[n] is None:
                    codes[n] = self.known[texts[n]] = self.code_of(texts[n])
        return np.array(codes, dtype=np.int64)[local]


def _seed_value(raw: bytes) -> int:
    seed = int(raw.decode())
    if seed < 0:
        raise ValueError("negative seed")
    return seed


def _numbers(words: np.ndarray) -> np.ndarray:
    """The texts of :func:`_words` rows as finite numbers >= 0, NaN for an
    empty text (whose row it overwrites with ``nan``), by numpy's bytes ->
    float64 cast, which gives ``float()``'s value for every ASCII spelling.
    A text that the cast rejects (one that ``float()`` rejects, or any
    non-ASCII spelling), or a value out of range, raises ValueError."""
    empty = words[:, 0] == 0  # the file holds no NUL: only an empty text starts with one
    if empty.all():
        return np.full(len(words), math.nan)
    words[empty, 0] = int.from_bytes(b"nan", "little")
    values = _texts(words).astype(np.float64)
    if not (empty | ((values >= 0) & (values < math.inf))).all():
        raise ValueError("number out of range")
    return values


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write one CSV table in the dialect the loader reads; a cell holding a
    comma, quote or newline is quoted."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _load_json(path: Path) -> tuple[_Table, _Config]:
    doc = _read_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("results"), list):
        raise ParseError(f"{path}: dataset JSON must be an object with a 'results' array")
    config = _parse_config({key: doc[key] for key in doc if key != "results"}, str(path))

    def rows() -> Iterator[tuple[int, list]]:
        for i, row in enumerate(doc["results"]):
            if not isinstance(row, dict):
                raise ParseError(f"{path}: results[{i}] must be an object")
            field = _unknown(row, RESULTS_CSV_HEADER)
            if field is not None:
                raise ParseError(f"{path}: results[{i}]: unknown field {field!r}")
            for key in ("seed", "cpu_time", "quality"):
                if isinstance(row.get(key), str):
                    message = f"{key} {row[key]!r} is a string, not a number"
                    raise ParseError(f"{path}: results[{i}]: {message}")
            yield i, [row.get(key) for key in RESULTS_CSV_HEADER]

    return _parse_rows(rows(), lambda i: f"{path}: results[{i}]"), config


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
