"""Core data model for metric streams: immutable series plus CSV ingestion/export.

A block of samples is a :data:`SeriesLike`: a :class:`TimeSeries`, an
ndarray or a sequence, one row per sample. Every layer takes any of them
through :func:`as_matrix`. :class:`TimeSeries` is the checked, frozen form
of outside input: its constructor, :func:`iter_csv` and :func:`load_csv`
refuse a non-finite sample, and a plain array is taken as it is. A window
of a series is a row slice of its matrix, ``values[lo - 1 : hi]``.

Indices in all public contracts are 1-based: sample ``n`` of a series of
length ``N`` lives at ``values[n - 1]``.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import CsvFormatError

__all__ = [
    "TimeSeries",
    "SeriesLike",
    "as_matrix",
    "iter_csv",
    "load_csv",
    "save_csv",
]


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """An ordered block of N d-dimensional samples of one monitored metric.

    ``values`` is an (N, d) float matrix, one row per sample in time order.
    The array is frozen at construction; the series is safe to share across
    threads.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"series must be a non-empty N x d matrix, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("series values must all be finite (no NaN/Inf)")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


SeriesLike = Union[TimeSeries, np.ndarray, Sequence]


def as_matrix(s: SeriesLike) -> np.ndarray:
    """The (N, d) sample matrix behind a series or a plain array; a 1-D array is one column."""
    if isinstance(s, TimeSeries):
        return s.values
    arr = np.asarray(s, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    return arr


def _is_numeric_row(row: list[str]) -> bool:
    for cell in row:
        try:
            float(cell)
        except ValueError:
            return False
    return True


def _text_lines(fh: Iterable[str]) -> Iterator[str]:
    """The lines of a text stream, less a UTF-8 byte-order mark opening it.

    A mark would join the first cell or key; an empty stream stays empty.
    """
    lines = iter(fh)
    first = next(lines, "").removeprefix("\ufeff")
    return itertools.chain((first,) if first else (), lines)


def iter_csv(
    fh: Iterable[str],
    columns: Sequence[int] | None = None,
    source: str = "<stdin>",
) -> Iterator[list[float]]:
    """Yield the selected cells of each data row of a CSV stream as floats.

    Rows are parsed lazily, so an unbounded stream (standard input) works.
    Blank lines are skipped. A single header row is auto-detected: if any
    cell of the first row fails to parse as a number, that row is skipped.
    ``columns`` selects 1-based column indices (in the given order); wider
    rows are allowed. ``None`` takes every column of the first data row,
    except that a header of two or more cells whose first cell is ``t``
    (the :func:`save_csv` index column) drops column 1; every later row
    must then be exactly as wide.
    Missing, non-numeric and non-finite cells are rejected, never imputed.
    A UTF-8 byte-order mark (U+FEFF) opening the stream is dropped.

    Raises:
        CsvFormatError: empty selection, a short or (with implicit columns)
            a wide row, or a bad cell; the message names ``source``, the
            physical line and the column or cell count.
    """
    if columns is not None and len(columns) == 0:
        raise CsvFormatError("empty column selection")
    reader = csv.reader(_text_lines(fh))
    first = True
    width = None  # the fixed row width when the columns are implicit
    for row in reader:
        if not row:
            continue
        if first:
            first = False
            if not _is_numeric_row(row):
                if columns is None and len(row) > 1 and row[0].strip().lower() == "t":
                    columns = range(2, len(row) + 1)
                    width = len(row)
                continue
        if columns is None:
            columns = range(1, len(row) + 1)
            width = len(row)
        line = reader.line_num
        if width is not None and len(row) > width:
            raise CsvFormatError(f"{source}: row {line} has {len(row)} cells, expected {width}")
        point = []
        for col in columns:
            if not 1 <= col <= len(row):
                raise CsvFormatError(f"{source}: row {line} has no column {col}")
            cell = row[col - 1]
            try:
                value = float(cell)
            except ValueError:
                value = math.nan  # reported below, like a NaN or infinite cell
            if not math.isfinite(value):
                raise CsvFormatError(
                    f"{source}: non-numeric value {cell!r} at row {line}, column {col}"
                )
            point.append(value)
        yield point


def load_csv(path: str | Path, columns: Sequence[int] | None = None) -> TimeSeries:
    """Read a comma-separated file into a TimeSeries.

    Rows go through :func:`iter_csv`, which owns the header detection,
    column selection and cell validation, so ``columns=None`` skips a
    leading ``t`` index column and a file written by :func:`save_csv` loads
    back as its data columns only.

    Raises:
        CsvFormatError: unreadable file, no data rows, empty selection, or a
            short row or bad cell (the message names the file's physical
            line and the column).
    """
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            rows = list(iter_csv(fh, columns, source=str(path)))
    except OSError as exc:
        raise CsvFormatError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    return TimeSeries(np.array(rows))


def save_csv(s: SeriesLike, path: str | Path) -> None:
    """Write a series as CSV with header ``t,x1..xd``.

    Values are written with shortest round-trip formatting, so reading the
    file back reproduces them bit-exactly.
    """
    mat = as_matrix(s)
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{j}" for j in range(1, mat.shape[1] + 1)])
        for n, row in enumerate(mat, start=1):
            writer.writerow([n] + [repr(float(v)) for v in row])

