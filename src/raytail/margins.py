"""Marginal transforms onto the standard exponential scale.

All estimation in this package operates on coordinates whose margins are
standard exponential, so that P(X_E > x) = exp(-x) per component and joint
tail events live in the positive quadrant (or octant). This module holds
the container types, the CSV reader and writer, and the one route onto that
scale: the empirical rank transform of raw data.

A large CSV body is parsed in line-aligned byte ranges on the package's
process pool, one range per process (RAYTAIL_THREADS, the caller included,
default the usable cores); the caller parses the first range itself. The
values and error messages are those of a serial read.
"""

from __future__ import annotations

import csv
import io
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import _pool
from .errors import DomainError

PROVENANCES = ("exact-transform", "rank-transform", "simulated")


@dataclass(frozen=True)
class RawSample:
    """Named columns of raw observations, two or three of them.

    Parameters
    ----------
    data : ndarray, shape (n, d)
        One row per observation, d in {2, 3}. All entries must be finite.
    names : tuple of str
        Column names, one per column.
    """

    data: np.ndarray
    names: tuple = ()

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise DomainError(f"raw sample must be 2-d, got shape {arr.shape}")
        n, d = arr.shape
        if d not in (2, 3):
            raise DomainError(f"raw sample must have 2 or 3 columns, got {d}")
        if n < 1:
            raise DomainError("raw sample must contain at least one row")
        if not np.all(np.isfinite(arr)):
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise DomainError(
                f"non-finite value at row {bad[0]}, column {bad[1]}"
            )
        names = tuple(self.names) if self.names else tuple(
            f"col{j}" for j in range(d)
        )
        if len(names) != d:
            raise DomainError(
                f"{len(names)} column names for {d} columns"
            )
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "names", names)

    @property
    def n(self):
        return self.data.shape[0]

    @property
    def dim(self):
        return self.data.shape[1]


@dataclass(frozen=True)
class ExponentialSample:
    """Observations on standard exponential margins.

    Parameters
    ----------
    points : ndarray, shape (n, d)
        Non-negative, finite coordinates.
    provenance : str
        One of ``exact-transform``, ``rank-transform``, ``simulated``.
    """

    points: np.ndarray
    provenance: str = "exact-transform"

    def __post_init__(self):
        arr = np.asarray(self.points, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] not in (2, 3):
            raise DomainError(
                f"exponential sample must have shape (n, 2|3), got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise DomainError("exponential sample contains non-finite values")
        if np.any(arr < 0.0):
            raise DomainError("exponential-margin coordinates must be >= 0")
        if self.provenance not in PROVENANCES:
            raise DomainError(
                f"provenance must be one of {PROVENANCES}, got {self.provenance!r}"
            )
        object.__setattr__(self, "points", arr)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    @property
    def x(self):
        return self.points[:, 0]

    @property
    def y(self):
        return self.points[:, 1]


def rank_transform(raw) -> ExponentialSample:
    """Replace each margin by its exponential rank scores.

    Within each column the rank-i largest value becomes -log(i/(n+1)).
    Ties are broken by ascending input index, so the output is a
    deterministic function of the input. Row order is preserved.
    """
    arr = raw.data if isinstance(raw, RawSample) else np.asarray(raw, dtype=np.float64)
    if arr.ndim != 2:
        raise DomainError(f"expected 2-d array, got shape {arr.shape}")
    if np.any(np.isnan(arr)):
        bad = np.argwhere(np.isnan(arr))[0]
        raise DomainError(f"NaN at row {bad[0]}, column {bad[1]}")
    n, d = arr.shape
    grid = -np.log(np.arange(1, n + 1) / (n + 1.0))
    out = np.empty_like(arr)
    for j in range(d):
        # among ties the earlier index receives the smaller (more extreme)
        # rank, as a stable argsort of the negated column gives; without
        # ties the permutation is unique, so the faster default sort agrees
        key = -arr[:, j]
        order = np.argsort(key)
        ordered = key[order]
        if not np.all(ordered[1:] > ordered[:-1]):
            order = np.argsort(key, kind="stable")
        out[order, j] = grid
    return ExponentialSample(out, provenance="rank-transform")


# A body shorter than two parts parses in one range in the caller. A second
# range costs the fork of one worker (about 4 ms) and the pipe that brings
# its rows back. In a fresh CLI call on 2 cores (estimate prob --method wt
# --rank-transform, medians of 12 alternating runs) two ranges tied one
# range at 1 MB (0.1148 against 0.1152 s) and were faster from 2 MB on
# (0.1235 against 0.1288 s; at 4 MB 0.1389 against 0.1546 s, at 8 MB 0.1734
# against 0.2104 s).
_PART_BYTES = 1 << 20


def read_raw_csv(path) -> RawSample:
    """Read a raw sample from CSV: header row of names, float rows.

    The body is cut into line-aligned byte ranges, at most one per process
    of the package's pool (the caller included) and each at least
    ``_PART_BYTES`` long, and every range is parsed by ``np.loadtxt`` (see
    :func:`_parse_range`). If any range is not taken cleanly (a parse
    error, a non-ASCII byte, a column count that differs from the header, a
    non-finite value), or the body has no rows or a header that is not one
    plain line, the whole file is re-read by the row loop, which accepts
    every field ``float()`` accepts and words every error message. Where
    both parse a file they give bitwise the same values. Anything but a
    regular file, such as a pipe, goes to the row loop directly.
    """
    if not os.path.isfile(path):
        # a pipe can be read once only; the row loop reads it in one pass
        return _read_raw_csv_rows(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path)
        one_line = reader.line_num == 1
    with open(path, "rb") as fh:
        first = fh.readline()
        # the text view ends a line at \r, \r\n or \n, the binary view at \n
        # only: the body starts at len(first) only where the two agree
        if not one_line or b"\r" in first.removesuffix(b"\n").removesuffix(b"\r"):
            return _read_raw_csv_rows(path)
        start, size = len(first), os.fstat(fh.fileno()).st_size
        parts = max(1, min(_pool._process_count(), (size - start) // _PART_BYTES))
        cuts = [start]
        for i in range(1, parts):
            # cut just after the first newline at or past the even split
            fh.seek(max(cuts[-1], start + (size - start) * i // parts))
            fh.readline()
            cuts.append(fh.tell())
    cuts.append(size)
    n = len(cuts) - 1
    ranges = _pool.map(_parse_range, [path] * n, cuts[:-1], cuts[1:], [len(header)] * n)
    if any(r is None for r in ranges) or not sum(len(r) for r in ranges):
        return _read_raw_csv_rows(path)
    return RawSample(ranges[0] if n == 1 else np.concatenate(ranges), tuple(header))


def _parse_range(path, start, stop, ncols):
    """The rows in bytes [start, stop) of ``path`` as an (n, ncols) array, or
    None where ``np.loadtxt`` does not take them cleanly.

    The range is read here, so no process holds the whole body. Its lines
    end as in the text view of the file: at LF, CR LF or a bare CR.
    """
    with open(path, "rb") as fh:
        fh.seek(start)
        chunk = fh.read(stop - start)
    if not chunk.isascii():
        return None
    text = io.TextIOWrapper(io.BytesIO(chunk), encoding="ascii", newline="")
    try:
        with warnings.catch_warnings():
            # loadtxt warns on a range without rows
            warnings.simplefilter("error", UserWarning)
            data = np.loadtxt(text, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except UserWarning:
        # blank lines only are no rows; an empty body is the row loop's error
        return None if chunk.strip(b"\r\n") else np.empty((0, ncols))
    except ValueError:
        return None
    if data.shape[1] != ncols or not np.isfinite(data).all():
        return None
    return data


def _read_header(reader, path):
    try:
        header = next(reader)
    except StopIteration:
        raise DomainError(f"{path}: empty file") from None
    if len(header) not in (2, 3):
        raise DomainError(f"{path}: expected 2 or 3 columns, found {len(header)}")
    return header


def _read_raw_csv_rows(path) -> RawSample:
    """Row-by-row reader behind :func:`read_raw_csv`; raises on the first bad
    line with its ``path:line`` location."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path)
        rows = []
        for row in reader:
            if not row:
                continue
            # a quoted field may span lines, so count file lines, not records
            lineno = reader.line_num
            if len(row) != len(header):
                raise DomainError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise DomainError(f"{path}:{lineno}: {exc}") from None
            for j, v in enumerate(values):
                if not math.isfinite(v):
                    raise DomainError(
                        f"{path}:{lineno}: non-finite value in column {j}"
                    )
            rows.append(values)
    if not rows:
        raise DomainError(f"{path}: no data rows")
    return RawSample(np.asarray(rows, dtype=np.float64), tuple(header))


def write_csv(path, points, names) -> None:
    """Write points to CSV with a header row, full float precision."""
    arr = np.asarray(points, dtype=np.float64)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        # the writer formats a Python float by repr()
        writer.writerows(arr.tolist())
