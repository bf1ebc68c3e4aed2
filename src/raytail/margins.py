"""Marginal transforms onto the standard exponential scale.

All estimation in this package operates on coordinates whose margins are
standard exponential, so that P(X_E > x) = exp(-x) per component and joint
tail events live in the positive quadrant (or octant). This module holds
the sample type, the CSV reader and writer, and the one route onto that
scale: the empirical rank transform of raw data. ``read_sample`` joins the
reader to the transform as the CLI's ``--input`` reads a file.

A large CSV body is parsed in line-aligned byte ranges on the package's
process pool, one range per process (RAYTAIL_THREADS, the caller included,
default the usable cores); the caller parses the first range itself. The
columns of a rank transform of ``_PART_BYTES`` or more each are ranked
there too, one column per process. The values and error messages are those
of a serial run.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from . import _pool
from .errors import DomainError


@dataclass(frozen=True)
class ExponentialSample:
    """Observations on standard exponential margins.

    Parameters
    ----------
    points : ndarray, shape (n, d)
        Non-negative, finite coordinates.
    """

    points: np.ndarray

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
    """Replace each margin of ``raw``, an (n, 2|3) array-like of raw
    observations, by its exponential rank scores.

    Within each column the rank-i largest value becomes -log(i/(n+1)).
    Ties are broken by ascending input index, so the output is a
    deterministic function of the input. Row order is preserved. Each
    column is ranked by :func:`_rank_column`, on the package's process pool
    where a column holds ``_PART_BYTES`` or more; the values are those of a
    serial run.
    """
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 2:
        raise DomainError(f"expected 2-d array, got shape {arr.shape}")
    if np.any(np.isnan(arr)):
        bad = np.argwhere(np.isnan(arr))[0]
        raise DomainError(f"NaN at row {bad[0]}, column {bad[1]}")
    if arr.shape[1] not in (2, 3):
        raise DomainError(
            f"exponential sample must have shape (n, 2|3), got {arr.shape}"
        )
    # A column of _PART_BYTES or more is ranked on the pool, one column per
    # process, and a shorter one in the caller. Two columns on 2 cores,
    # serial against pooled: with the worker already forked, 3.4 against
    # 2.6 ms at 65536 rows, 7.3 against 5.5 ms at 131072 and 98 against
    # 64 ms at 2^20 (in process, best of 7 x 10 calls); as the first call of
    # a fresh process, which must fork the worker, 8.7 against 8.5 ms at
    # 131072 rows, 19.0 against 15.9 ms at 262144 and 74 against 58 ms at
    # 10^6 (medians of 9). A pooled column and its ranks each cross a pipe.
    # The caller's columns share one grid of scores; a pooled column
    # computes its own in its worker, so no grid crosses a pipe.
    if arr.shape[0] * arr.itemsize >= _PART_BYTES:
        ranked = _pool.map(_rank_column, arr.T)
    else:
        grid = _rank_grid(arr.shape[0])
        ranked = [_rank_column(col, grid) for col in arr.T]
    return ExponentialSample(np.column_stack(ranked))


def _rank_grid(n):
    """The n exponential rank scores -log(i/(n+1)), rank 1 first."""
    return -np.log(np.arange(1, n + 1) / (n + 1.0))


def _rank_column(col, grid=None):
    """The exponential rank scores of one column, as :func:`rank_transform`
    defines them; ``grid`` is ``_rank_grid`` of its length, computed here
    when not given."""
    n = col.shape[0]
    # among ties the earlier index receives the smaller (more extreme) rank,
    # as a stable argsort of the negated column gives; without ties the
    # permutation is unique, so the faster default sort agrees
    key = -col
    order = np.argsort(key)
    ordered = key[order]
    if not np.all(ordered[1:] > ordered[:-1]):
        order = np.argsort(key, kind="stable")
    out = np.empty(n)
    out[order] = _rank_grid(n) if grid is None else grid
    return out


# A body shorter than two parts parses in one range in the caller. A second
# range costs the fork of one worker (about 4 ms) and the pipe that brings
# its rows back. In a fresh CLI call on 2 cores (estimate prob --method wt
# --rank-transform, medians of 12 alternating runs) two ranges tied one
# range at 1 MB (0.1148 against 0.1152 s) and were faster from 2 MB on
# (0.1235 against 0.1288 s; at 4 MB 0.1389 against 0.1546 s, at 8 MB 0.1734
# against 0.2104 s).
_PART_BYTES = 1 << 20


def read_raw_csv(path) -> np.ndarray:
    """Read raw observations from CSV: a first line of 2 or 3 fields, whose
    names are not kept, then one row of numbers per observation.

    Returns the C-contiguous float64 (n, d) array of the rows, with n >= 1,
    d in {2, 3} and every value finite. The body is cut into line-aligned
    byte ranges, at most one per process of the package's pool (the caller
    included) and each at least ``_PART_BYTES`` long, and every range is
    parsed by ``np.loadtxt`` (see :func:`_parse_range`). If any range is not
    taken cleanly (a parse error, a non-ASCII byte, a column count that
    differs from the header, a non-finite value), or the body has no rows or
    a header that is not one plain line, the whole file is re-read by the
    row loop, which accepts every field ``float()`` accepts and words every
    error message. Where both parse a file they give bitwise the same
    values. Anything but a regular file, such as a pipe, goes to the row
    loop directly.
    """
    if not os.path.isfile(path):
        # a pipe can be read once only; the row loop reads it in one pass
        return _read_raw_csv_rows(path)
    with open(path, newline="") as fh:
        lines, ncols = _read_header(_records(fh, path), path)
    with open(path, "rb") as fh:
        first = fh.readline()
        # the text view ends a line at \r, \r\n or \n, the binary view at \n
        # only: the body starts at len(first) only where the two agree
        if lines != 1 or b"\r" in first.removesuffix(b"\n").removesuffix(b"\r"):
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
    ranges = _pool.map(_parse_range, [path] * n, cuts[:-1], cuts[1:], [ncols] * n)
    if any(r is None for r in ranges) or not sum(len(r) for r in ranges):
        return _read_raw_csv_rows(path)
    return ranges[0] if n == 1 else np.concatenate(ranges)


def read_sample(path, rank) -> ExponentialSample:
    """The sample of the CSV at ``path``: with ``rank``, the rank transform
    of its values; without, the values themselves, which must already be on
    exponential margins. The CLI caches what this returns, keyed on this
    module's bytes, since this module alone decides it."""
    raw = read_raw_csv(path)
    if rank:
        return rank_transform(raw)
    if np.any(raw < 0.0):
        raise DomainError(
            f"{path} contains negative values; these are not "
            "exponential-margin data (use --rank-transform for raw data)"
        )
    return ExponentialSample(raw)


def _parse_range(path, start, stop, ncols):
    """The rows in bytes [start, stop) of ``path`` as an (n, ncols) array, or
    None where ``np.loadtxt`` does not take them cleanly.

    The range is read here, so no process holds the whole body. Its lines
    end as in the text view of the file: at LF, CR LF or a bare CR.
    """
    with open(path, "rb") as fh:
        fh.seek(start)
        chunk = fh.read(stop - start)
    if re.fullmatch(rb"[\r\n]*", chunk):
        # blank lines only are no rows; an empty body is the row loop's error
        # (the match stops at the first other byte and copies nothing)
        return np.empty((0, ncols))
    if not chunk.isascii():
        return None
    text = io.TextIOWrapper(io.BytesIO(chunk), encoding="ascii", newline="")
    try:
        data = np.loadtxt(text, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except ValueError:
        return None
    if data.shape[1] != ncols or not np.isfinite(data).all():
        return None
    return data


def _records(fh, path):
    """(line, fields) for each CSV record of the text file ``fh``, where line
    is the file line the record ends on: a quoted field may span lines.
    Bytes that do not decode raise DomainError, at their file line where
    ``fh`` can seek back (a pipe cannot), and so does a record the csv
    module refuses, such as a field over its length limit, at the line it
    stopped on."""
    reader = csv.reader(fh)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise DomainError(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        where = ""
        if fh.seekable():
            # the text view decodes a chunk at a time, and exc.object is the
            # chunk that ends at the buffer's position
            offset = fh.buffer.tell() - len(exc.object) + exc.start
            fh.buffer.seek(0)
            head = fh.buffer.read(offset)
            ends = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
            where = f"{ends + 1}:"
        bad = exc.object[exc.start:exc.end]
        raise DomainError(f"{path}:{where} cannot decode {bad!r} as {exc.encoding}") from None


def _read_header(records, path):
    """The file line the first record ends on and its field count, 2 or 3."""
    try:
        line, header = next(records)
    except StopIteration:
        raise DomainError(f"{path}: empty file") from None
    if len(header) not in (2, 3):
        raise DomainError(f"{path}: expected 2 or 3 columns, found {len(header)}")
    return line, len(header)


def _read_raw_csv_rows(path) -> np.ndarray:
    """Row-by-row reader behind :func:`read_raw_csv`, with the same result;
    raises on the first bad line with its ``path:line`` location."""
    with open(path, newline="") as fh:
        records = _records(fh, path)
        _, ncols = _read_header(records, path)
        rows = []
        for lineno, row in records:
            if not row:
                continue
            if len(row) != ncols:
                raise DomainError(
                    f"{path}:{lineno}: expected {ncols} fields, got {len(row)}"
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
    return np.asarray(rows, dtype=np.float64)


def write_csv(path, points, names) -> None:
    """Write points to CSV with a header row, full float precision."""
    arr = np.asarray(points, dtype=np.float64)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        # the writer formats a Python float by repr()
        writer.writerows(arr.tolist())
