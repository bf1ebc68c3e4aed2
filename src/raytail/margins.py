"""Marginal transforms onto the standard exponential scale.

All estimation in this package operates on coordinates whose margins are
standard exponential, so that P(X_E > x) = exp(-x) per component and joint
tail events live in the positive quadrant (or octant). This module holds
the container types, the CSV reader and writer, and the one route onto that
scale: the empirical rank transform of raw data.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

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


def read_raw_csv(path) -> RawSample:
    """Read a raw sample from CSV: header row of names, float rows.

    The body is parsed in one pass by ``np.loadtxt``. Anything it does not
    take cleanly (a parse error, no data rows, a column count that differs
    from the header, a non-finite value) is re-read by the row loop, which
    accepts every field ``float()`` accepts and words every error message.
    Where both parse a file they give bitwise the same values.
    """
    with open(path, newline="") as fh:
        header = _read_header(csv.reader(fh), path)
        try:
            with warnings.catch_warnings():
                # loadtxt warns on an empty body; the row loop reports it
                warnings.simplefilter("error", UserWarning)
                data = np.loadtxt(
                    fh, delimiter=",", comments=None, ndmin=2, dtype=np.float64
                )
        except (ValueError, UserWarning):
            data = None
    if data is None or data.shape[1] != len(header) or not np.isfinite(data).all():
        return _read_raw_csv_rows(path)
    return RawSample(data, tuple(header))


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
        for row in arr:
            writer.writerow([repr(float(v)) for v in row])
