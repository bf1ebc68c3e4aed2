import csv
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raytail import margins
from raytail.errors import DomainError
from raytail.margins import (
    ExponentialSample,
    rank_transform,
    read_raw_csv,
    write_csv,
)


def test_rank_transform_single_margin_values():
    out = rank_transform(np.array([[5.0, 0.0], [1.0, 0.0], [3.0, 0.0]]))
    expected = [-math.log(1 / 4), -math.log(3 / 4), -math.log(2 / 4)]
    assert np.allclose(out.x, expected, rtol=1e-15)


def _brute_force_ranks(col):
    # independent oracle: stable sort on (-value, index) pairs
    order = sorted(range(len(col)), key=lambda i: (-col[i], i))
    ranks = [0] * len(col)
    for pos, idx in enumerate(order):
        ranks[idx] = pos + 1
    return ranks


def test_rank_transform_ties_broken_by_input_index():
    col = np.array([2.0, 2.0, 2.0])
    out = rank_transform(np.column_stack((col, col)))
    n = 3
    expected = [-math.log(r / (n + 1)) for r in _brute_force_ranks(col)]
    assert np.allclose(out.points[:, 0], expected, rtol=1e-15)


def test_rank_transform_matches_brute_force_with_ties():
    rng = np.random.default_rng(7)
    col = rng.integers(0, 5, size=40).astype(float)  # many ties
    out = rank_transform(col.reshape(-1, 1) * np.ones((1, 2)))
    n = col.size
    expected = [-math.log(r / (n + 1)) for r in _brute_force_ranks(col)]
    assert np.allclose(out.points[:, 0], expected, rtol=1e-15)
    assert np.allclose(out.points[:, 1], expected, rtol=1e-15)


def test_rank_transform_margins_are_exact_grid_permutation():
    rng = np.random.default_rng(3)
    out = rank_transform(rng.normal(size=(257, 2)))
    n = 257
    grid = np.sort(-np.log(np.arange(1, n + 1) / (n + 1.0)))
    for j in range(2):
        assert np.array_equal(np.sort(out.points[:, j]), grid)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(-20_000, 20_000), min_size=2, max_size=60),
    st.sampled_from(["exp", "affine", "cube"]),
)
def test_rank_transform_invariant_under_increasing_maps(grid_values, kind):
    # dyadic inputs keep all three maps exactly order-preserving in floats
    col = np.array(grid_values, dtype=np.float64) / 16.0
    mats = np.column_stack((col, -col))
    if kind == "exp":
        transformed = np.column_stack((np.exp(col / 25.0), -col))
    elif kind == "affine":
        transformed = np.column_stack((3.0 * col + 7.0, -col))
    else:
        transformed = np.column_stack((col**3, -col))
    a = rank_transform(mats).points
    b = rank_transform(transformed).points
    assert np.array_equal(a, b)


def test_rank_transform_rejects_nan():
    with pytest.raises(DomainError, match="NaN"):
        rank_transform(np.array([[1.0, 2.0], [np.nan, 3.0]]))


def _stable_rank_reference(arr):
    n = arr.shape[0]
    grid = -np.log(np.arange(1, n + 1) / (n + 1.0))
    out = np.empty_like(arr)
    for j in range(arr.shape[1]):
        ranks = np.empty(n, dtype=np.intp)
        ranks[np.argsort(-arr[:, j], kind="stable")] = np.arange(n)
        out[:, j] = grid[ranks]
    return out


def test_rank_transform_bitwise_equal_to_stable_sort_reference():
    rng = np.random.default_rng(11)
    arr = rng.normal(size=(100_000, 2))
    assert all(np.unique(col).size == col.size for col in arr.T)  # no ties
    assert rank_transform(arr).points.tobytes() == _stable_rank_reference(arr).tobytes()

    # a few tied groups in one column send that column to the stable sort
    tied = arr.copy()
    for value in (0.0, 1.5, -2.25):
        tied[rng.choice(tied.shape[0], size=40, replace=False), 1] = value
    out = rank_transform(tied).points
    assert out.tobytes() == _stable_rank_reference(tied).tobytes()


def _record_maps(monkeypatch):
    # the calls of every pool map, such as the byte ranges read_raw_csv
    # hands to the pool, passed through
    seen = []
    pool_map = margins._pool.map

    def recording_map(fn, *iterables):
        seen.append(list(zip(*iterables)))
        return pool_map(fn, *iterables)

    monkeypatch.setattr(margins._pool, "map", recording_map)
    return seen


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3])
def test_pooled_rank_transform_is_bitwise_the_stable_reference(monkeypatch, threads, d):
    # columns of 2^18 rows (2 MiB each) go to the pool, one per process
    monkeypatch.setenv("RAYTAIL_THREADS", str(threads))
    seen = _record_maps(monkeypatch)
    rng = np.random.default_rng(27)
    arr = rng.normal(size=(1 << 18, d))
    for value in (0.0, 1.5, -2.25):
        arr[rng.choice(arr.shape[0], size=40, replace=False), 1] = value
    out = rank_transform(arr).points
    assert out.tobytes() == _stable_rank_reference(arr).tobytes()
    assert out.flags.c_contiguous
    assert [len(calls) for calls in seen] == [d]

    arr[5, 1] = arr[9, 0] = np.nan
    with pytest.raises(DomainError, match=r"^NaN at row 5, column 1$"):
        rank_transform(arr)


def test_a_short_column_ranks_in_the_caller(monkeypatch):
    monkeypatch.setenv("RAYTAIL_THREADS", "2")
    seen = _record_maps(monkeypatch)
    arr = np.random.default_rng(5).normal(size=(margins._PART_BYTES // 8 - 1, 2))
    assert rank_transform(arr).points.tobytes() == _stable_rank_reference(arr).tobytes()
    assert seen == []


@pytest.mark.parametrize("shape", [(1000, 1), (1000, 4), (1 << 18, 4)])
def test_rank_transform_checks_the_column_count_before_it_sorts(monkeypatch, shape):
    monkeypatch.setattr(margins, "_rank_column", None)
    with pytest.raises(DomainError) as excinfo:
        rank_transform(np.ones(shape))
    assert str(excinfo.value) == f"exponential sample must have shape (n, 2|3), got {shape}"


def test_rank_transform_of_no_rows_and_of_one_dimension():
    empty = rank_transform(np.empty((0, 2)))
    assert empty.points.shape == (0, 2)
    with pytest.raises(DomainError, match=r"^expected 2-d array, got shape \(3,\)$"):
        rank_transform(np.ones(3))


def test_exponential_sample_validation():
    with pytest.raises(DomainError, match=">= 0"):
        ExponentialSample(np.array([[1.0, -0.1]]))


def test_csv_round_trip(tmp_path):
    path = tmp_path / "sample.csv"
    pts = np.array([[0.5, 1.25], [2.0, 0.125]])
    write_csv(path, pts, ("x", "y"))
    raw = read_raw_csv(path)
    assert raw.dtype == np.float64 and raw.flags.c_contiguous
    assert np.array_equal(raw, pts)


def test_csv_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("a,b,c,d\n1,2,3,4\n")
    with pytest.raises(DomainError, match="2 or 3 columns"):
        read_raw_csv(path)


def _csv_float_reference(path):
    # the plain csv + float() reading every fast path must reproduce
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [[float(v) for v in row] for row in reader if row]
    return np.asarray(rows, dtype=np.float64)


def _repr_float_body():
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(600) * 10.0 ** rng.integers(-300, 300, size=600)
    vals[:6] = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                -0.0, 0.1, 1.0 / 3.0]
    return "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in vals.reshape(-1, 2))


@pytest.mark.parametrize(
    "text",
    [
        "x,y\n" + _repr_float_body(),
        "x,y\n1e5,2E-3\n1.5e+2,-7\n",
        "x,y\n 1.5,2.5 \n3, 4\n",
        "x,y\n+1.5,-1.5\n.5,-.5\n",
        "x,y\n4.9e-325,1\n2,3\n",
        "x,y\n1_0,2\n3,4_5\n",
        'x,y\n"1.5",2\n3,"4"\n',
        "x,y\r\n1.25,2\r\n3,4.5\r\n",
        "x,y\n1,2\n\n3,4\n\n\n5,6\n",
        "x,y\n0.25,8\n",
        "a,b,c\n1,2,3\n",
    ],
    ids=[
        "repr-floats", "exponents", "spaces", "signs-leading-dot", "subnormal",
        "underscore", "quoted", "crlf", "blank-lines", "single-row", "three-columns",
    ],
)
def test_read_raw_csv_matches_csv_float_reference(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    expected = _csv_float_reference(path)
    raw = read_raw_csv(path)
    assert raw.dtype == np.float64 and raw.flags.c_contiguous
    assert raw.shape == expected.shape
    assert raw.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "text, message",
    [
        ("x,y\n1,2\n3,4,5\n", "{path}:3: expected 2 fields, got 3"),
        ("x,y\n1,2\n3\n5,6\n", "{path}:3: expected 2 fields, got 1"),
        ("x,y,z\n1,2\n3,4\n", "{path}:2: expected 3 fields, got 2"),
        ("x,y\n1,2\n3,abc\n", "{path}:3: could not convert string to float: 'abc'"),
        ("x,y\n1,2,\n", "{path}:2: expected 2 fields, got 3"),
        ("x,y\n# note\n1,2\n", "{path}:2: expected 2 fields, got 1"),
        ("", "{path}: empty file"),
        ("x,y\n", "{path}: no data rows"),
        ('x,"y\nz"\n1,2\n3,4,5\n', "{path}:4: expected 2 fields, got 3"),
        ('x,y\n1,2\n"' + "1" * 200_000 + '",2\n',
         "{path}:3: field larger than field limit (131072)"),
    ],
    ids=[
        "too-many-fields", "too-few-fields", "header-wider-than-rows",
        "non-numeric", "trailing-comma", "comment-line", "empty-file", "header-only",
        "multi-line-header", "field-over-csv-limit",
    ],
)
def test_read_raw_csv_error_messages(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DomainError) as excinfo:
        read_raw_csv(path)
    assert str(excinfo.value) == message.format(path=path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
def test_read_raw_csv_reports_non_finite_value_by_file_line(tmp_path, token):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"x,y\n1,2\n\n3,4\n5,{token}\n")
    with pytest.raises(DomainError) as excinfo:
        read_raw_csv(path)
    assert str(excinfo.value) == f"{path}:5: non-finite value in column 1"


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "data, line",
    [
        (b"x,y\n\xff1,2\n", 2),
        (b"x,y\n1,2\n\xff,3\n", 3),
        # past the text view's first 8192-byte chunk, which ends on a bare CR
        # that the reader has not yet passed
        (b"x,y\r" + b"1,2\r" * 4000 + b"\xff,3\r", 4002),
    ],
    ids=["line-2", "line-3", "past-a-chunk-ending-in-cr"],
)
def test_a_byte_that_does_not_decode_names_its_file_line(tmp_path, monkeypatch, threads, data, line):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    monkeypatch.setenv("RAYTAIL_THREADS", str(threads))
    monkeypatch.setattr(margins, "_PART_BYTES", 1)
    with pytest.raises(DomainError) as excinfo:
        read_raw_csv(path)
    assert str(excinfo.value).startswith(f"{path}:{line}: cannot decode b'\\xff' as ")


def _read_outcome(read, path):
    # the value a reader returns, or the class and message of what it raises
    try:
        raw = read(path)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return raw.dtype.str, raw.flags.c_contiguous, raw.shape, raw.tobytes()


_HEADERS = [
    ("x,y", 2), ("a,b,c", 3), ('"x","y"', 2), ("\u00e9,\u00fc", 2),
    ('x,"y\nz"', 2), ('x,"y\rz"', 2), ('x,"y\r\nz"', 2),
]
_CLEAN_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
)
_ODD_TOKENS = st.sampled_from(
    ["1_0", " 2.5", "3 ", "", "abc", "1e400", "nan", "-inf", "\u0661", "\u00e91",
     '"4"', "+.5", "\x0c", "1,2"]
)


@st.composite
def _csv_texts(draw):
    header, ncols = draw(st.sampled_from(_HEADERS))
    tokens = st.one_of(_CLEAN_TOKENS, _ODD_TOKENS) if draw(st.booleans()) else _CLEAN_TOKENS
    row = st.lists(tokens, min_size=ncols, max_size=ncols).map(",".join)
    lines = [header] + draw(st.lists(st.one_of(row, row, st.just("")), max_size=30))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text[: -len(ends[-1])]


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@settings(max_examples=60, deadline=None)
@given(text=_csv_texts(), part_bytes=st.integers(1, 64))
def test_read_raw_csv_in_ranges_matches_the_row_loop(tmp_path_factory, threads, text, part_bytes):
    # small parts cut the body into one range per worker, at every kind of
    # line ending and blank line; the reader must give the row loop's value
    # or raise its exact message
    path = tmp_path_factory.mktemp("ranges") / "in.csv"
    path.write_bytes(text.encode())
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("RAYTAIL_THREADS", threads)
        mp.setattr(margins, "_PART_BYTES", part_bytes)
        got = _read_outcome(read_raw_csv, path)
    assert got == _read_outcome(margins._read_raw_csv_rows, path)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_a_header_with_a_quoted_carriage_return_keeps_the_first_row(tmp_path, monkeypatch, threads):
    # csv counts two lines for this header, the binary view one: the reader
    # must not skip a row by mixing the two
    path = tmp_path / "cr.csv"
    path.write_bytes(b'x,"y\rz"\n1,2\n3,4\n')
    monkeypatch.setenv("RAYTAIL_THREADS", str(threads))
    monkeypatch.setattr(margins, "_PART_BYTES", 1)
    assert read_raw_csv(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_a_bad_row_in_the_last_range_names_its_file_line(tmp_path, monkeypatch, threads):
    path = tmp_path / "bad_end.csv"
    rows = [f"{i}.5,{-i}" for i in range(40)]
    rows[20:20] = ["", "\r"]  # blank lines move file lines away from rows
    path.write_bytes(("x,y\r\n" + "\n".join(rows) + "\n7,abc\n").encode())
    monkeypatch.setenv("RAYTAIL_THREADS", str(threads))
    monkeypatch.setattr(margins, "_PART_BYTES", 16)
    seen = _record_maps(monkeypatch)
    with pytest.raises(DomainError) as excinfo:
        read_raw_csv(path)
    assert str(excinfo.value) == f"{path}:44: could not convert string to float: 'abc'"
    # one range per worker, end to end, each starting just after a newline
    data = path.read_bytes()
    _, starts, stops, _ = zip(*seen[0])
    assert len(starts) == threads
    assert list(stops) == [*starts[1:], len(data)]
    assert all(data[start - 1:start] == b"\n" for start in starts)

    # the same file without the bad row parses in the same ranges, without
    # the row loop
    path.write_bytes(("x,y\r\n" + "\n".join(rows) + "\n").encode())
    expected = margins._read_raw_csv_rows(path).tobytes()
    monkeypatch.setattr(margins, "_read_raw_csv_rows", None)
    raw = read_raw_csv(path)
    assert raw.tobytes() == expected
    assert raw.shape == (40, 2)
    assert len(seen[1]) == threads


def test_read_raw_csv_from_a_pipe(tmp_path):
    fifo = tmp_path / "in.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=("x,y\n1.5,2\n3,4\n",))
    writer.start()
    try:
        raw = read_raw_csv(fifo)
    finally:
        writer.join()
    assert raw.tolist() == [[1.5, 2.0], [3.0, 4.0]]


def test_a_byte_that_does_not_decode_in_a_pipe_names_the_pipe(tmp_path):
    # a pipe cannot be read back to count the lines before the byte
    fifo = tmp_path / "in.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(b"x,y\n1,2\n\xff,3\n",))
    writer.start()
    try:
        with pytest.raises(DomainError) as excinfo:
            read_raw_csv(fifo)
    finally:
        writer.join()
    assert str(excinfo.value).startswith(f"{fifo}: cannot decode b'\\xff' as ")


def test_write_csv_bytes(tmp_path):
    pts = np.array([
        [-0.0, 5e-324],
        [2.2250738585072014e-308, 1e308],
        [1.7976931348623157e308, -2.5e-310],
        [0.1, -1.0 / 3.0],
        [1.0, 123456789.0],
    ])
    path = tmp_path / "out.csv"
    write_csv(path, pts, ("x", "y"))
    # reference: the csv writer fed repr() of every value as a Python float
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("x", "y"))
        for row in pts:
            writer.writerow([repr(float(v)) for v in row])
    assert path.read_bytes() == ref.read_bytes()
    assert path.read_bytes().startswith(b"x,y\r\n-0.0,5e-324\r\n")
