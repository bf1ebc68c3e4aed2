import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raytail.errors import DomainError
from raytail.margins import (
    ExponentialSample,
    RawSample,
    rank_transform,
    read_raw_csv,
    write_csv,
)


def test_rank_transform_single_margin_values():
    out = rank_transform(np.array([[5.0, 0.0], [1.0, 0.0], [3.0, 0.0]]))
    expected = [-math.log(1 / 4), -math.log(3 / 4), -math.log(2 / 4)]
    assert np.allclose(out.x, expected, rtol=1e-15)
    assert out.provenance == "rank-transform"


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


def test_raw_sample_validation():
    with pytest.raises(DomainError, match="2 or 3 columns"):
        RawSample(np.ones((4, 4)))
    with pytest.raises(DomainError, match="non-finite"):
        RawSample(np.array([[1.0, np.inf], [0.0, 1.0]]))


def test_exponential_sample_validation():
    with pytest.raises(DomainError, match=">= 0"):
        ExponentialSample(np.array([[1.0, -0.1]]))
    with pytest.raises(DomainError, match="provenance"):
        ExponentialSample(np.array([[1.0, 1.0]]), provenance="guessed")


def test_csv_round_trip(tmp_path):
    path = tmp_path / "sample.csv"
    pts = np.array([[0.5, 1.25], [2.0, 0.125]])
    write_csv(path, pts, ("x", "y"))
    raw = read_raw_csv(path)
    assert raw.names == ("x", "y")
    assert np.array_equal(raw.data, pts)


def test_csv_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("a,b,c,d\n1,2,3,4\n")
    with pytest.raises(DomainError, match="2 or 3 columns"):
        read_raw_csv(path)


def _csv_float_reference(path):
    # the plain csv + float() reading every fast path must reproduce
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader if row]
    return tuple(header), np.asarray(rows, dtype=np.float64)


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
    names, expected = _csv_float_reference(path)
    raw = read_raw_csv(path)
    assert raw.names == names
    assert raw.data.shape == expected.shape
    assert raw.data.tobytes() == expected.tobytes()


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
    ],
    ids=[
        "too-many-fields", "too-few-fields", "header-wider-than-rows",
        "non-numeric", "trailing-comma", "comment-line", "empty-file", "header-only",
        "multi-line-header",
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
