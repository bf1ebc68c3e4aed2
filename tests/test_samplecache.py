import os
import threading

import numpy as np
import pytest

from raytail import _pool, _samplecache, cli, copulas, margins

COMMANDS = {
    "lambda": ["estimate", "lambda", "--omega", "0.35", "--frac", "0.2"],
    "wt": ["estimate", "prob", "--method", "wt", "--x", "3", "--y", "7"],
    "lt": ["estimate", "prob", "--method", "lt", "--x", "3", "--y", "7"],
    "ht": ["estimate", "prob", "--method", "ht", "--x", "3", "--y", "7", "--r", "2000"],
    "diagnose": ["diagnose", "--omega", "0.5", "--c-grid", "0:2:0.5"],
}


def _write_sample(path, n, seed):
    sample = copulas.BivariateNormal(0.5).sample(n, seed)
    margins.write_csv(path, sample.points, ("x", "y"))
    return path


@pytest.fixture(scope="module")
def big_csv(tmp_path_factory):
    # just over one reader part, so it is cached at the default threshold
    path = _write_sample(tmp_path_factory.mktemp("data") / "big.csv", 30_000, 3)
    assert os.path.getsize(path) >= margins._PART_BYTES
    return path


def _cache_dir():
    return os.path.join(os.environ["XDG_CACHE_HOME"], "raytail")


def _entries():
    directory = _cache_dir()
    return sorted(os.listdir(directory)) if os.path.isdir(directory) else []


def _run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def reads(monkeypatch):
    """The paths read_raw_csv is called on, in order."""
    seen = []
    original = margins.read_raw_csv

    def spy(path):
        seen.append(str(path))
        return original(path)

    monkeypatch.setattr(margins, "read_raw_csv", spy)
    return seen


@pytest.mark.parametrize("rank", [False, True], ids=["exp", "rank"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_miss_and_hit_print_the_bytes_of_an_uncached_call(
    big_csv, tmp_path, monkeypatch, capsys, reads, command, rank
):
    argv = COMMANDS[command] + ["--input", str(big_csv)] + ["--rank-transform"] * rank
    # a cache home that is a regular file: the call parses, as without a cache
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    with monkeypatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(not_a_dir))
        uncached = _run(argv, capsys)
    assert uncached[0] == 0 and uncached[2] == ""
    miss = _run(argv, capsys)
    assert len(_entries()) == 1
    hit = _run(argv, capsys)
    assert miss == hit == uncached
    assert reads == [str(big_csv)] * 2


def test_a_hit_reads_no_csv_and_forks_no_worker(big_csv, monkeypatch, capsys):
    argv = COMMANDS["wt"] + ["--input", str(big_csv), "--rank-transform"]
    monkeypatch.setenv("RAYTAIL_THREADS", "2")
    miss = _run(argv, capsys)

    def refuse(*_args, **_kwargs):
        raise AssertionError("a cache hit must not parse, rank or use the pool")

    for owner, name in ((margins, "read_raw_csv"), (margins, "rank_transform"),
                        (_pool, "map"), (_pool, "_fork")):
        monkeypatch.setattr(owner, name, refuse)
    assert _run(argv, capsys) == miss


def test_the_kinds_have_their_own_entries(big_csv, capsys, reads):
    argv = COMMANDS["lambda"] + ["--input", str(big_csv)]
    for extra in ([], ["--rank-transform"], [], ["--rank-transform"]):
        assert _run(argv + extra, capsys)[0] == 0
    assert len(_entries()) == 2
    assert len(reads) == 2


def test_a_same_size_edit_misses(tmp_path, capsys, reads):
    path = _write_sample(tmp_path / "s.csv", 30_000, 4)
    argv = COMMANDS["lambda"] + ["--input", str(path)]
    before = _run(argv, capsys)
    st = os.stat(path)
    data = bytearray(path.read_bytes())
    # the first digit after the decimal point of the first value
    at = data.index(b".", data.index(b"\n")) + 1
    data[at] = ord("1") if data[at] != ord("1") else ord("2")
    path.write_bytes(bytes(data))
    # the same size and mtime: only the bytes tell the files apart
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert os.stat(path).st_size == st.st_size
    after = _run(argv, capsys)
    assert reads == [str(path)] * 2
    assert before[0] == after[0] == 0
    # the new entry holds the edited value
    old, new = (np.load(os.path.join(_cache_dir(), e)) for e in _entries())
    assert np.count_nonzero(old != new) == 1
    assert _run(argv, capsys) == after
    assert len(reads) == 2


def _save_npz(path, arr):
    with open(path, "wb") as fh:
        np.savez(fh, a=arr)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda p, a: p.write_bytes(p.read_bytes()[: len(p.read_bytes()) // 2]),
        lambda p, a: p.write_bytes(p.read_bytes()[:40]),
        lambda p, a: p.write_bytes(b""),
        lambda p, a: p.write_bytes(b"not an array"),
        lambda p, a: np.save(p, a.astype(np.float32)),
        lambda p, a: np.save(p, a.astype(">f8")),
        lambda p, a: np.save(p, np.asfortranarray(a)),
        lambda p, a: np.save(p, a.reshape(-1, 4)),
        lambda p, a: np.save(p, a[:0]),
        lambda p, a: np.save(p, np.where(np.arange(len(a))[:, None] == 7, np.nan, a)),
        lambda p, a: np.save(p, -a),
        lambda p, a: np.save(p, np.array([{"a": 1}], dtype=object)),
        _save_npz,
    ],
    ids=["half", "header-only", "empty", "foreign-bytes", "float32", "big-endian",
         "fortran", "four-columns", "no-rows", "nan", "negative", "pickle", "npz"],
)
def test_a_bad_entry_is_a_miss_and_is_replaced(big_csv, capsys, reads, corrupt):
    argv = COMMANDS["lt"] + ["--input", str(big_csv)]
    miss = _run(argv, capsys)
    (name,) = _entries()
    entry = os.path.join(_cache_dir(), name)
    good = np.load(entry)
    corrupt(type(big_csv)(entry), good)
    assert _run(argv, capsys) == miss
    assert reads == [str(big_csv)] * 2
    assert _entries() == [name]
    assert np.load(entry).tobytes() == good.tobytes()
    assert _run(argv, capsys) == miss
    assert len(reads) == 2


@pytest.mark.parametrize("edit", ["source", "numpy"])
def test_another_reader_or_numpy_misses(big_csv, monkeypatch, tmp_path, capsys, reads, edit):
    argv = COMMANDS["lambda"] + ["--input", str(big_csv), "--rank-transform"]
    miss = _run(argv, capsys)
    if edit == "source":
        edited = tmp_path / "margins.py"
        with open(margins.__file__, "rb") as fh:
            edited.write_bytes(fh.read() + b"\n")
        monkeypatch.setattr(margins, "__file__", str(edited))
    else:
        monkeypatch.setattr(np, "__version__", np.__version__ + "+other")
    assert _run(argv, capsys) == miss
    assert len(reads) == 2
    assert len(_entries()) == 2


def test_a_cache_home_that_is_a_file_still_exits_0(big_csv, tmp_path, monkeypatch, capsys, reads):
    argv = COMMANDS["wt"] + ["--input", str(big_csv)]
    cached = _run(argv, capsys)
    home = tmp_path / "home"
    home.write_text("a file, not a directory\n")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    for _ in range(2):
        assert _run(argv, capsys) == cached
    assert len(reads) == 3
    assert home.read_text() == "a file, not a directory\n"


@pytest.mark.parametrize("mode", [0o770, 0o702])
def test_a_directory_others_can_write_is_not_used(big_csv, capsys, reads, mode):
    os.makedirs(_cache_dir())
    os.chmod(_cache_dir(), mode)
    argv = COMMANDS["wt"] + ["--input", str(big_csv)]
    first = _run(argv, capsys)
    assert first[0] == 0
    assert _run(argv, capsys) == first
    assert _entries() == []
    assert len(reads) == 2


def test_a_directory_of_another_user_is_not_used(big_csv, monkeypatch, capsys, reads):
    os.makedirs(_cache_dir(), mode=0o700)
    uid = os.getuid()
    monkeypatch.setattr(_samplecache.os, "getuid", lambda: uid + 1)
    argv = COMMANDS["wt"] + ["--input", str(big_csv)]
    first = _run(argv, capsys)
    assert first[0] == 0
    assert _run(argv, capsys) == first
    assert _entries() == []
    assert len(reads) == 2


def test_a_platform_without_getuid_parses_without_a_cache(big_csv, monkeypatch, capsys, reads):
    # Windows has no os.getuid: the owner of the directory cannot be checked
    argv = COMMANDS["wt"] + ["--input", str(big_csv), "--rank-transform"]
    parsed = _run(argv, capsys)
    assert parsed[0] == 0 and parsed[2] == "" and len(_entries()) == 1
    monkeypatch.delattr(_samplecache.os, "getuid")
    for _ in range(2):
        assert _run(argv, capsys) == parsed
    assert len(reads) == 3
    assert len(_entries()) == 1


def test_a_file_that_changes_while_it_is_parsed_is_not_stored(tmp_path, monkeypatch, capsys):
    path = _write_sample(tmp_path / "s.csv", 30_000, 7)
    original = margins.read_raw_csv

    def read_then_touch(p):
        raw = original(p)
        st = os.stat(p)
        os.utime(p, ns=(st.st_atime_ns, st.st_mtime_ns + 1))
        return raw

    monkeypatch.setattr(margins, "read_raw_csv", read_then_touch)
    assert _run(COMMANDS["wt"] + ["--input", str(path)], capsys)[0] == 0
    assert _entries() == []


def test_a_new_cache_directory_is_private(big_csv, capsys):
    assert _run(COMMANDS["wt"] + ["--input", str(big_csv)], capsys)[0] == 0
    assert os.stat(_cache_dir()).st_mode & 0o777 == 0o700


def test_a_pipe_stores_nothing(tmp_path, monkeypatch, capsys):
    # every file is large enough here, so only its kind excludes the pipe
    monkeypatch.setattr(margins, "_PART_BYTES", 0)
    text = _write_sample(tmp_path / "s.csv", 3000, 5).read_text()
    fifo = tmp_path / "in.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,))
    writer.start()
    try:
        code, out, err = _run(COMMANDS["wt"] + ["--input", str(fifo)], capsys)
    finally:
        writer.join()
    assert code == 0 and err == ""
    assert _entries() == []


@pytest.mark.parametrize(
    "tail, extra",
    [("1.5,oops\n", []), ("1.5,2,3\n", ["--rank-transform"]), ("-1.5,2\n", [])],
    ids=["bad-value", "bad-row", "negative"],
)
def test_a_call_that_fails_stores_nothing(big_csv, tmp_path, capsys, tail, extra):
    path = tmp_path / "bad.csv"
    path.write_bytes(big_csv.read_bytes() + tail.encode())
    for _ in range(2):
        code, out, err = _run(COMMANDS["wt"] + ["--input", str(path)] + extra, capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert err.startswith(f"error: {path}")
    assert _entries() == []


def test_a_small_file_is_not_cached(tmp_path, capsys):
    path = _write_sample(tmp_path / "s.csv", 3000, 6)
    assert os.path.getsize(path) < margins._PART_BYTES
    assert _run(COMMANDS["wt"] + ["--input", str(path)], capsys)[0] == 0
    assert _entries() == []


def test_the_byte_cap_holds(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(margins, "_PART_BYTES", 1024)
    paths = [_write_sample(tmp_path / f"s{i}.csv", 2000, 10 + i) for i in range(4)]
    entry_bytes = 2000 * 2 * 8 + 128
    cap = 2 * entry_bytes + entry_bytes // 2
    monkeypatch.setattr(_samplecache, "_CAP_BYTES", cap)

    def run(path):
        before = set(_entries())
        assert _run(COMMANDS["wt"] + ["--input", str(path)], capsys)[0] == 0
        sizes = [os.path.getsize(os.path.join(_cache_dir(), e)) for e in _entries()]
        assert sizes and all(s == entry_bytes for s in sizes)
        assert sum(sizes) <= cap
        return set(_entries()) - before

    def age(name, seconds):
        os.utime(os.path.join(_cache_dir(), name), (seconds, seconds))

    (a,) = run(paths[0])
    age(a, 1000)
    (b,) = run(paths[1])
    age(b, 2000)
    assert run(paths[0]) == set()  # a hit makes a the newest
    (c,) = run(paths[2])
    assert set(_entries()) == {a, c}  # b, the oldest, went
    age(a, 3000)
    age(c, 4000)
    (d,) = run(paths[3])
    assert set(_entries()) == {c, d}
    # a sample over the cap is never stored, and evicts nothing
    monkeypatch.setattr(_samplecache, "_CAP_BYTES", entry_bytes - 1)
    assert run(paths[0]) == set()
    assert set(_entries()) == {c, d}
