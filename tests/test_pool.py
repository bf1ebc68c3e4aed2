import os
import pickle
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

import raytail
from raytail import _pool
from raytail.errors import InsufficientExceedancesError


def _pid(i):
    return os.getpid()


def _fail_at(i, bad):
    if i in bad:
        raise ValueError(f"call {i}")
    return i * i


@pytest.fixture
def fresh_pool(monkeypatch):
    # no worker of an earlier test, and none left for a later one
    _pool._drop()
    yield monkeypatch
    _pool._drop()


def test_forks_one_worker_less_than_the_calls_it_splits(fresh_pool):
    fresh_pool.setenv("RAYTAIL_THREADS", "8")
    pids = _pool.map(_pid, range(3))
    # the caller runs the first call; one worker each runs the others
    assert pids[0] == os.getpid()
    assert sorted(pids[1:]) == sorted(pid for pid, _, _ in _pool._workers)
    assert len(set(pids[1:])) == 2
    # a longer map forks only the missing workers
    pids = _pool.map(_pid, range(5))
    assert len(_pool._workers) == 4 and len(set(pids)) == 5
    assert sorted(pids[1:]) == sorted(pid for pid, _, _ in _pool._workers)


@pytest.mark.parametrize("bad, first", [
    ({0, 3}, 0),  # the caller's chunk and a worker's
    ({1, 4}, 1),  # the caller's last call and the last worker's
    ({3, 5}, 3),  # both workers' chunks
    ({5}, 5),  # the last worker's chunk alone
])
def test_the_earliest_failing_call_raises_and_the_pool_recovers(fresh_pool, bad, first):
    # 6 calls on 3 processes: chunks (0, 1), (2, 3) and (4, 5), the first
    # in the caller
    fresh_pool.setenv("RAYTAIL_THREADS", "3")
    with pytest.raises(ValueError, match=f"^call {first}$") as excinfo:
        _pool.map(_fail_at, range(6), [bad] * 6)
    if first >= 2:
        # raised in a worker: its traceback text is the cause
        assert isinstance(excinfo.value.__cause__, _pool._RemoteTraceback)
        assert f"ValueError: call {first}" in str(excinfo.value.__cause__)
    assert _pool._workers == []
    assert _pool.map(_fail_at, range(6), [set()] * 6) == [i * i for i in range(6)]
    assert len(_pool._workers) == 2


class _TwoArgumentError(Exception):
    # args holds the message only, so the pickle cannot rebuild it
    def __init__(self, count, required):
        super().__init__(f"{count} of {required}")


def _raise_two_argument_error(i):
    if i == 1:
        raise _TwoArgumentError(3, 5)
    return i


def test_an_exception_the_caller_cannot_rebuild_keeps_its_traceback(fresh_pool):
    fresh_pool.setenv("RAYTAIL_THREADS", "2")
    with pytest.raises(TypeError, match="required") as excinfo:
        _pool.map(_raise_two_argument_error, range(2))
    assert "_TwoArgumentError: 3 of 5" in str(excinfo.value.__cause__)
    assert _pool.map(_raise_two_argument_error, [0, 2]) == [0, 2]


def test_an_unpicklable_function_drops_the_pool(fresh_pool):
    fresh_pool.setenv("RAYTAIL_THREADS", "2")
    assert _pool.map(_pid, range(2))[1] != os.getpid()
    with pytest.raises(Exception, match="pickle"):
        _pool.map(lambda i: i, range(2))
    assert _pool._workers == []
    assert _pool.map(_fail_at, range(4), [set()] * 4) == [0, 1, 4, 9]


def test_a_function_defined_after_the_fork_raises_its_attribute_error(fresh_pool):
    # the worker cannot rebuild the request, and sends back why
    fresh_pool.setenv("RAYTAIL_THREADS", "2")
    assert _pool.map(_pid, range(2))[1] != os.getpid()

    def late(i):
        return i

    late.__qualname__ = "_late"
    fresh_pool.setattr(sys.modules[__name__], "_late", late, raising=False)
    with pytest.raises(AttributeError, match="_late"):
        _pool.map(late, range(2))
    assert _pool._workers == []
    assert _pool.map(late, range(2)) == [0, 1]


@pytest.mark.parametrize("end", [0, 1000, -1])
def test_a_reply_cut_short_breaks_the_pool(end):
    # what a worker that dies before or while it replies leaves in its pipe:
    # nothing, half a pickle, or all of one but its stop code
    data = pickle.dumps((True, list(range(1000)), None), pickle.HIGHEST_PROTOCOL)
    assert len(data) > 2000
    r, w = os.pipe()
    try:
        os.write(w, data[:end])
        os.close(w)
        with pytest.raises(BrokenProcessPool):
            _pool._receive(r)
    finally:
        os.close(r)


def _insufficient_from(i, first):
    if i >= first:
        raise InsufficientExceedancesError(i, first)
    return i


def test_a_typed_error_in_a_worker_keeps_its_class(fresh_pool):
    fresh_pool.setenv("RAYTAIL_THREADS", "2")
    # calls 2 and 3 run in the worker
    with pytest.raises(InsufficientExceedancesError) as excinfo:
        _pool.map(_insufficient_from, range(4), [2] * 4)
    assert (excinfo.value.count, excinfo.value.required) == (2, 2)
    assert isinstance(excinfo.value.__cause__, _pool._RemoteTraceback)


def _nested_pids(i):
    return os.getpid(), _pool.map(_pid, range(3))


def test_a_map_inside_a_map_runs_serially(fresh_pool):
    # the inner map must not send to workers that run the outer one's
    # chunks, in the caller or in a worker
    fresh_pool.setenv("RAYTAIL_THREADS", "3")
    results = _pool.map(_nested_pids, range(3))
    assert results[0][0] == os.getpid()
    assert len({pid for pid, _ in results}) == 3
    for pid, inner in results:
        assert inner == [pid] * 3
    assert len(_pool._workers) == 2


def _interrupt_first(i):
    if i == 0:
        raise KeyboardInterrupt
    return i


def test_an_interrupt_in_the_callers_chunk_drops_the_pool(fresh_pool):
    fresh_pool.setenv("RAYTAIL_THREADS", "2")
    with pytest.raises(KeyboardInterrupt):
        _pool.map(_interrupt_first, range(4))
    assert _pool._workers == []
    assert _pool.map(_interrupt_first, range(1, 5)) == [1, 2, 3, 4]


def _env_on_three_processes():
    # a fresh interpreter that imports raytail from this checkout
    src = os.path.dirname(os.path.dirname(raytail.__file__))
    env = dict(os.environ, RAYTAIL_THREADS="3")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_no_worker_outlives_its_interpreter():
    # a pooled study in a fresh interpreter prints its workers' pids; each
    # is reaped before that interpreter exits
    env = _env_on_three_processes()
    code = (
        "from raytail import _pool, bench, copulas\n"
        "cfg = bench.BenchmarkConfig(copulas.InvertedLogistic(0.5), reps=3, m=300)\n"
        "bench.run_benchmark(cfg)\n"
        "print(*(pid for pid, _, _ in _pool._workers))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    pids = [int(p) for p in out.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_a_fork_from_another_thread_while_a_map_waits():
    # the fork's child runs _forget while the map's thread waits for a
    # reply; nothing it closes may be locked by that thread
    env = _env_on_three_processes()
    code = (
        "import os, signal, threading, time\n"
        "from raytail import _pool\n"
        "started = threading.Event()\n"
        "def nap(i):\n"
        "    started.set()\n"
        "    time.sleep(0.5 * i)\n"
        "    return i\n"
        "thread = threading.Thread(target=lambda: print(_pool.map(nap, range(2))))\n"
        "thread.start()\n"
        "started.wait()\n"
        "time.sleep(0.1)\n"
        "child = os.fork()\n"
        "if child == 0:\n"
        "    os._exit(0)\n"
        "deadline = time.monotonic() + 10.0\n"
        "while not os.waitpid(child, os.WNOHANG)[0]:\n"
        "    if time.monotonic() > deadline:\n"
        "        os.kill(child, signal.SIGKILL)\n"
        "        os.waitpid(child, 0)\n"
        "        print('the child hung')\n"
        "        break\n"
        "    time.sleep(0.01)\n"
        "thread.join()\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (out.returncode, out.stdout) == (0, "[0, 1]\n"), out.stderr


def _running(pid):
    # a zombie has exited and waits for its new parent to reap it
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_workers_leave_when_their_caller_dies_unreaped():
    # the caller forks a child of its own after the map and dies without
    # reaping; the child must hold no copy of a worker's request pipe, or
    # that worker would wait for it instead of reading end of file
    env = _env_on_three_processes()
    code = (
        "import os, time\n"
        "from raytail import _pool\n"
        "assert _pool.map(abs, range(-3, 0)) == [3, 2, 1]\n"
        "child = os.fork()\n"
        "if child == 0:\n"
        "    time.sleep(60)\n"
        "    os._exit(0)\n"
        "print(child, *(pid for pid, _, _ in _pool._workers), flush=True)\n"
        "os._exit(0)\n"
    )
    # the first line only: the child and the workers hold the pipe open
    with subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE) as proc:
        child, *workers = (int(p) for p in proc.stdout.readline().split())
        assert proc.wait(timeout=30) == 0
    try:
        assert len(workers) == 2
        deadline = time.monotonic() + 10.0
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not any(map(_running, workers))
        assert _running(child)
    finally:
        os.kill(child, signal.SIGKILL)
