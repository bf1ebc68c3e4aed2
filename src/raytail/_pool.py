"""The package's one process pool.

Replication studies and the CSV reader run their calls here. The
environment variable RAYTAIL_THREADS sets how many processes share a map,
the caller included (default: the usable cores). A map of n calls splits
them into p = min(RAYTAIL_THREADS, n) contiguous chunks: the caller runs
the first chunk itself while p - 1 forked workers run the others. Workers
are forked when a map first needs them and reused by every later map, so
each worker sees module state as of the map that forked it. A platform
that cannot fork, or p <= 1, runs the calls serially in the caller.

A worker talks to the caller over two pipes, one each way, and each
message is one pickle, read by ``pickle.load``. A worker sends back the
error of a request it cannot rebuild, as of a chunk that raises, and a
typed error reaches the caller with its own class. A worker exits at end
of file on its request pipe, so none outlives a caller that dies. The
caller kills and reaps its workers at exit.
"""

from __future__ import annotations

import _thread
import atexit
import os
import pickle

_workers = []  # (pid, request fd, reply fd) per worker, in fork order
# Held by the map that is running. A map that finds it held (one nested in
# the caller's chunk, or one in another thread) runs serially. Workers are
# forked only while it is held, so in every worker it stays held and a map
# there runs serially too.
_busy = _thread.allocate_lock()


class _RemoteTraceback(Exception):
    """The traceback text of an exception raised in a worker, set as that
    exception's ``__cause__`` in the caller."""

    def __str__(self):
        return "\n" + self.args[0]


def _process_count() -> int:
    raw = os.environ.get("RAYTAIL_THREADS")
    if raw is None:
        # the usable cores; all cores where the platform cannot say
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def map(fn, *iterables) -> list:
    """``[fn(*args) for args in zip(*iterables)]``, in input order.

    An exception raised by a call is re-raised here; where calls in several
    chunks raise, it is that of the earliest in input order. One raised in
    a worker carries the worker's traceback text as its ``__cause__``. If a
    worker dies, the map raises ``BrokenProcessPool``. Any exception that
    leaves the map kills and reaps every worker first, and the next map
    forks fresh ones.
    """
    calls = list(zip(*iterables))
    p = min(_process_count(), len(calls))
    if p <= 1 or not hasattr(os, "fork") or not _busy.acquire(blocking=False):
        return [fn(*args) for args in calls]
    try:
        # the caller's chunk is the first and never the longest
        cuts = [len(calls) * i // p for i in range(p + 1)]
        while len(_workers) < p - 1:
            _fork()
        for (_, request, _), lo, hi in zip(_workers, cuts[1:], cuts[2:]):
            _send(request, pickle.dumps((fn, calls[lo:hi]), pickle.HIGHEST_PROTOCOL))
        out = [fn(*args) for args in calls[: cuts[1]]]
        for _, _, reply in _workers[: p - 1]:
            ok, value, text = _receive(reply)
            if not ok:
                raise value from _RemoteTraceback(text)
            out += value
        return out
    except BaseException:
        _drop()
        raise
    finally:
        _busy.release()


def _fork():
    fds = request_r, request_w, reply_r, reply_w = os.pipe() + os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        for fd in fds:
            os.close(fd)
        raise
    if pid == 0:
        # _forget has closed the other workers' pipe ends
        try:
            os.close(request_w)
            os.close(reply_r)
            _serve(open(request_r, "rb"), reply_w)
        finally:
            os._exit(1)
    os.close(request_r)
    os.close(reply_w)
    _workers.append((pid, request_w, reply_r))


def _serve(request, reply):
    """A worker's loop: run each chunk it receives and send back its results
    or the first exception, until the caller closes the request pipe."""
    while request.peek(1):
        try:
            fn, calls = pickle.load(request)
            answer = (True, [fn(*args) for args in calls], None)
            data = pickle.dumps(answer, pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # the caller re-raises it
            import traceback

            text = traceback.format_exc()
            try:
                data = pickle.dumps((False, exc, text), pickle.HIGHEST_PROTOCOL)
                pickle.loads(data)  # the caller must be able to rebuild it
            except Exception as err:
                data = pickle.dumps((False, err, text), pickle.HIGHEST_PROTOCOL)
        _send(reply, data)
    os._exit(0)


def _send(fd, data):
    # raw writes: closing a BufferedWriter after a BrokenPipeError raises again
    view = memoryview(data)
    try:
        while view:
            view = view[os.write(fd, view):]
    except BrokenPipeError:
        raise _broken() from None


def _receive(fd):
    # a reader per reply loses no bytes, as one reply at a time is in flight,
    # and leaves _forget only fds to close, which no waiting map has locked
    try:
        return pickle.load(open(fd, "rb", closefd=False))
    except (EOFError, pickle.UnpicklingError):
        raise _broken() from None


def _broken():
    from concurrent.futures.process import BrokenProcessPool

    return BrokenProcessPool("a worker of the process pool terminated abruptly")


@atexit.register
def _drop():
    """Kill and reap every worker; the next map forks fresh ones."""
    import signal

    pids = [pid for pid, _, _ in _workers]
    _forget()
    for pid in pids:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _forget():
    # a forked child owns none of its parent's workers; closing its copies
    # of their pipe ends lets a worker see end of file when the caller dies
    while _workers:
        _, request, reply = _workers.pop()
        os.close(request)
        os.close(reply)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)
