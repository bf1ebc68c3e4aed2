"""The CLI's cache of checked samples, keyed on the bytes of the input file.

A CLI query on a large data file spends most of its time parsing the file
and, with --rank-transform, ranking it. The CLI answers one query per call
(one ray, one corner and method), so a study of one file reads it once per
query. The sample that ``margins.read_sample`` builds from a regular input
file of ``margins._PART_BYTES`` (1 MiB) or more is kept here as one
``.npy`` entry per file content and kind (the values as read, or their rank
scores), so a later query on the same bytes loads it instead of parsing
again.

An entry is named by a sha256 over the input's bytes, the kind, numpy's
version and the bytes of ``margins.py``, which holds ``read_sample``, the
reader and the rank transform: an edited input, another numpy or an edited
reader never finds an old entry. Entries live in ``$XDG_CACHE_HOME/raytail``
(default ``~/.cache/raytail``), a directory made 0700 and used only where
this user owns it and no one else can write to it. Together they are kept
under ``_CAP_BYTES``, the least recently used going first; a hit counts as a
use.
Whatever goes wrong here (a bad or truncated entry, an unusable directory,
a full disk) makes the call a miss and changes nothing that it prints.
"""

from __future__ import annotations

import os
import stat

import numpy as np

from . import margins
from .errors import DomainError

_CAP_BYTES = 512 << 20
_CHUNK = 1 << 20
_NPY_MAGIC = b"\x93NUMPY"


def cached(path, rank) -> margins.ExponentialSample:
    """``margins.read_sample(path, rank)``, or the entry an earlier call
    stored for the same bytes and ``rank``.

    On a miss the sample read is stored only if the file's size, mtime and
    inode did not change between hashing and the end of the read.
    """
    found = _entry(path, rank)
    if found is None:
        return margins.read_sample(path, rank)
    entry, before = found
    sample = _load(entry)
    if sample is not None:
        return sample
    sample = margins.read_sample(path, rank)
    try:
        unchanged = _identity(os.stat(path)) == before
    except OSError:
        unchanged = False
    if unchanged:
        _store(entry, sample.points)
    return sample


def _identity(st):
    return st.st_size, st.st_mtime_ns, st.st_ino


def _entry(path, rank):
    """(entry path, identity of the input) where ``path`` names a regular
    file of at least ``margins._PART_BYTES`` and the cache directory can be
    used, else None. An input that cannot be opened is left to the reader,
    which reports it."""
    try:
        st = os.stat(path)
        if not stat.S_ISREG(st.st_mode) or st.st_size < margins._PART_BYTES:
            return None
        directory = _directory()
        if directory is None:
            return None
        # hashlib takes about 5 ms to import; only a large input pays it
        import hashlib

        content = hashlib.sha256()
        # non-blocking, so a FIFO put in the file's place since the stat
        # cannot block this open
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
        with open(fd, "rb") as fh:
            before = _identity(os.fstat(fd))
            if before != _identity(st):
                return None
            buf = bytearray(_CHUNK)
            view = memoryview(buf)
            while n := fh.readinto(buf):
                content.update(view[:n])
        with open(margins.__file__, "rb") as fh:
            source = hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None
    fields = (content.hexdigest(), "rank" if rank else "raw", np.__version__, source)
    key = hashlib.sha256("\0".join(fields).encode()).hexdigest()
    return os.path.join(directory, f"{key}.npy"), before


def _directory():
    """The cache directory, made if absent, or None where it cannot be used:
    not a directory of its own, not this user's, or writable by others.
    Where ``os`` has no ``getuid`` (Windows) no owner can be checked, and
    the cache is not used."""
    if not hasattr(os, "getuid"):
        return None
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        # the XDG spec ignores a relative path
        base = os.path.join(os.path.expanduser("~"), ".cache")
        if not os.path.isabs(base):
            return None
    directory = os.path.join(base, "raytail")
    try:
        os.makedirs(base, mode=0o700, exist_ok=True)
        try:
            os.mkdir(directory, 0o700)
        except FileExistsError:
            pass
        st = os.lstat(directory)
    except OSError:
        return None
    if (
        not stat.S_ISDIR(st.st_mode)
        or st.st_uid != os.getuid()
        or st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    ):
        return None
    return directory


def _load(entry):
    """The sample stored at ``entry``, or None where there is none or it is
    not what a parse gives: a C-contiguous float64 (n, d) array with n >= 1,
    then ExponentialSample's own checks (d in {2, 3}, every value finite and
    >= 0). A hit marks the entry as just used."""
    try:
        with open(entry, "rb") as fh:
            # np.load opens an archive or a pickle by other magic bytes
            if fh.read(len(_NPY_MAGIC)) != _NPY_MAGIC:
                return None
            fh.seek(0)
            arr = np.load(fh, allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    if (
        arr.dtype != np.float64
        or not arr.flags.c_contiguous
        or arr.ndim != 2
        or arr.shape[0] < 1
    ):
        return None
    try:
        sample = margins.ExponentialSample(arr)
    except DomainError:
        return None
    try:
        os.utime(entry)
    except OSError:
        pass
    return sample


def _store(entry, points):
    """Write ``points`` to ``entry`` through a temporary file, then remove
    the least recently used files until the directory holds at most
    ``_CAP_BYTES``. An entry larger than the cap is not kept."""
    tmp = f"{entry}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.save(fh, points, allow_pickle=False)
            fits = fh.tell() <= _CAP_BYTES
        if fits:
            os.replace(tmp, entry)
    except OSError:
        fits = False
    if not fits:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return
    directory = os.path.dirname(entry)
    try:
        with os.scandir(directory) as it:
            files = [
                (st.st_mtime_ns, st.st_size, e.path)
                for e in it
                if e.is_file(follow_symlinks=False)
                for st in (e.stat(follow_symlinks=False),)
            ]
    except OSError:
        return
    total = sum(size for _, size, _ in files)
    for _, size, path in sorted(files):
        if total <= _CAP_BYTES:
            break
        try:
            os.unlink(path)
        except OSError:
            pass
        total -= size
