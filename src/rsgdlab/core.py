"""Shared types, checked array reads, worker pools, and labeled, reproducible random streams.

All numerical state in this package is float64 numpy arrays.  Randomness is
funneled through :class:`RngStream` so that every consumer (weight init, data
generation, shuffling, reinforcement coins) draws from its own independent
stream derived from one experiment seed.  Two runs that share a seed therefore
share initial weights and data order even when one of them draws extra
reinforcement coins.
"""

from __future__ import annotations

import copy
import math
import os
import zlib
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from functools import partial

import numpy as np

from . import BLAS_THREAD_VARS

Matrix = np.ndarray


class ShapeError(ValueError):
    """Raised when matrix operands have incompatible shapes."""


def _left(f) -> int:
    """Bytes in binary file ``f`` after the current position."""
    return os.fstat(f.fileno()).st_size - f.tell()


def read_array(f, shape, dtype, path, error: type[ValueError] = ValueError) -> np.ndarray:
    """The next ``prod(shape)`` items of binary file ``f`` as a new C-contiguous array.

    The size is checked against the file before the array is allocated, so a
    corrupt size field never asks for more memory than the file holds, and
    the file is read straight into the array, so the payload is held in
    memory once.  ``error`` if the file ends first.
    """
    size = math.prod(shape) * np.dtype(dtype).itemsize
    check_left(f, size, path, error)
    out = np.empty(shape, dtype)
    got = f.readinto(out)
    if got != size:
        raise error(f"{path}: truncated file, expected {size} more bytes, read {got}")
    return out


def check_left(f, size, path, error: type[ValueError] = ValueError) -> None:
    """``error`` if binary file ``f`` holds fewer than ``size`` bytes after the current position."""
    left = _left(f)
    if size > left:
        raise error(f"{path}: truncated file, expected {size} more bytes, {left} left")


def check_end(f, path, size: int = 0) -> None:
    """``ValueError`` if binary file ``f`` holds bytes after the next ``size`` ones."""
    left = _left(f) - size
    if left > 0:
        raise ValueError(f"{path}: {left} unexpected bytes after the payload")


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def blas_free_threads() -> int:
    """Threads that can run numpy side by side: the usable CPUs // BLAS's own threads.

    BLAS runs as many threads as the first of ``BLAS_THREAD_VARS`` that holds
    a positive integer says.  With none, it is taken to run one per CPU, which
    leaves one.
    """
    cpus = usable_cpus()
    blas = next((int(v) for v in map(os.environ.get, BLAS_THREAD_VARS)
                 if v is not None and v.isdecimal() and int(v) > 0), cpus)
    return max(1, cpus // blas)


def threads_for(fn, limit: int) -> int:
    """Threads to call ``fn`` on at once: :func:`blas_free_threads`, at most ``limit``.

    A wrapped ``fn`` (one with ``__wrapped__``: a tracer's, such as the
    benchmark's span recorder, which keeps one span stack for all threads) is
    called on the calling thread only, so this is 1.
    """
    return 1 if hasattr(fn, "__wrapped__") else min(blas_free_threads(), limit)


def _now(fn, *args) -> Future:
    """``fn(*args)``, called on the calling thread, as a finished Future."""
    future = Future()
    future.set_result(fn(*args))
    return future


@contextmanager
def submitter(workers: int, executor=ThreadPoolExecutor):
    """``submit(fn, *args) -> Future``, running ``fn`` on ``workers`` workers of ``executor``.

    With one worker, ``fn`` runs at once on the calling thread, so no worker
    starts.  Otherwise each worker starts with the caller's numpy error state
    (numpy's is per thread), and the calls still queued are cancelled if the
    block raises.
    """
    if workers == 1:
        yield _now
        return
    with executor(workers, initializer=partial(np.seterr, **np.geterr())) as pool:
        try:
            yield pool.submit
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _stream_key(stream_id: str) -> int:
    # crc32 is stable across platforms and Python versions (unlike hash()).
    return zlib.crc32(stream_id.encode("utf-8"))


class RngStream:
    """Deterministic random stream labeled by purpose.

    Same (seed, stream_id) always reproduces the same draw sequence; distinct
    stream_ids from one seed are statistically independent (PCG64 seeded via
    SeedSequence spawn keys).  A stream is single-owner: never draw from one
    stream concurrently.  ``gen`` is the stream's numpy Generator: draw from it
    directly where numpy's own checks suffice.
    """

    def __init__(self, seed: int, stream_id: str):
        ss = np.random.SeedSequence(int(seed), spawn_key=(_stream_key(stream_id),))
        self.gen = np.random.Generator(np.random.PCG64(ss))

    def bernoulli_matrix(self, p: float, shape) -> np.ndarray:
        """One coin per component, drawn in row-major order."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must lie in [0, 1], got {p}")
        return self.gen.random(shape) < p

    def split(self, counts) -> list[np.random.Generator]:
        """Generators for consecutive stretches of this stream, ``counts[i]`` draws each.

        Part i is a copy of this stream advanced by ``sum(counts[:i])`` 64-bit
        draws (one per double from ``random``), so its draws are the ones this
        stream would have made there.  This stream itself moves past all of
        them.  ``advance`` drops PCG64's buffered 32-bit half, which is put
        back, so a later 32-bit draw is the same as without the split.
        """
        bits = self.gen.bit_generator
        buffered = bits.state
        parts = []
        for count in counts:
            parts.append(copy.deepcopy(self.gen))
            bits.advance(int(count))
        state = bits.state
        state.update(has_uint32=buffered["has_uint32"], uinteger=buffered["uinteger"])
        bits.state = state
        return parts
