"""Training laboratory for reinforced SGD and classical optimizer baselines."""

import ctypes
import os
import sys

__version__ = "0.1.0"

# The variables OpenBLAS (numpy's BLAS) reads its thread count from, in its order.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _set_heap_policy() -> None:
    """With glibc, keep freed MB-sized arrays in the heap instead of unmapping them.

    glibc serves blocks above its mmap threshold (128 KB at start) with fresh
    mappings and unmaps them on free, so the temporaries of ``evaluate`` and of
    every training step are faulted in again on each call.  Its dynamic rule
    raises the threshold only after a large block happens to be freed.  These
    are the values that rule ends at: blocks up to 32 MB come from the heap,
    and up to 64 MB of free heap top is kept.  One arena serves every thread:
    otherwise each worker thread of ``simulate_memory_length`` gets an arena
    of its own, which keeps its freed blocks resident.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return  # not glibc: keep the allocator's own policy
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-8, 1)  # M_ARENA_MAX


def _set_blas_threads() -> None:
    """Give BLAS one thread, so the lab's pools get the CPUs and bits do not depend on them.

    Not if the user set a BLAS variable, nor once numpy is loaded: OpenBLAS
    has read the variables then, and ``core.blas_free_threads`` would be misled.
    """
    if "numpy" not in sys.modules and not any(var in os.environ for var in BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


_set_heap_policy()
_set_blas_threads()
