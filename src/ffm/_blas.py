"""One OpenBLAS thread per process, and processes for the idle cores.

Replications and backtest origins each factor matrices of at most a few
hundred rows and columns.  At that size a second OpenBLAS thread only
adds synchronisation: on a 2-core machine a 500 x 72 QR took about
0.8 ms on two threads against 0.35 ms on one, and 50 QRs of a 200 x 72
matrix 521 ms against 25-34 ms.  ``one_blas_thread`` sets each OpenBLAS
mapped into the process that is not on one thread to one for the
duration of a block, and on exit restores the count of each library it
changed, also when the block raises.

The cores those threads would have used run worker processes instead.
``map_ranges`` runs a loop's ranges (of replications or origins) in
order, on ``jobs`` processes, never more than there are ranges.
``jobs=None`` takes the thread count ``one_blas_thread`` saved, which
follows ``OPENBLAS_NUM_THREADS`` and defaults to the number of cores,
so ``OPENBLAS_NUM_THREADS=1`` gives a serial run, and so does a process
without an OpenBLAS control.  Any ``jobs`` gives one process inside a
daemonic process (a ``multiprocessing.Pool`` worker, which may not
start children) and from Python 3.12 on, which warns
(``DeprecationWarning``) when a process with OpenBLAS threads forks.
Workers are started by ``fork``: with ``spawn`` or ``forkserver`` a
pool of two ran a 180-origin backtest slower than one process.  With
one process the ranges run in the caller; ``multiprocessing`` is
imported only when a pool starts.

Workers inherit the one-thread setting: ``map_ranges`` forks them
inside its ``one_blas_thread`` block, so every library in a worker
already reads 1, and a worker calls no getter or setter.  OpenBLAS's
setter, even with 1, starts a thread in a forked child, and that
thread busy-waits on a core the other worker needs: on 2 cores, 50 QRs
of a 200 x 72 matrix took 27-38 ms in a child that entered the block
(2 OS threads) against 15.5-17.1 ms in one that kept the inherited
setting (1 OS thread).

Libraries are found in ``/proc/self/maps`` and driven through their own
``openblas_set_num_threads`` (or the ``scipy_openblas`` build's
``..._set_num_threads64_``) symbol by ``ctypes``, on first use rather than
at import.  Where neither the file nor such a symbol exists (another
OS, MKL) the block runs unchanged.  The ``scipy_openblas`` names are
those of numpy's own bundled OpenBLAS
(``numpy.libs/libscipy_openblas64_*.so``), not a sign of scipy.
"""

from __future__ import annotations

import ctypes
import functools
import sys
import warnings
from contextlib import contextmanager

__all__ = ["one_blas_thread", "openblas_controls", "map_ranges"]

# (getter, setter) symbol names, reference and scipy-openblas builds
_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


@functools.cache
def _library_controls(path: str):
    """(getter, setter) of the OpenBLAS at ``path``, or None without the symbols."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for get_name, set_name in _SYMBOLS:
        getter = getattr(lib, get_name, None)
        setter = getattr(lib, set_name, None)
        if getter is not None and setter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            return getter, setter
    return None


def openblas_controls() -> list:
    """(getter, setter) pairs of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.rsplit(None, 1)[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    controls = (_library_controls(path) for path in paths)
    return [pair for pair in controls if pair is not None]


@contextmanager
def one_blas_thread():
    """Run the block with every mapped OpenBLAS on one thread.

    Yields the largest thread count the libraries had before, or 1 where
    none is found.  Only the libraries it changed are set back on exit.
    """
    counts = ((setter, getter()) for getter, setter in openblas_controls())
    changed = [(setter, count) for setter, count in counts if count != 1]
    for setter, _ in changed:
        setter(1)
    try:
        yield max((count for _, count in changed), default=1)
    finally:
        for setter, count in changed:
            setter(count)


# a fork of a process with OpenBLAS threads warns from Python 3.12 on
_FORK_QUIET = sys.version_info < (3, 12)


def _workers(jobs: int, tasks: int) -> int:
    """Processes that ``jobs`` gives ``tasks`` ranges: 1 where forking would warn or fail."""
    if not _FORK_QUIET or min(jobs, tasks) <= 1:
        return 1
    import multiprocessing

    if multiprocessing.current_process().daemon:
        return 1
    return min(jobs, tasks)


_run = None   # a pool worker's range hook, the caller's copy, set once by _start


def _start(run) -> None:
    global _run
    _run = run


def _recorded(run, task):
    """``run(task)`` and the warnings it raised, which are not shown here."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(task)
    return result, [w.message for w in caught]


def _call(task):
    return _recorded(_run, task)


def _replayed(done) -> list:
    """Results of ``(result, warnings)`` pairs, re-issuing each pair's warnings as it comes."""
    results = []
    for result, caught in done:
        for message in caught:
            # at the caller of map_ranges's caller
            warnings.warn(message, stacklevel=4)
        results.append(result)
    return results


def map_ranges(setup, tasks: list, jobs: int | None) -> list:
    """``[run(task) for task in tasks]``, in order, with ``run = setup()``.

    Every task runs on one BLAS thread.  ``setup`` is called once, here,
    inside this call's ``one_blas_thread`` block, so an exception it
    raises propagates before any worker starts.  ``jobs`` is the number
    of processes (see the module docstring for None).  With one, the
    tasks run here.  A pool is forked inside the same block, which is
    what keeps its workers on the one thread they inherit without a
    setter call (see the module docstring for why a worker must not
    call one); each worker gets its copy of ``run`` by the fork, so
    nothing is pickled, and the workers take the tasks from the pool's
    queue in order.  An exception that a task raises propagates with
    its type, as it would with one process, and no worker outlives the
    call.

    Either way each task's warnings are recorded where it runs and
    re-issued here when the task's result arrives, in task order, at
    the caller of this function's caller, so they do not depend on
    ``jobs``.  The warnings of a task that raises are not re-issued.
    """
    with one_blas_thread() as threads:
        run = setup()
        workers = _workers(threads if jobs is None else jobs, len(tasks))
        if workers <= 1:
            return _replayed(_recorded(run, task) for task in tasks)
        # imported here so that commands without a pool never load multiprocessing
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                   initializer=_start, initargs=(run,))
        try:
            return _replayed(pool.map(_call, tasks))
        finally:
            pool.shutdown(cancel_futures=True)
