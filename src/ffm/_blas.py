"""One OpenBLAS thread for loops of small factorizations.

Replications and backtest origins each factor matrices of at most a few
hundred rows and columns.  At that size a second OpenBLAS thread only
adds synchronisation: on a 2-core machine a 500 x 72 QR took about
0.8 ms on two threads against 0.35 ms on one.  ``one_blas_thread`` sets every OpenBLAS mapped
into the process to one thread for the duration of a block and restores
each library's previous count on exit, also when the block raises.

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
from contextlib import contextmanager

__all__ = ["one_blas_thread", "openblas_controls"]

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
    """Run the block with every mapped OpenBLAS on one thread."""
    controls = openblas_controls()
    previous = [getter() for getter, _ in controls]
    for _, setter in controls:
        setter(1)
    try:
        yield
    finally:
        for (_, setter), count in zip(controls, previous):
            setter(count)
