"""Read and set the thread count of the loaded OpenBLAS libraries.

numpy's OpenBLAS starts one thread per CPU.  A campaign's workers
already occupy those CPUs, so a GEMM inside a worker that also fans out
over every CPU only oversubscribes them: when another process preempts
one BLAS thread, its siblings spin-wait at the next barrier.  The
engine's worker loop therefore calls ``set_blas_threads(1)``.

The libraries are found through ``/proc/self/maps`` and driven through
their ``*openblas_set_num_threads*`` / ``*openblas_get_num_threads*``
C symbols (numpy's wheel prefixes and suffixes them, e.g.
``scipy_openblas_set_num_threads64_``).  Where neither is available —
another BLAS, or no ``/proc`` — every call here is a no-op.  Thread
count never changes results: OpenBLAS splits a GEMM's output rows and
columns across threads, never its reduction dimension.
"""

from __future__ import annotations

import ctypes
from typing import List, Optional

_SYMBOL = "{prefix}openblas_{verb}_num_threads{suffix}"
_PREFIXES = ("scipy_", "")
_SUFFIXES = ("64_", "")


def _loaded_openblas() -> List[ctypes.CDLL]:
    """Every OpenBLAS shared library mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {
                line.split()[-1]
                for line in maps
                if "openblas" in line.rsplit("/", 1)[-1].lower()
            }
    except OSError:
        return []
    libraries = []
    for path in sorted(paths):
        try:
            libraries.append(ctypes.CDLL(path))
        except OSError:
            continue
    return libraries


def _symbol(library: ctypes.CDLL, verb: str):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            name = _SYMBOL.format(prefix=prefix, verb=verb, suffix=suffix)
            function = getattr(library, name, None)
            if function is not None:
                return function
    return None


def set_blas_threads(n: int) -> int:
    """Set every loaded OpenBLAS to ``n`` threads; returns how many."""
    pinned = 0
    for library in _loaded_openblas():
        setter = _symbol(library, "set")
        if setter is not None:
            setter(ctypes.c_int(n))
            pinned += 1
    return pinned


def blas_threads() -> Optional[int]:
    """The largest thread count of the loaded OpenBLAS libraries.

    ``None`` when no OpenBLAS count can be read.
    """
    counts = []
    for library in _loaded_openblas():
        getter = _symbol(library, "get")
        if getter is not None:
            getter.restype = ctypes.c_int
            counts.append(int(getter()))
    return max(counts) if counts else None
