"""Process environment of the benchmark, set before numpy is imported.

The BLAS thread count is pinned to ``BLAS_THREADS`` (never above the number
of CPUs) through the variables OpenBLAS, OpenMP and MKL read at load time.
The process is pinned to one CPU, so every timed operation and the yardstick
that calibrates it (``yardstick.py``) run on the same CPU.  The library is
imported from ``src/`` of the working directory, never from an installed
copy, and child interpreters inherit the same settings and the same CPU.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_cpu() -> int | None:
    """Pin this process to the highest-numbered CPU it may use; return that CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def prepare(root: str) -> tuple[str, int]:
    """Pin BLAS threads and put ``root/src`` first on the import path.

    Returns the source directory and the thread count.  Must run before the
    first import of numpy in this process.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for name in BLAS_VARIABLES:
        os.environ[name] = str(threads)
    src = os.path.join(root, "src")
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src if not inherited else src + os.pathsep + inherited
    sys.path.insert(0, src)
    return src, threads


def has_sources(root: str) -> bool:
    return os.path.isfile(os.path.join(root, "src", "krausfock", "__init__.py"))
