"""Facts about the machine and runtime that a benchmark result depends on."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads():
    """Thread count the live OpenBLAS pool bundled with numpy reports.

    Read from the library itself, not from environment variables, because a
    variable set after numpy was imported has no effect on the pool. None
    when numpy does not bundle scipy-openblas.
    """
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
            fn = handle.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def facts() -> dict:
    import numpy

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": blas_threads()}
