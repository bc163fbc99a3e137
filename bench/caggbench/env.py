"""Thread pinning and the environment record of a benchmark run.

`pin_threads` must run before numpy is first imported: OpenBLAS and the
OpenMP runtimes read their thread variables once, when they load.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_threads() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS threads were pinned")
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)


def _openblas() -> tuple[str | None, int | None]:
    """Config string and thread count of the OpenBLAS this process loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return None, None
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype = ctypes.c_int
                get_threads.argtypes = []
                get_config.restype = ctypes.c_char_p
                get_config.argtypes = []
                return get_config().decode(), int(get_threads())
    return None, None


def _os_threads() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def check_threads() -> dict:
    """Load BLAS and verify that the pinning took effect.

    Raises RuntimeError when OpenBLAS reports a different thread count or
    the process runs more than one OS thread after a BLAS call.
    """
    import numpy as np

    a = np.ones((64, 64))
    float((a @ a)[0, 0])
    blas, blas_threads = _openblas()
    os_threads = _os_threads()
    if blas_threads not in (None, THREADS):
        raise RuntimeError(f"OpenBLAS runs {blas_threads} threads, expected {THREADS}")
    if os_threads not in (None, THREADS):
        raise RuntimeError(f"process runs {os_threads} OS threads, expected {THREADS}")
    return {"threads": THREADS, "blas_threads": blas_threads,
            "os_threads": os_threads, "blas": blas,
            "numpy": np.__version__}


def git_revision(root: Path) -> str | None:
    """Commit of a git checkout at `root`, read from its files; None when
    `root` is not a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed: int, threads: dict) -> dict:
    return {**threads, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git_revision": git_revision(root), "seed": seed}
