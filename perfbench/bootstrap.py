"""Locate the program's sources, pin BLAS threads, and describe the machine.

``prepare()`` must run before numpy is imported: OpenBLAS reads its thread
count once, when it loads. Child processes inherit the setting.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: one BLAS thread: no more than nproc (2 on the reference machine), and a
#: single thread is the least disturbed by other load on a shared host
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(RuntimeError):
    """The checkout holds no ctqw sources to measure."""


def prepare() -> None:
    """Pin BLAS threads and put the checkout's ``src`` first on the path."""
    if not (SRC / "ctqw" / "__init__.py").is_file():
        raise MissingProgram(f"no ctqw sources under {SRC}")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ctqw

    if Path(ctqw.__file__).resolve().parent != (SRC / "ctqw").resolve():
        raise MissingProgram(f"ctqw imported from {ctqw.__file__}, not from {SRC}")


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, when it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cache_sizes() -> dict[str, int]:
    """Cache sizes in bytes of cpu0, by level, as sysfs reports them."""
    sizes: dict[str, int] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
        sizes[f"l{level}_bytes"] = int(size.rstrip("KM")) * scale
    return sizes


def environment() -> dict:
    """What a result depends on beyond the code: recorded with every result."""
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        **_cache_sizes(),
    }
