"""Run context recorded beside every result: cores, BLAS, versions, source.

Nothing here changes the program's environment: the BLAS thread count is
read, never set, so a later change that sets it inside uavmec shows up.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path

import numpy as np

# Thread-count getters exported by the OpenBLAS builds numpy ships with.
_BLAS_THREAD_SYMBOLS = ("openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads")


def _loaded_blas_paths():
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def blas_threads():
    """Thread count the loaded BLAS reports, or None when it cannot say."""
    for path in _loaded_blas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def blas_library() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "unknown"
    return f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()


def commit(root: Path) -> str:
    """Git commit of the checkout, or 'unknown' outside a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(src: Path) -> str:
    """Hash of every .py file under src/, which identifies the code anywhere."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_context(root: Path) -> dict:
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": blas_library(),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit(root),
        "src_digest": source_digest(root / "src"),
    }
