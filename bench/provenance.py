"""Versions and machine facts recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _source_digest(src: Path) -> str:
    """SHA-256 over the package sources, which identifies the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas() -> dict:
    info = dict(np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {}))
    result = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                result["threads"] = int(func())
                return result
    return result


def collect(root: Path) -> dict:
    return {
        "commit": _commit(root),
        "src_sha256": _source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }
