"""BLAS pinning guard and host digest.

Every measurement runs in a child process whose environment pins the BLAS
and OpenMP pools to one thread *before* NumPy is imported: two ranks on a
two-core host otherwise oversubscribe (ROADMAP measured 0.07-0.28x), and
the number stops being a property of the code.  This module imports
nothing heavier than the standard library at module level, so the parent
can use it without loading NumPy.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys

#: Thread-pool variables the child environment pins to one thread.
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pinned_env() -> dict[str, str]:
    """This process's environment with the BLAS pools pinned to one thread."""
    return {**os.environ, **dict.fromkeys(PIN_VARS, "1")}


def assert_pinned() -> None:
    """Abort unless the BLAS pools are pinned and NumPy is not loaded yet.

    The thread count is read when the BLAS library loads, so an
    environment fixed after ``import numpy`` pins nothing.
    """
    unpinned = [v for v in PIN_VARS if os.environ.get(v) != "1"]
    if unpinned:
        raise SystemExit(
            f"benchmark child needs {', '.join(unpinned)}=1 in its environment; "
            f"start it through benchmarks/e2e/run.py"
        )
    if "numpy" in sys.modules:
        raise SystemExit(
            "numpy was imported before the pinning guard ran; its BLAS pool "
            "may be unpinned — start the child through benchmarks/e2e/run.py"
        )


def mp_start_method() -> str:
    """The start method the executor picks: fork when the platform has it."""
    import multiprocessing as mp

    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def _git_commit(root: str) -> str | None:
    """HEAD of the checkout, or ``None`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else None


def llc_bytes() -> int:
    """Size of the largest CPU cache the kernel reports (0 when unknown)."""
    best = 0
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = os.listdir(base)
    except OSError:
        return 0
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "size"), encoding="ascii") as fh:
                text = fh.read().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        digits = text.rstrip("KMG")
        if digits.isdigit():
            best = max(best, int(digits) * scale)
    return best


def host_digest(root: str) -> dict:
    """What a reader needs to judge whether two results are comparable.

    Call it in the pinned child, after NumPy is imported.
    """
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "thread_env": {v: os.environ.get(v) for v in PIN_VARS},
        "mp_start_method": mp_start_method(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "llc_bytes": llc_bytes(),
        "git_commit": _git_commit(root),
    }
