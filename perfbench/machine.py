"""The machine a run measured on, and its peak memory."""

from __future__ import annotations

import os
import platform
import resource


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 prints instead of returning
        return "unknown"
    blas = deps.get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def fingerprint() -> dict:
    """CPU model, core count, interpreter and library versions, BLAS build."""
    import numpy as np
    import scipy

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
