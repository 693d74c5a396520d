"""Timing helpers: the tail-percentile rule, fresh-process timings, environment."""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import subprocess
import time

import numpy as np

# The tail is the highest percentile that still has this many samples beyond it.
TAIL_BEYOND = 10
SUBPROCESS_TIMEOUT_S = 120


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the tail rule.

    With n sorted samples, x[n - 11] has exactly ten samples above it and
    sits at percentile 100 * (n - 10) / n. Below eleven samples no
    percentile qualifies, and the maximum is reported at percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def peak_rss_mb() -> float:
    """ru_maxrss of this process (kilobytes on Linux) in megabytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_timed(argv: list[str], cwd, env: dict) -> tuple[float, subprocess.CompletedProcess]:
    """Wall time of one child process, which is waited for (and killed on timeout)."""
    t0 = time.perf_counter()
    done = subprocess.run(
        argv, cwd=cwd, env=env, capture_output=True, timeout=SUBPROCESS_TIMEOUT_S
    )
    return time.perf_counter() - t0, done


def child_env(src_dir) -> dict:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src_dir) + (os.pathsep + path if path else "")
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    info: dict = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    info["threads"] = _blas_threads()
    return info


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if there is one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
    }
