"""Shared helpers: percentiles, peak memory and the host fingerprint."""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import platform
import subprocess
import sys

import numpy as np

__all__ = ["percentile", "peak_rss_mb", "cpu_ticks", "steal_pct", "host_fingerprint"]


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); nan when empty."""
    return float(np.percentile(values, q)) if len(values) else float("nan")


def _vm_hwm_kb(pid: int | str) -> int:
    """Peak resident set (``VmHWM``) of one live process, in kB; 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live pool workers (MB).

    The sum of each process's own peak: call it before the pool shuts down.
    """
    pids = ["self"] + [p.pid for p in multiprocessing.active_children()]
    return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0


def cpu_ticks() -> list[int]:
    """The host's aggregate CPU tick counters (``/proc/stat``; empty if absent)."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_pct(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave other guests between two reads.

    Recorded with each run: a run measured while the host was contended
    reads slow for reasons outside the program.
    """
    if len(before) < 8 or len(after) < 8:
        return 0.0
    delta = [b - a for a, b in zip(before[:8], after[:8])]
    total = sum(delta)
    return 100.0 * delta[7] / total if total else 0.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: str) -> str:
    """HEAD of ``root`` when ``root`` itself is a git work tree, else unknown."""
    try:
        top = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if len(top) == 2 and os.path.realpath(top[0]) == os.path.realpath(root):
        return top[1]
    return "unknown"


def _source_digest(root: str) -> str:
    """sha256 over the program's source files (identifies the code measured)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def host_fingerprint(root: str) -> dict:
    """nproc, CPU model, Python, numpy and scipy versions, and the commit."""
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
    }
