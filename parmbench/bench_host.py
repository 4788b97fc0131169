"""Host description, host-speed reference and memory readings."""

from __future__ import annotations

import math
import os
import platform
import resource
import subprocess
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Thread-count variables of the BLAS/OpenMP runtimes NumPy may load.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _cgroup_cpu_limit() -> Optional[float]:
    """CPUs allowed by cgroup v2 ``cpu.max`` (None when unlimited/absent)."""
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()[:2]
    except (OSError, ValueError):
        return None
    if quota == "max":
        return None
    return int(quota) / int(period)


def usable_cpus() -> int:
    """CPUs this process may use: affinity mask capped by cgroup quota."""
    cpus = len(os.sched_getaffinity(0))
    limit = _cgroup_cpu_limit()
    if limit is not None:
        cpus = min(cpus, max(1, math.floor(limit)))
    return cpus


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def _git(root: Path, *args: str) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True,
            text=True,
            timeout=20,
            env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_block(root: Path) -> Dict[str, object]:
    rev = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no") if rev else None
    return {
        "usable_cpus": usable_cpus(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_limit": _cgroup_cpu_limit(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "git_rev": rev or "unknown",
        "git_dirty": None if status is None else bool(status),
    }


#: Seconds one :func:`reference_s` pass takes on the calibration host
#: (2-CPU x86 container, Python 3.11, NumPy 2.4).
REFERENCE_NOMINAL_S = 0.03


def reference_s() -> float:
    """Wall seconds of one pass of a fixed host-speed reference kernel.

    The kernel is interpreter work of the kind the program spends its
    time on - dict updates, float arithmetic, short list slices - and
    needs no import, so it can run before the program is loaded.  Its
    inputs never change, so its wall time tracks only how fast the host
    runs Python right now.
    """
    values = [k / 64.0 for k in range(64)]
    table: Dict[int, float] = {}
    total = 0.0
    start = time.perf_counter()
    for i in range(60_000):
        key = i % 97
        table[key] = table.get(key, 0.0) + (i * 0.5) % 7.0
        if i % 4 == 0:
            total += sum(values[i % 56 : i % 56 + 8])
    elapsed = time.perf_counter() - start
    if not math.isfinite(total + sum(table.values())):
        raise RuntimeError("reference kernel produced a non-finite value")
    return elapsed


class Speedometer:
    """Samples :func:`reference_s` between units of a timed sweep.

    Shared hosts change speed from second to second.  Timing the
    reference kernel right next to the work - between campaign cells,
    every few service epochs, around every repetition - gives the host
    speed while the work ran; a throughput multiplied by ``mean sample
    / REFERENCE_NOMINAL_S`` is what it would have been on the
    calibration host.  One sample runs the kernel once on each CPU the
    process may use (pool workers run on all of them) and keeps the
    mean.  Callers subtract sampled time from any wall time containing
    it.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.samples: List[float] = []
        self._cpus = sorted(os.sched_getaffinity(0))

    def sample(self) -> None:
        if not self.enabled:
            return
        passes = []
        try:
            for cpu in self._cpus:
                os.sched_setaffinity(0, {cpu})
                passes.append(reference_s())
        finally:
            os.sched_setaffinity(0, self._cpus)
        self.samples.append(sum(passes) / len(passes))

    def drain(self) -> List[float]:
        samples, self.samples = self.samples, []
        return samples


def _vm_hwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def peak_rss_mb(worker_pids: Sequence[int] = ()) -> float:
    """Peak resident memory of this process plus its live pool workers."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own_kb + sum(_vm_hwm_kb(pid) for pid in worker_pids)) / 1024.0
