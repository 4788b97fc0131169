"""The 13-benchmark suite of the paper's evaluation (Section 5.1).

Communication-intensive: cholesky, fft, radix, raytrace, dedup, canneal,
vips.  Compute-intensive: swaptions, fluidanimate, streamcluster,
blackscholes, radix, bodytrack, radiosity.  ``radix`` appears in both
groups, as in the paper.

The per-benchmark parameters are synthetic (the real SPLASH-2/PARSEC
binaries and GEM5 are not available offline) but chosen to reproduce the
published aggregate behaviour: communication-intensive applications move
gigabytes over the NoC per run and put it on the critical path (~15-20 %
of chip power), compute-intensive ones have high core switching activity
and little traffic, and speed-up saturates past DoP 32.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.apps.profiles import (
    ApplicationProfile,
    AppKind,
    BenchmarkSpec,
    build_profile,
)
from repro.chip.technology import TechnologyNode


def _spec(
    name: str,
    kind: AppKind,
    work: float,
    serial: float,
    high: float,
    total_comm_mb: float,
    seed: int,
) -> BenchmarkSpec:
    return BenchmarkSpec(
        name=name,
        kind=kind,
        work_gcycles=work,
        serial_fraction=serial,
        high_fraction=high,
        total_comm_mb=total_comm_mb,
        seed=seed,
    )


#: All 13 benchmark specifications, keyed by name.
BENCHMARKS: Dict[str, BenchmarkSpec] = {
    spec.name: spec
    for spec in (
        # --- communication-intensive (SPLASH-2 / PARSEC) ---------------
        _spec("cholesky", AppKind.COMMUNICATION, 0.55, 0.06, 0.50, 1400, 101),
        _spec("fft", AppKind.COMMUNICATION, 0.4, 0.04, 0.45, 1900, 102),
        _spec("radix", AppKind.COMMUNICATION, 0.35, 0.05, 0.50, 1500, 103),
        _spec("raytrace", AppKind.COMMUNICATION, 0.7, 0.08, 0.55, 1200, 104),
        _spec("dedup", AppKind.COMMUNICATION, 0.5, 0.07, 0.40, 1900, 105),
        _spec("canneal", AppKind.COMMUNICATION, 0.45, 0.05, 0.35, 2100, 106),
        _spec("vips", AppKind.COMMUNICATION, 0.6, 0.06, 0.45, 1500, 107),
        # --- compute-intensive ------------------------------------------
        _spec("swaptions", AppKind.COMPUTE, 0.65, 0.03, 0.70, 40, 201),
        _spec("fluidanimate", AppKind.COMPUTE, 0.55, 0.06, 0.60, 90, 202),
        _spec("streamcluster", AppKind.COMPUTE, 0.5, 0.05, 0.55, 70, 203),
        _spec("blackscholes", AppKind.COMPUTE, 0.45, 0.02, 0.75, 30, 204),
        _spec("bodytrack", AppKind.COMPUTE, 0.6, 0.07, 0.60, 80, 205),
        _spec("radiosity", AppKind.COMPUTE, 0.7, 0.08, 0.65, 55, 206),
    )
}

#: Names in each workload group (``radix`` is in both, as in the paper).
COMMUNICATION_BENCHMARKS: Tuple[str, ...] = (
    "cholesky", "fft", "radix", "raytrace", "dedup", "canneal", "vips",
)
COMPUTE_BENCHMARKS: Tuple[str, ...] = (
    "swaptions", "fluidanimate", "streamcluster", "blackscholes",
    "radix", "bodytrack", "radiosity",
)


def benchmark(name: str) -> BenchmarkSpec:
    """Look up a benchmark spec by name."""
    try:
        return BENCHMARKS[name]
    except KeyError:
        known = ", ".join(sorted(BENCHMARKS))
        raise KeyError(f"unknown benchmark {name!r}; known: {known}")


class ProfileLibrary:
    """Lazily built, cached profiles for the whole suite.

    Building a profile runs the performance model over every
    (Vdd, DoP) point, so experiment harnesses share one library instance.
    """

    def __init__(
        self,
        tech: Optional[TechnologyNode] = None,
        vdds: Sequence[float] = (0.4, 0.5, 0.6, 0.7, 0.8),
        dops: Optional[Sequence[int]] = None,
    ):
        self._tech = tech
        self._vdds = tuple(vdds)
        self._dops = tuple(dops) if dops is not None else None
        self._cache: Dict[str, ApplicationProfile] = {}

    def get(self, name: str) -> ApplicationProfile:
        """Profile for a benchmark, building it on first use."""
        if name not in self._cache:
            kwargs = {}
            if self._dops is not None:
                kwargs["dops"] = self._dops
            self._cache[name] = build_profile(
                benchmark(name), tech=self._tech, vdds=self._vdds, **kwargs
            )
        return self._cache[name]

    def __contains__(self, name: str) -> bool:
        return name in BENCHMARKS
