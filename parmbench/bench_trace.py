"""In-memory span tracer for the benchmark's traced pass.

The tracer wraps public entry points of the program's layers from the
outside (no code under ``src/`` is touched): each wrapper records one
span - layer name, start, end, parent span - plus per-call counters
(flows offered, lanes simulated, bytes written ...).  Spans stay in a
list until the run ends; :meth:`Tracer.dump` writes them out.

Self time of a span is its duration minus the time covered by its
direct child spans, so the self times of one pass sum to no more than
the pass's wall time.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: A counter hook maps (args, kwargs, result) to the call's increment.
CountFn = Callable[[tuple, dict, Any], float]


@dataclass
class Span:
    name: str
    phase: str
    start_s: float
    end_s: float = 0.0
    parent: int = -1
    child_s: float = 0.0
    count: float = 0.0

    @property
    def self_s(self) -> float:
        return (self.end_s - self.start_s) - self.child_s


@dataclass(frozen=True)
class Probe:
    """One traced entry point: ``owner.attr`` in module ``module``.

    ``owner`` is a class name, or ``None`` for a module-level function
    (which is then also replaced wherever another ``repro`` module
    imported it by name).  ``counter`` names the per-call quantity
    ``count`` measures; the report sums it as ``<layer>.<counter>``.
    """

    layer: str
    module: str
    owner: Optional[str]
    attr: str
    counter: Optional[str] = None
    count: Optional[CountFn] = None


def _len_arg(index: int, key: str) -> CountFn:
    def count(args: tuple, kwargs: dict, result: Any) -> float:
        return float(len(kwargs[key] if key in kwargs else args[index]))

    return count


def _mapped(args: tuple, kwargs: dict, result: Any) -> float:
    return 0.0 if result is None else 1.0


def _lane_cycles(args: tuple, kwargs: dict, result: Any) -> float:
    # ArrayNocEngine.run(self, flows, cycles) returns one stats object;
    # BatchedNocEngine.run(self, lanes, cycles) returns one per lane.
    cycles = kwargs["cycles"] if "cycles" in kwargs else args[2]
    lanes = len(result) if isinstance(result, list) else 1
    return float(lanes * cycles)


def _payload_bytes(args: tuple, kwargs: dict, result: Any) -> float:
    return float(os.path.getsize(kwargs["path"] if "path" in kwargs else args[0]))


#: Unit of each counter in the report.
COUNTER_UNITS = {
    "flows": "count",
    "domains": "count",
    "bytes": "B",
    "lane_cycles": "cycles",
    "tasks": "count",
}


#: Every traced layer, keyed by the name the report uses.
PROBES: Tuple[Probe, ...] = (
    Probe(
        "noc.analytical.evaluate",
        "repro.noc.analytical",
        "AnalyticalNocModel",
        "evaluate",
        "flows",
        _len_arg(1, "flows"),
    ),
    Probe("core.try_map", "repro.core.hm", "HarmonicManager", "try_map", "mapped", _mapped),
    Probe("core.try_map", "repro.core.selection", "ParmManager", "try_map", "mapped", _mapped),
    Probe("sched.edf.edf_schedule", "repro.sched.edf", None, "edf_schedule"),
    Probe(
        "apps.performance.estimate_wcet_s",
        "repro.apps.performance",
        "PerformanceModel",
        "estimate_wcet_s",
    ),
    Probe(
        "pdn.fast.chip_psn",
        "repro.pdn.fast",
        "FastPsnModel",
        "chip_psn",
        "domains",
        _len_arg(1, "vdds"),
    ),
    Probe(
        "pdn.emergencies.sample_emergencies",
        "repro.pdn.emergencies",
        "VoltageEmergencyPolicy",
        "sample_emergencies",
    ),
    Probe("runtime.simulator.run", "repro.runtime.simulator", "RuntimeSimulator", "run"),
    Probe(
        "runtime.checkpoint.save_payload",
        "repro.runtime.checkpoint",
        None,
        "save_payload",
        "bytes",
        _payload_bytes,
    ),
    Probe(
        "noc.engine.run", "repro.noc.engine", "ArrayNocEngine", "run", "lane_cycles", _lane_cycles
    ),
    Probe(
        "noc.batch.run", "repro.noc.batch", "BatchedNocEngine", "run", "lane_cycles", _lane_cycles
    ),
    Probe(
        "perf.parallel.map_tasks",
        "repro.perf.parallel",
        None,
        "map_tasks",
        "tasks",
        _len_arg(1, "tasks"),
    ),
    Probe(
        "runtime.service.run_epoch",
        "repro.runtime.service.engine",
        "ServiceEngine",
        "run_epoch",
    ),
    Probe("apps.suite.ProfileLibrary.get", "repro.apps.suite", "ProfileLibrary", "get"),
    Probe("perf.pool.lease_pool", "repro.perf.pool", None, "lease_pool"),
)

#: Layers whose report covers the set-up phase (first profile builds,
#: first pool lease); every other layer reports the traced sweep.
SETUP_LAYERS = ("apps.suite.ProfileLibrary.get", "perf.pool.lease_pool")


class Tracer:
    """Records spans while installed; a no-op object otherwise."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.phase = "setup"
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        """Wrap every probe's entry point (idempotent per install)."""
        if self._undo:
            return
        for probe in PROBES:
            module = importlib.import_module(probe.module)
            if probe.owner is not None:
                owner = getattr(module, probe.owner)
                original = owner.__dict__[probe.attr]
                self._patch(owner, probe.attr, original, self._wrap(probe, original))
                continue
            original = getattr(module, probe.attr)
            wrapper = self._wrap(probe, original)
            for name, loaded in sorted(sys.modules.items()):
                if not name.startswith("repro") or loaded is None:
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, attr, original, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def _patch(self, target: Any, attr: str, original: Any, wrapper: Any) -> None:
        self._undo.append((target, attr, original))
        setattr(target, attr, wrapper)

    def _wrap(self, probe: Probe, original: Callable) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = Span(
                probe.layer,
                tracer.phase,
                time.perf_counter(),
                parent=tracer._stack[-1] if tracer._stack else -1,
            )
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end_s = time.perf_counter()
                tracer._stack.pop()
                if span.parent >= 0:
                    tracer.spans[span.parent].child_s += span.end_s - span.start_s
            if probe.count is not None:
                span.count = probe.count(args, kwargs, result)
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced

    # -- reporting ------------------------------------------------------

    def layer_metrics(self) -> Dict[str, Tuple[float, str]]:
        """``{metric: (value, unit)}`` for every probed layer.

        The metric set is fixed: a layer never called reports zeros.
        """
        counters = {p.layer: p.counter for p in PROBES}
        out: Dict[str, Tuple[float, str]] = {}
        for layer, counter in counters.items():
            phase = "setup" if layer in SETUP_LAYERS else "sweep"
            spans = [s for s in self.spans if s.name == layer and s.phase == phase]
            out[f"{layer}.calls"] = (float(len(spans)), "count")
            out[f"{layer}.self_s"] = (sum(s.self_s for s in spans), "s")
            total = sum(s.count for s in spans)
            if counter == "mapped":
                frac = total / len(spans) if spans else 0.0
                out[f"{layer}.mapped_frac"] = (frac, "fraction")
            elif counter is not None:
                out[f"{layer}.{counter}"] = (total, COUNTER_UNITS[counter])
            if layer == "runtime.simulator.run":
                durations = sorted(s.end_s - s.start_s for s in spans)
                out[f"{layer}.p50_s"] = (_quantile(durations, 0.5), "s")
                out[f"{layer}.p90_s"] = (_quantile(durations, 0.9), "s")
        return out

    def self_sum_s(self, phase: str) -> float:
        return sum(s.self_s for s in self.spans if s.phase == phase)

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span.name,
                    "phase": span.phase,
                    "parent": span.parent,
                    "start_s": span.start_s,
                    "end_s": span.end_s,
                    "self_s": span.self_s,
                    "count": span.count,
                }
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def _quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile of sorted ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    rank = max(1, math.ceil(q * len(values)))
    return values[rank - 1]
