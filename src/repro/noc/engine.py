"""Single-mesh cycle engine: the one-lane view of the batched engine.

:class:`ArrayNocEngine` is the structure-of-arrays fast path of the
flit-level cycle model for one mesh - a drop-in, flit-for-flit
equivalent of the legacy :class:`repro.noc.cycle.CycleNocSimulator`
with the same constructor and :meth:`~ArrayNocEngine.run` contract.
It is :class:`~repro.noc.batch.BatchedNocEngine` with a single lane,
so both engines share one implementation of the injection, route,
arbitration and commit phases (see :mod:`repro.noc.batch`), and the
legacy simulator stays the independent oracle:
``tests/noc/test_noc_engine.py`` pins stats equality across every
routing policy, mesh size and load level.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.chip.mesh import MeshGeometry
from repro.noc.batch import BatchedNocEngine
from repro.noc.cycle.simulator import NocSimStats, TrafficFlow
from repro.noc.routing.base import RoutingAlgorithm
from repro.noc.topology import MeshTopology


class ArrayNocEngine(BatchedNocEngine):
    """Array-based mesh NoC cycle engine for one mesh.

    Constructor signature, semantics and produced :class:`NocSimStats`
    are identical to :class:`repro.noc.cycle.CycleNocSimulator`.

    Args:
        mesh: Tile mesh.
        routing: Routing algorithm.
        buffer_depth: Input FIFO depth in flits.
        psn_pct: Optional per-tile PSN sensor readings for PSN-aware
            policies (zeros if omitted); update mid-run via
            :meth:`set_psn`.
        rate_window: Cycles per data-rate measurement window.
        seed: Injection-process RNG seed (kept for API parity; the
            accumulator injection process is deterministic).
        topology: Optional pre-built :class:`MeshTopology` to adopt
            (warm worker pools share one, with shared-memory lookup
            tables, across every engine a worker builds).  Must match
            ``mesh``; never mutated.
        route_table: Optional complete ``(n, n)`` int8 route table for
            a context-free ``routing`` (see :func:`build_route_table`);
            adopted as-is, so results are byte-identical with or
            without it.
    """

    def __init__(
        self,
        mesh: MeshGeometry,
        routing: RoutingAlgorithm,
        buffer_depth: int = 8,
        psn_pct: Optional[np.ndarray] = None,
        rate_window: int = 64,
        seed: int = 0,
        topology: Optional[MeshTopology] = None,
        route_table: Optional[np.ndarray] = None,
    ):
        super().__init__(
            mesh,
            routing,
            n_lanes=1,
            buffer_depth=buffer_depth,
            psn_pct=psn_pct,
            rate_window=rate_window,
            seeds=[seed],
            topology=topology,
            route_table=route_table,
        )

    def run(self, flows: Sequence[TrafficFlow], cycles: int) -> NocSimStats:
        """Simulate ``cycles`` cycles of the given offered traffic."""
        return self._run([flows], cycles)[0]


def build_route_table(
    mesh: MeshGeometry,
    routing: RoutingAlgorithm,
    topology: Optional[MeshTopology] = None,
) -> np.ndarray:
    """Complete ``(n, n)`` int8 route table of a context-free policy.

    Runs the engine's own lazy column builder for every destination, so
    the result is byte-for-byte what an engine would build on demand -
    the warm worker pool publishes these tables into shared memory and
    engines adopt them via the ``route_table`` constructor argument.

    Args:
        mesh: Tile mesh.
        routing: A context-free routing policy.
        topology: Optional pre-built topology to route over.

    Raises:
        ValueError: when ``routing`` is adaptive (no table exists).
    """
    if not routing.context_free:
        raise ValueError(
            "route tables exist only for context-free policies"
        )
    engine = ArrayNocEngine(mesh, routing, topology=topology)
    engine._build_route_columns(np.arange(mesh.tile_count, dtype=np.int64))
    return engine._route_table
