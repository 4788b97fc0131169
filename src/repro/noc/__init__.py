"""Network-on-chip: routing algorithms, cycle-level and analytical models.

The paper's CMP uses a 2D-mesh wormhole NoC.  Four routing schemes matter
to its evaluation:

* **XY** - dimension-ordered baseline;
* **west-first** - the deadlock-free turn model [32] PANR builds on;
* **PANR** - the paper's PSN- and congestion-aware adaptive scheme
  (Algorithm 3): among west-first-permissible directions, pick the least
  congested one when the input buffer is above the occupancy threshold B,
  otherwise the one whose neighbouring tile reports the least PSN;
* **ICON** - the prior-work baseline [22], adaptive on *router* activity
  only (core PSN ignored).

Two network models share these policies: a flit-level cycle simulator
(:mod:`repro.noc.cycle`) used for micro-experiments such as the buffer
threshold ablation, and a flow-based analytical model
(:mod:`repro.noc.analytical`) fast enough to sit inside the runtime loop
while preserving the routing-policy-dependent link loads and latencies.
The cycle model has two interchangeable implementations: the readable
object-per-flit :class:`~repro.noc.cycle.CycleNocSimulator` oracle and
one structure-of-arrays fast path,
:class:`~repro.noc.batch.BatchedNocEngine`, which advances many
independent simulations of any routing policy in one vectorised
lock-step pass (every lane pinned flit-for-flit against the oracle).
:class:`~repro.noc.engine.ArrayNocEngine` is its one-lane view with the
oracle's constructor, and :func:`~repro.noc.batch.simulate_lanes` runs
a list of lane specs in one batch.
"""

from repro.noc.topology import Direction, MeshTopology
from repro.noc.routing import (
    IconRouting,
    PanrRouting,
    RoutingAlgorithm,
    RoutingContext,
    WestFirstRouting,
    XYRouting,
    make_routing,
)
from repro.noc.analytical import AnalyticalNocModel, Flow, NocLoadReport
from repro.noc.batch import BatchedNocEngine, LaneSpec, simulate_lanes
from repro.noc.engine import ArrayNocEngine
from repro.noc.overhead import panr_router_overhead, OverheadReport

__all__ = [
    "Direction",
    "MeshTopology",
    "RoutingAlgorithm",
    "RoutingContext",
    "XYRouting",
    "WestFirstRouting",
    "PanrRouting",
    "IconRouting",
    "make_routing",
    "AnalyticalNocModel",
    "ArrayNocEngine",
    "BatchedNocEngine",
    "LaneSpec",
    "simulate_lanes",
    "Flow",
    "NocLoadReport",
    "panr_router_overhead",
    "OverheadReport",
]
