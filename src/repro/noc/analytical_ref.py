"""Scalar reference model of the analytical NoC (test and bench oracle).

:class:`ReferenceNocModel` is the per-flow, ``Direction``-keyed
implementation the array model in :mod:`repro.noc.analytical`
replaced.  It is kept as the slow oracle: the array model must return
exactly (``==``, not approximately) what this one returns - router
loads, link utilisations, per-flow statistics and the saturation flag -
for every policy, flow set and fault set; see
``tests/noc/test_analytical_oracle.py`` and the
``noc_analytical_eval*`` entries of ``python -m repro bench``.

It always runs the configured number of fixed-point iterations, so its
``residual`` also checks the array model's one-iteration shortcut for
context-free policies (their residual here is exactly 0.0).  Nothing
on a result path imports this module.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.noc.analytical import RHO_MAX, Flow, FlowStats, NocLoadReport
from repro.noc.routing.base import RoutingAlgorithm, RoutingContext
from repro.noc.topology import Direction, MeshTopology

#: One recorded ``evaluate`` call: the flows and the keyword arguments.
EvalCall = Tuple[List[Flow], Dict[str, Any]]


def calls_to_json(calls: Sequence[EvalCall]) -> List[Dict[str, Any]]:
    """JSON-safe form of recorded calls (floats round-trip exactly)."""
    out = []
    for flows, kwargs in calls:
        entry: Dict[str, Any] = {
            "flows": [[int(f.src), int(f.dst), float(f.rate)] for f in flows]
        }
        for key in ("psn_pct", "psn_valid"):
            value = kwargs.get(key)
            entry[key] = None if value is None else np.asarray(value).tolist()
        links = kwargs.get("dead_links")
        entry["dead_links"] = (
            None
            if links is None
            else [
                [int(t), d.value]
                for t, d in sorted(
                    links, key=lambda link: (link[0], link[1].value)
                )
            ]
        )
        routers = kwargs.get("dead_routers")
        entry["dead_routers"] = (
            None if routers is None else [int(t) for t in sorted(routers)]
        )
        out.append(entry)
    return out


def calls_from_json(entries: Sequence[Dict[str, Any]]) -> List[EvalCall]:
    """Inverse of :func:`calls_to_json`."""
    calls: List[EvalCall] = []
    for entry in entries:
        kwargs: Dict[str, Any] = {}
        if entry.get("psn_pct") is not None:
            kwargs["psn_pct"] = np.array(entry["psn_pct"], dtype=float)
        if entry.get("psn_valid") is not None:
            kwargs["psn_valid"] = np.array(entry["psn_valid"], dtype=bool)
        if entry.get("dead_links") is not None:
            kwargs["dead_links"] = {
                (t, Direction(d)) for t, d in entry["dead_links"]
            }
        if entry.get("dead_routers") is not None:
            kwargs["dead_routers"] = set(entry["dead_routers"])
        flows = [Flow(int(s), int(d), float(r)) for s, d, r in entry["flows"]]
        calls.append((flows, kwargs))
    return calls


def reports_identical(a: NocLoadReport, b: NocLoadReport) -> bool:
    """Exact equality of everything a result reads from a report."""
    return (
        np.array_equal(a.router_flits_per_cycle, b.router_flits_per_cycle)
        and a.link_rho == b.link_rho
        and a.flows == b.flows
        and a.saturated == b.saturated
    )


class ReferenceNocModel:
    """Scalar oracle of :class:`~repro.noc.analytical.AnalyticalNocModel`.

    Same constructor arguments and :meth:`evaluate` signature; see the
    array model for their meaning.
    """

    def __init__(
        self,
        topo: MeshTopology,
        routing: RoutingAlgorithm,
        iterations: int = 4,
        link_bandwidth: float = 1.0,
        router_noise_pct_per_flit: float = 1.5,
        burstiness: float = 1.6,
    ):
        if iterations < 1:
            raise ValueError("iterations must be at least 1")
        if link_bandwidth <= 0:
            raise ValueError("link_bandwidth must be positive")
        if router_noise_pct_per_flit < 0:
            raise ValueError("router_noise_pct_per_flit must be non-negative")
        if burstiness < 1.0:
            raise ValueError("burstiness must be >= 1")
        self._topo = topo
        self._routing = routing
        self._iterations = iterations
        self._bw = link_bandwidth
        self._router_noise = router_noise_pct_per_flit
        self._burstiness = burstiness

    @property
    def routing(self) -> RoutingAlgorithm:
        return self._routing

    def evaluate(
        self,
        flows: Sequence[Flow],
        psn_pct: Optional[np.ndarray] = None,
        per_hop_cycles: float = 3.0,
        psn_valid: Optional[np.ndarray] = None,
        dead_links: Optional[Set[Tuple[int, Direction]]] = None,
        dead_routers: Optional[Set[int]] = None,
    ) -> NocLoadReport:
        """Per-flow scalar evaluation (the oracle for the array model)."""
        n_tiles = self._topo.mesh.tile_count
        if psn_pct is None:
            psn_pct = np.zeros(n_tiles)
        psn_pct = np.asarray(psn_pct, dtype=float)
        if psn_pct.shape != (n_tiles,):
            raise ValueError(f"psn_pct must have shape ({n_tiles},)")
        if psn_valid is not None:
            psn_valid = np.asarray(psn_valid, dtype=bool)
            if psn_valid.shape != (n_tiles,):
                raise ValueError(f"psn_valid must have shape ({n_tiles},)")
        dead_links = dead_links or set()
        dead_routers = dead_routers or set()
        for f in flows:
            self._topo.mesh._check_tile(f.src)
            self._topo.mesh._check_tile(f.dst)

        link_load: Dict[Tuple[int, Direction], float] = {}
        router_load = np.zeros(n_tiles)
        # Relaxed copies fed to the routing contexts: adaptive policies
        # with sharp argmin selection can oscillate between iterations
        # (all flow flips to the quiet side, which then becomes the loud
        # side); under-relaxation damps the fixed point.
        ctx_link: Dict[Tuple[int, Direction], float] = {}
        ctx_router = np.zeros(n_tiles)
        per_flow_splits: List[Dict[int, Dict[Direction, float]]] = []

        unroutable: List[bool] = [False] * len(flows)
        residual = 0.0
        for it in range(self._iterations):
            prev_load = link_load
            contexts = self._build_contexts(
                ctx_link, ctx_router, psn_pct, psn_valid
            )
            link_load, router_load, per_flow_splits, unroutable = (
                self._propagate(flows, contexts, dead_links, dead_routers)
            )
            residual = max(
                (
                    abs(link_load.get(k, 0.0) - prev_load.get(k, 0.0))
                    for k in {**prev_load, **link_load}
                ),
                default=0.0,
            )
            blend = 0.5 if it else 1.0
            keys = set(ctx_link) | set(link_load)
            ctx_link = {
                k: (1 - blend) * ctx_link.get(k, 0.0)
                + blend * link_load.get(k, 0.0)
                for k in keys
            }
            ctx_router = (1 - blend) * ctx_router + blend * router_load

        link_rho = {
            link: min(load * self._burstiness / self._bw, RHO_MAX)
            for link, load in link_load.items()
        }
        saturated = any(
            load * self._burstiness / self._bw > RHO_MAX
            for load in link_load.values()
        )
        flow_stats = [
            self._flow_latency(f, split, link_rho, per_hop_cycles, blocked)
            for f, split, blocked in zip(flows, per_flow_splits, unroutable)
        ]
        return NocLoadReport(
            router_flits_per_cycle=router_load,
            link_rho=link_rho,
            flows=flow_stats,
            saturated=saturated,
            iterations=self._iterations,
            residual=residual,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _build_contexts(
        self,
        link_load: Dict[Tuple[int, Direction], float],
        router_load: np.ndarray,
        psn_pct: np.ndarray,
        psn_valid: Optional[np.ndarray] = None,
    ) -> List[RoutingContext]:
        """Per-router routing contexts from the previous iteration."""
        topo = self._topo
        contexts = []
        for tile in topo.mesh.tiles():
            incoming = [
                link_load.get((topo.neighbor(tile, d), d.opposite), 0.0)
                for d in topo.out_directions(tile)
            ]
            occupancy = (
                min(1.0, max(incoming) * self._burstiness / self._bw)
                if incoming
                else 0.0
            )
            rates = {}
            noise = {}
            trusted = {}
            out_rho = {}
            for d in topo.out_directions(tile):
                n = topo.neighbor(tile, d)
                rates[d] = float(router_load[n])
                if psn_valid is not None:
                    trusted[d] = bool(psn_valid[n])
                # The sensors a real PANR consults see the *current*
                # noise, which includes the router activity the routing
                # itself creates; feeding the running load estimate back
                # here lets the fixed point co-converge instead of
                # funnelling all traffic through one "quiet" corridor.
                noise[d] = float(psn_pct[n]) + self._router_noise * float(
                    router_load[n]
                )
                out_rho[d] = min(
                    link_load.get((tile, d), 0.0) * self._burstiness / self._bw,
                    1.0,
                )
            contexts.append(
                RoutingContext(
                    buffer_occupancy=occupancy,
                    neighbor_data_rate=rates,
                    neighbor_psn_pct=noise,
                    neighbor_psn_valid=trusted,
                    out_link_rho=out_rho,
                )
            )
        return contexts

    def _propagate(
        self,
        flows: Sequence[Flow],
        contexts: List[RoutingContext],
        dead_links: Set[Tuple[int, Direction]],
        dead_routers: Set[int],
    ):
        topo = self._topo
        faulty = bool(dead_links or dead_routers)
        link_load: Dict[Tuple[int, Direction], float] = {}
        router_load = np.zeros(topo.mesh.tile_count)
        per_flow_splits: List[Dict[int, Dict[Direction, float]]] = []
        unroutable: List[bool] = []

        for flow in flows:
            splits: Dict[int, Dict[Direction, float]] = {}
            blocked = False
            if flow.rate <= 0.0 or flow.src == flow.dst:
                per_flow_splits.append(splits)
                unroutable.append(False)
                continue
            if faulty and (flow.src in dead_routers or flow.dst in dead_routers):
                per_flow_splits.append(splits)
                unroutable.append(True)
                continue
            # Process nodes in decreasing distance from dst: minimal
            # routing guarantees each hop reduces the distance, so every
            # node's inflow is complete by the time it is expanded.
            pending: Dict[int, float] = {flow.src: flow.rate}
            while pending:
                node = max(
                    pending, key=lambda n: topo.hops(n, flow.dst)
                )
                rate = pending.pop(node)
                router_load[node] += rate
                if node == flow.dst:
                    continue
                weights = self._routing.weights(
                    topo, node, flow.dst, contexts[node]
                )
                if faulty:
                    # Route around dead components: drop directions over
                    # a failed link or into a failed router.  When every
                    # permissible direction is dead the flow's remaining
                    # rate dies here and the flow is declared unroutable
                    # (the runtime re-maps the owning application).
                    weights = {
                        d: w
                        for d, w in weights.items()
                        if (node, d) not in dead_links
                        and topo.neighbor(node, d) not in dead_routers
                    }
                total = sum(weights.values())
                if total <= 0:
                    blocked = True
                    continue
                node_split: Dict[Direction, float] = {}
                for d, w in weights.items():
                    share = rate * w / total
                    if share <= 0:
                        continue
                    node_split[d] = share
                    link = (node, d)
                    link_load[link] = link_load.get(link, 0.0) + share
                    nxt = topo.neighbor(node, d)
                    pending[nxt] = pending.get(nxt, 0.0) + share
                splits[node] = node_split
            per_flow_splits.append(splits)
            unroutable.append(blocked)
        return link_load, router_load, per_flow_splits, unroutable

    def _flow_latency(
        self,
        flow: Flow,
        splits: Dict[int, Dict[Direction, float]],
        link_rho: Dict[Tuple[int, Direction], float],
        per_hop_cycles: float,
        unroutable: bool = False,
    ) -> FlowStats:
        if flow.src == flow.dst or flow.rate <= 0.0 or not splits:
            return FlowStats(
                avg_hops=0.0,
                header_latency_cycles=0.0,
                max_rho=0.0,
                unroutable=unroutable,
            )
        # Dynamic programming from dst outward over the split DAG.
        hops: Dict[int, float] = {flow.dst: 0.0}
        lat: Dict[int, float] = {flow.dst: 0.0}
        worst: Dict[int, float] = {flow.dst: 0.0}
        nodes = sorted(
            splits, key=lambda n: self._topo.hops(n, flow.dst)
        )
        for node in nodes:
            node_split = splits[node]
            total = sum(node_split.values())
            if total <= 0:
                continue
            h = l = 0.0
            w_max = 0.0
            for d, share in node_split.items():
                nxt = self._topo.neighbor(node, d)
                rho = link_rho.get((node, d), 0.0)
                queue = rho / (2.0 * (1.0 - min(rho, RHO_MAX)))
                frac = share / total
                h += frac * (1.0 + hops.get(nxt, 0.0))
                l += frac * (per_hop_cycles + queue + lat.get(nxt, 0.0))
                w_max = max(w_max, rho, worst.get(nxt, 0.0))
            hops[node] = h
            lat[node] = l
            worst[node] = w_max
        return FlowStats(
            avg_hops=hops.get(flow.src, 0.0),
            header_latency_cycles=lat.get(flow.src, 0.0),
            max_rho=worst.get(flow.src, 0.0),
            unroutable=unroutable,
        )
