"""Flow-based analytical NoC model for runtime simulations.

Cycle-accurate simulation of seconds of NoC traffic is far too slow for
the Fig. 6-8 sweeps, so the runtime uses this model: every APG edge of a
mapped application becomes a *flow* (source tile, destination tile, flit
rate), flows are propagated through the mesh splitting fractionally at
each router according to the routing policy's weights, and per-link
utilisation / per-router activity / expected latency fall out.

Adaptive policies (PANR, ICON) react to congestion and PSN, which in turn
depend on the routing - so the model iterates to a fixed point: routing
weights are computed against the previous iteration's link loads, router
activities and PSN sensor values.  Context-free policies (XY,
west-first, odd-even) ignore that state, so one iteration is already
the fixed point.

Latency uses an M/D/1-style queueing term per link: a link with
utilisation ``rho`` delays a flit ``rho / (2 (1 - rho))`` service slots on
average, on top of the router pipeline latency.  Utilisation is clamped
just below 1; a clamped link marks the report as saturated.

The model is array-native.  Per-port state is ``(n, 4)`` arrays in
port-code order (EAST, WEST, NORTH, SOUTH), gathered through
:meth:`MeshTopology.neighbor_codes`.  Each iteration asks the policy for
one weight table ``T[tile, permissible_mask, port]``
(:meth:`RoutingAlgorithm.weight_table`), then sweeps a dense ``(flows,
tiles)`` pending-rate matrix level by level, from the largest hop
distance to the destination down: minimal routing makes every hop
reduce that distance, so a tile's in-flow is complete when its level is
expanded.  The per-flow latency DP runs back up over the same records.

Results are bit-identical to the scalar per-flow model kept in
:mod:`repro.noc.analytical_ref` as the test oracle: a tile's in-flow and
a router's direction sum each have at most two non-zero terms (order
cannot matter), and loads shared between flows are summed sequentially
in flow order, exactly as the scalar loop adds them.

The same :class:`~repro.noc.routing.base.RoutingAlgorithm` weights drive
the cycle-level simulator, so the two models express one policy;
``tests/noc/test_cross_validation.py`` checks their rank agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.noc.routing.base import (
    MESH_COLUMNS,
    N_MASKS,
    RouterState,
    RoutingAlgorithm,
)
from repro.noc.topology import MESH_DIRECTIONS, Direction, MeshTopology

#: Utilisation clamp: loads above this mark the network saturated.
RHO_MAX = 0.95

#: Column of the opposite port, per :data:`MESH_COLUMNS` column.
_OPPOSITE_COLUMN = np.array(
    [MESH_COLUMNS[d.opposite] for d in MESH_DIRECTIONS], dtype=np.int64
)


@dataclass(frozen=True)
class Flow:
    """One traffic flow (an APG edge mapped onto tiles).

    Attributes:
        src: Source tile id.
        dst: Destination tile id.
        rate: Offered load in flits per cycle.
    """

    src: int
    dst: int
    rate: float

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("rate must be non-negative")


@dataclass
class FlowStats:
    """Per-flow results of an analytical evaluation.

    ``unroutable`` marks a flow that cannot reach its destination under
    the active fault set (dead endpoint router, or every permissible
    direction dead somewhere along the minimal-path DAG); its other
    statistics then describe only the reachable prefix.
    """

    avg_hops: float
    header_latency_cycles: float
    max_rho: float
    unroutable: bool = False

    @property
    def latency_scale(self) -> float:
        """Congestion multiplier for the flow's serialisation time
        (>= 1; grows as the bottleneck link approaches saturation)."""
        return 1.0 / (1.0 - min(self.max_rho, RHO_MAX))


@dataclass
class NocLoadReport:
    """Chip-wide results of one analytical evaluation.

    Attributes:
        router_flits_per_cycle: Flits traversing each router per cycle
            (including injection and ejection), indexed by tile id.
        link_rho: Utilisation per unidirectional link that carried
            flow, keyed in ``(tile, port)`` row-major order.
        flows: Per-flow statistics, in input order.
        saturated: True when any link hit the utilisation clamp.
        iterations: Fixed-point iterations run (1 for context-free
            policies).
        residual: Fixed-point health: the largest change of any link
            load (flits/cycle) between the last two iterations; the
            first iteration compares against zero load.  Exactly 0.0
            for context-free policies, whose one iteration is exact.
            Diagnostic only - no result reads it.
    """

    router_flits_per_cycle: np.ndarray
    link_rho: Dict[Tuple[int, Direction], float]
    flows: List[FlowStats]
    saturated: bool
    iterations: int = 1
    residual: float = 0.0

    @property
    def unroutable_flow_indices(self) -> List[int]:
        """Input-order indices of flows the fault set made unroutable."""
        return [i for i, f in enumerate(self.flows) if f.unroutable]

    @property
    def avg_latency_cycles(self) -> float:
        """Unweighted mean header latency over all flows (zero-rate and
        local flows count with latency 0)."""
        if not self.flows:
            return 0.0
        return float(np.mean([f.header_latency_cycles for f in self.flows]))

    @property
    def max_router_rate(self) -> float:
        return float(np.max(self.router_flits_per_cycle))


def _flow_order_sum(rows: np.ndarray) -> np.ndarray:
    """Sum over axis 0 strictly in row order, as the scalar loop adds
    per-flow loads (``cumsum`` never reassociates)."""
    if len(rows) == 0:
        return np.zeros(rows.shape[1:])
    return np.cumsum(rows, axis=0)[-1]


def _port_sum(values: np.ndarray) -> np.ndarray:
    """Sum over the last (port) axis left to right."""
    return ((values[..., 0] + values[..., 1]) + values[..., 2]) + values[..., 3]


class _Level(NamedTuple):
    """The (flow, tile) records at one hop distance from their
    destinations, with the flat indices every iteration reuses."""

    hops: int
    #: Flat (flow, tile) index into ``(flows, tiles)`` matrices.
    cell: np.ndarray
    #: Row of the ``(flows * (tiles + 1), 4)`` share matrix.
    share_row: np.ndarray
    #: ``(R, 4)`` flat indices of the shares the neighbours one level
    #: out send towards the record (the zero pad row at mesh edges).
    inflow: np.ndarray
    #: Offered rate at the flow's source record, 0 elsewhere.
    inject: np.ndarray
    #: Row of the ``(tiles * N_MASKS, 4)`` weight table.
    entry: np.ndarray
    #: ``(R, 4)`` flat (flow, next tile) index per port for the DP.
    next_cell: np.ndarray


class AnalyticalNocModel:
    """Fixed-point flow model over one routing policy.

    Args:
        topo: The mesh topology.
        routing: Routing policy (weights drive the flow splits).
        iterations: Fixed-point iterations for context-dependent
            policies (2-3 suffice; context-free policies always run 1).
        link_bandwidth: Flits per cycle a link can carry (1.0 for a
            single-flit-wide link).
        router_noise_pct_per_flit: PSN a flit/cycle of router activity
            adds to the tile's sensor reading, fed back into PSN-aware
            routing decisions within the fixed point.
        burstiness: Ratio of instantaneous to average offered load used
            for link-utilisation (congestion) estimates.  Wormhole
            traffic arrives in packet bursts, so links saturate well
            below an average utilisation of 1; router *power* still uses
            the raw average activity.
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
        self._table = routing.permissible_table(topo)
        #: (n, 4) neighbour per port, -1 at mesh edges; ``_nb`` points
        #: edges at tile 0 and ``_upstream`` at the zero pad row ``n``
        #: of the share matrix, for safe gathers.
        self._nbr = topo.neighbor_codes()[:, 1:]
        self._has = self._nbr >= 0
        self._nb = np.where(self._has, self._nbr, 0)
        self._upstream = np.where(self._has, self._nbr, topo.mesh.tile_count)
        tiles = np.arange(topo.mesh.tile_count)
        self._x = tiles % topo.mesh.width
        self._y = tiles // topo.mesh.width
        self._static = (
            routing.weight_table(topo, self._table, None)
            if routing.context_free
            else None
        )

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
        """Evaluate the network under a set of flows.

        Args:
            flows: Offered traffic.
            psn_pct: Per-tile PSN sensor readings consumed by PSN-aware
                policies (zeros if omitted).
            per_hop_cycles: Router pipeline latency per hop.
            psn_valid: Per-tile boolean mask; False marks a sensor
                reading as untrustworthy (detected fault or stale), so
                PSN-aware policies fall back to deterministic routing at
                the affected hops.  ``None`` means all readings valid.
            dead_links: Failed unidirectional links - no flow traverses
                them; adaptive policies route around them where the
                minimal-path DAG allows.
            dead_routers: Failed routers - no flow traverses, originates
                at or terminates at them.

        A flow that cannot reach its destination under the fault set is
        flagged :attr:`FlowStats.unroutable` instead of raising, so the
        runtime can re-map the owning application.

        Returns:
            The :class:`NocLoadReport`.
        """
        mesh = self._topo.mesh
        n_tiles = mesh.tile_count
        if psn_pct is None:
            psn_pct = np.zeros(n_tiles)
        psn_pct = np.asarray(psn_pct, dtype=float)
        if psn_pct.shape != (n_tiles,):
            raise ValueError(f"psn_pct must have shape ({n_tiles},)")
        if psn_valid is not None:
            psn_valid = np.asarray(psn_valid, dtype=bool)
            if psn_valid.shape != (n_tiles,):
                raise ValueError(f"psn_valid must have shape ({n_tiles},)")
        ends = np.array(
            [(f.src, f.dst) for f in flows], dtype=np.int64
        ).reshape(-1, 2)
        bad = (ends < 0) | (ends >= n_tiles)
        if bad.any():
            # Same error as MeshGeometry for the first bad id in order.
            mesh.coord_of(int(ends[bad][0]))
        src, dst = ends[:, 0], ends[:, 1]
        rate = np.array([f.rate for f in flows], dtype=float)
        active = (rate > 0.0) & (src != dst)
        unroutable = np.zeros(len(flows), dtype=bool)
        alive = self._has
        if dead_links or dead_routers:
            alive, dead_end = self._fault_masks(
                dead_links or set(), dead_routers or set(), src, dst
            )
            unroutable |= active & dead_end
            active &= ~dead_end

        levels = self._levels(src, dst, rate, active)
        ctx_link = np.zeros((n_tiles, len(MESH_DIRECTIONS)))
        ctx_router = np.zeros(n_tiles)
        link_load = ctx_link
        residual = 0.0
        context_free = self._static is not None
        iterations = 1 if context_free else self._iterations
        for it in range(iterations):
            table = (
                self._static
                if context_free
                else self._routing.weight_table(
                    self._topo,
                    self._table,
                    self._router_state(ctx_link, ctx_router, psn_pct, psn_valid),
                )
            )
            if alive is not self._has:
                table = np.where(alive[:, None, :], table, 0.0)
            pending, shares, blocked = self._propagate(
                levels, table, len(flows)
            )
            router_load = _flow_order_sum(pending)
            new_load = _flow_order_sum(shares[:, :n_tiles])
            residual = float(np.max(np.abs(new_load - link_load), initial=0.0))
            link_load = new_load
            # Relaxed copies fed to the routing contexts: adaptive
            # policies with sharp argmin selection can oscillate between
            # iterations (all flow flips to the quiet side, which then
            # becomes the loud side); under-relaxation damps the fixed
            # point.
            blend = 0.5 if it else 1.0
            ctx_link = (1 - blend) * ctx_link + blend * link_load
            ctx_router = (1 - blend) * ctx_router + blend * router_load
        if context_free:
            residual = 0.0
        unroutable |= blocked

        util = link_load * self._burstiness / self._bw
        rho = np.minimum(util, RHO_MAX)
        tiles, ports = np.nonzero((shares[:, :n_tiles] > 0.0).any(axis=0))
        link_rho = {
            (t, MESH_DIRECTIONS[c]): v
            for t, c, v in zip(
                tiles.tolist(), ports.tolist(), rho[tiles, ports].tolist()
            )
        }
        hops, latency, worst = self._latency(
            levels, shares, rho, per_hop_cycles
        )
        rows = np.arange(len(flows))
        flow_stats = [
            FlowStats(h, lat, w, u)
            for h, lat, w, u in zip(
                hops[rows, src].tolist(),
                latency[rows, src].tolist(),
                worst[rows, src].tolist(),
                unroutable.tolist(),
            )
        ]
        return NocLoadReport(
            router_flits_per_cycle=router_load,
            link_rho=link_rho,
            flows=flow_stats,
            saturated=bool((util[tiles, ports] > RHO_MAX).any()),
            iterations=iterations,
            residual=residual,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _fault_masks(
        self,
        dead_links: Set[Tuple[int, Direction]],
        dead_routers: Set[int],
        src: np.ndarray,
        dst: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(alive, dead_end)``: usable ports (n, 4) and flows with a
        dead endpoint router."""
        n_tiles = self._topo.mesh.tile_count
        alive = self._has.copy()
        for tile, d in sorted(
            dead_links, key=lambda link: (link[0], link[1].value)
        ):
            if d in MESH_COLUMNS and 0 <= tile < n_tiles:
                alive[tile, MESH_COLUMNS[d]] = False
        # Slot n stays False: the -1 "no neighbour" entries index it.
        dead = np.zeros(n_tiles + 1, dtype=bool)
        dead[[t for t in sorted(dead_routers) if 0 <= t < n_tiles]] = True
        alive &= ~dead[self._nbr]
        return alive, dead[src] | dead[dst]

    def _levels(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        rate: np.ndarray,
        active: np.ndarray,
    ) -> List[_Level]:
        """Candidate (flow, tile) records grouped by hop distance to the
        flow's destination, farthest level first, destinations last.

        Minimal routes stay inside the source-destination bounding box,
        so only its tiles are candidates; which of them a flow actually
        reaches is decided per iteration by its in-flow.
        """
        n_tiles = self._topo.mesh.tile_count
        fa = np.flatnonzero(active)
        x, y = self._x, self._y
        sx, sy, dx, dy = x[src[fa]], y[src[fa]], x[dst[fa]], y[dst[fa]]
        inside = (
            (x >= np.minimum(sx, dx)[:, None])
            & (x <= np.maximum(sx, dx)[:, None])
            & (y >= np.minimum(sy, dy)[:, None])
            & (y <= np.maximum(sy, dy)[:, None])
        )
        row, ni = np.nonzero(inside)
        fi = fa[row]
        level = self._topo.hops_table()[ni, dst[fi]]
        order = np.argsort(-level, kind="stable")
        fi, ni, level = fi[order], ni[order], level[order]
        pad_row = fi * (n_tiles + 1)
        columns = (
            fi * n_tiles + ni,
            pad_row + ni,
            (pad_row[:, None] + self._upstream[ni]) * len(MESH_DIRECTIONS)
            + _OPPOSITE_COLUMN,
            np.where(ni == src[fi], rate[fi], 0.0),
            ni * N_MASKS + self._table.perm_mask[ni, dst[fi]],
            (fi * n_tiles)[:, None] + self._nb[ni],
        )
        bounds = [0, *(np.flatnonzero(np.diff(level)) + 1).tolist(), len(level)]
        return [
            _Level(int(level[a]), *(c[a:b] for c in columns))
            for a, b in zip(bounds, bounds[1:])
            if b > a
        ]

    def _router_state(
        self,
        link_load: np.ndarray,
        router_load: np.ndarray,
        psn_pct: np.ndarray,
        psn_valid: Optional[np.ndarray],
    ) -> RouterState:
        """Every router's routing context from the previous iteration."""
        has, nb = self._has, self._nb
        incoming = np.where(has, link_load[nb, _OPPOSITE_COLUMN], 0.0)
        neighbor_load = router_load[nb]
        return RouterState(
            buffer_occupancy=np.minimum(
                1.0, incoming.max(axis=1) * self._burstiness / self._bw
            ),
            neighbor_data_rate=np.where(has, neighbor_load, 0.0),
            # The sensors a real PANR consults see the *current* noise,
            # which includes the router activity the routing itself
            # creates; feeding the running load estimate back here lets
            # the fixed point co-converge instead of funnelling all
            # traffic through one "quiet" corridor.
            neighbor_psn_pct=np.where(
                has, psn_pct[nb] + self._router_noise * neighbor_load, 0.0
            ),
            neighbor_psn_valid=(
                None if psn_valid is None else np.where(has, psn_valid[nb], True)
            ),
            out_link_rho=np.minimum(
                link_load * self._burstiness / self._bw, 1.0
            ),
        )

    def _propagate(
        self, levels: List[_Level], table: np.ndarray, n_flows: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One level-synchronous sweep of every flow under ``table``.

        A record's rate is its injection (at the source) plus its
        in-flow: the shares its up-to-four neighbours one level farther
        out sent towards it.  Returns ``(pending, shares, blocked)``:
        the rate through each router per (flow, tile), the link shares
        per (flow, tile, port) - row ``n`` of each flow is a zero pad
        that mesh-edge gathers read - and the flows stopped at a tile
        with no usable direction.
        """
        n_tiles, n_ports = self._topo.mesh.tile_count, len(MESH_DIRECTIONS)
        pending = np.zeros(n_flows * n_tiles)
        shares = np.zeros((n_flows * (n_tiles + 1), n_ports))
        flat_shares = shares.reshape(-1)
        blocked = np.zeros(n_flows, dtype=bool)
        weights = table.reshape(-1, n_ports)
        total = _port_sum(weights)
        for lv in levels:
            r = _port_sum(flat_shares[lv.inflow]) + lv.inject
            pending[lv.cell] = r
            if lv.hops == 0:
                continue  # destinations eject
            tot = total[lv.entry]
            routable = tot > 0.0
            if not routable.all():
                # Every permissible direction is dead here: a reached
                # flow's remaining rate dies and it is unroutable.
                stuck = lv.cell[(r > 0.0) & ~routable] // n_tiles
                blocked[stuck] = True
                tot = np.where(routable, tot, np.inf)
            share = r[:, None] * weights[lv.entry] / tot[:, None]
            shares[lv.share_row] = np.where(share > 0.0, share, 0.0)
        return (
            pending.reshape(n_flows, n_tiles),
            shares.reshape(n_flows, n_tiles + 1, n_ports),
            blocked,
        )

    def _latency(
        self,
        levels: List[_Level],
        shares: np.ndarray,
        rho: np.ndarray,
        per_hop_cycles: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-(flow, tile) expected hops, header latency and worst link
        utilisation to the destination: a DP from the destination
        outward over the split DAG, nearest level first.  Records that
        split no flow keep 0, like tiles the scalar DP never visits."""
        n_flows, n_tiles = shares.shape[0], shares.shape[1] - 1
        hops = np.zeros(n_flows * n_tiles)
        latency = np.zeros(n_flows * n_tiles)
        worst = np.zeros(n_flows * n_tiles)
        queue = rho / (2.0 * (1.0 - np.minimum(rho, RHO_MAX)))
        rows = shares.reshape(-1, len(MESH_DIRECTIONS))
        for lv in reversed(levels):
            if lv.hops == 0:
                continue
            share = rows[lv.share_row]
            total = _port_sum(share)
            used = share > 0.0
            frac = share / np.where(total > 0.0, total, 1.0)[:, None]
            tiles = lv.cell % n_tiles
            hops[lv.cell] = _port_sum(
                np.where(used, frac * (1.0 + hops[lv.next_cell]), 0.0)
            )
            latency[lv.cell] = _port_sum(
                np.where(
                    used,
                    frac * (per_hop_cycles + queue[tiles] + latency[lv.next_cell]),
                    0.0,
                )
            )
            worst[lv.cell] = np.where(
                used, np.maximum(rho[tiles], worst[lv.next_cell]), 0.0
            ).max(axis=1)
        shape = (n_flows, n_tiles)
        return hops.reshape(shape), latency.reshape(shape), worst.reshape(shape)
