"""Routing algorithm interface shared by the cycle and analytical models.

A routing algorithm answers two questions at each router:

* ``permissible(cur, dst)`` - which output directions keep the route
  minimal and deadlock-free;
* ``weights(cur, dst, ctx)`` - how to distribute traffic over those
  directions given the router's local view (buffer occupancy, neighbour
  data rates, neighbour PSN sensor readings).

The cycle-level simulator picks the argmax-weight direction per packet;
the analytical model splits flows fractionally by the same weights, so
both models express one policy.

The analytical model asks for the weights in bulk: a
:class:`PermissibleTable` packs ``permissible(cur, dst)`` into a 4-bit
mask per tile pair, and :meth:`RoutingAlgorithm.weight_table` returns
the weights of every ``(tile, mask)`` pair at once from a
:class:`RouterState` (the array form of every router's context).  That
relies on one contract: ``weights`` depends on ``dst`` only through
``permissible(cur, dst)``.

The cycle engine asks for hop choices in bulk the same way:
:meth:`RoutingAlgorithm.select_ports` takes every head flit's decision
of one cycle as the rows of a :class:`RouterState` and returns one
port code per row, equal to :meth:`RoutingAlgorithm.select` row for
row.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.noc.topology import (
    MESH_DIRECTIONS,
    PORT_CODES,
    Direction,
    MeshTopology,
)

#: Number of distinct permissible masks: bit ``j`` of a mask stands for
#: ``MESH_DIRECTIONS[j]`` (EAST, WEST, NORTH, SOUTH - port codes 1..4),
#: which is also the column order of every ``(n, 4)`` per-port array.
N_MASKS = 16

#: Direction -> column of the per-port arrays / bit of the masks.
MESH_COLUMNS: Dict[Direction, int] = {
    d: j for j, d in enumerate(MESH_DIRECTIONS)
}


def mask_columns(mask: int) -> Tuple[int, ...]:
    """Columns (ascending) of the directions set in a permissible mask."""
    return tuple(j for j in range(len(MESH_DIRECTIONS)) if mask >> j & 1)


#: Per mask: its lowest and highest set column (-1 for the empty mask).
_MASK_LOW = np.array([min(mask_columns(m), default=-1) for m in range(N_MASKS)])
_MASK_HIGH = np.array([max(mask_columns(m), default=-1) for m in range(N_MASKS)])

#: Column -> port code, with the empty mask's -1 mapping to LOCAL.
_COLUMN_CODES = np.array(
    [PORT_CODES[d] for d in MESH_DIRECTIONS] + [PORT_CODES[Direction.LOCAL]]
)


@dataclass
class RoutingContext:
    """Local state a router consults when selecting among directions.

    Attributes:
        buffer_occupancy: Occupancy of the input channel making the
            decision, as a fraction of buffer depth in [0, 1].
        neighbor_data_rate: Incoming data rate (flits/cycle) observed at
            the adjacent router in each direction.
        neighbor_psn_pct: PSN sensor reading (percent of Vdd) of the
            adjacent tile in each direction.
        neighbor_psn_valid: Whether the adjacent tile's PSN reading can
            be trusted (False for a detected sensor fault or a stale
            reading).  Directions absent from the map are treated as
            valid, so fault-free callers need not populate it.
        out_link_rho: Utilisation of this router's outgoing link per
            direction.  Credit-based flow control stalls flits towards a
            backed-up neighbour no matter which direction the policy
            prefers, so adaptive weights are gated by it.
    """

    buffer_occupancy: float = 0.0
    neighbor_data_rate: Dict[Direction, float] = field(default_factory=dict)
    neighbor_psn_pct: Dict[Direction, float] = field(default_factory=dict)
    neighbor_psn_valid: Dict[Direction, bool] = field(default_factory=dict)
    out_link_rho: Dict[Direction, float] = field(default_factory=dict)

    def psn_trusted(self, direction: Direction) -> bool:
        """Whether the PSN reading toward ``direction`` is trustworthy."""
        return self.neighbor_psn_valid.get(direction, True)


@dataclass(frozen=True)
class RouterState:
    """Many :class:`RoutingContext` at once, as arrays.

    Each row is one context: one per router for the analytical model,
    one per routing decision for the cycle engine (a router deciding
    for two input ports gives two rows).  ``buffer_occupancy`` is
    ``(rows,)``; the other arrays are ``(rows, 4)`` with columns in
    :data:`MESH_COLUMNS` order.  A port without a neighbour holds 0
    (True in ``neighbor_psn_valid``); ``neighbor_psn_valid`` is
    ``None`` when every reading is trusted.
    """

    buffer_occupancy: np.ndarray
    neighbor_data_rate: np.ndarray
    neighbor_psn_pct: np.ndarray
    neighbor_psn_valid: Optional[np.ndarray]
    out_link_rho: np.ndarray

    def context(
        self, topo: MeshTopology, tile: int, row: Optional[int] = None
    ) -> RoutingContext:
        """The scalar context of router ``tile``, read from ``row``.

        ``row`` defaults to ``tile`` (one row per router).
        """
        r = tile if row is None else row
        dirs = topo.out_directions(tile)
        cols = [MESH_COLUMNS[d] for d in dirs]
        trusted: Dict[Direction, bool] = {}
        if self.neighbor_psn_valid is not None:
            valid = self.neighbor_psn_valid[r].tolist()
            trusted = {d: valid[c] for d, c in zip(dirs, cols)}
        rates = self.neighbor_data_rate[r].tolist()
        noise = self.neighbor_psn_pct[r].tolist()
        rho = self.out_link_rho[r].tolist()
        return RoutingContext(
            buffer_occupancy=float(self.buffer_occupancy[r]),
            neighbor_data_rate={d: rates[c] for d, c in zip(dirs, cols)},
            neighbor_psn_pct={d: noise[c] for d, c in zip(dirs, cols)},
            neighbor_psn_valid=trusted,
            out_link_rho={d: rho[c] for d, c in zip(dirs, cols)},
        )


class PermissibleTable:
    """One policy's permissible directions over one topology, as masks.

    ``perm_mask[cur, dst]`` packs ``permissible(cur, dst)`` into bits
    (:data:`MESH_COLUMNS`); ``perm_rep_dst[cur, mask]`` is one
    destination whose mask at ``cur`` is ``mask`` (-1 where none is),
    enough to evaluate ``weights`` for that pair.  Building it checks
    that every permissible hop is minimal, which the analytical model's
    level-by-level propagation needs.
    """

    #: Read-only once built; shared by every model over the topology.
    __shared_readonly__ = ("perm_mask", "perm_rep_dst")

    def __init__(self, topo: MeshTopology, routing: "RoutingAlgorithm"):
        n = topo.mesh.tile_count
        hops = topo.hops_table()
        mask = np.zeros((n, n), dtype=np.int64)
        rep = np.full((n, N_MASKS), -1, dtype=np.int64)
        for cur in range(n):
            for dst in range(n):
                bits = 0
                for d in routing.permissible(topo, cur, dst):
                    nxt = topo.neighbor(cur, d)
                    if nxt is None or hops[nxt, dst] != hops[cur, dst] - 1:
                        raise ValueError(
                            f"{routing.name}: {d.name} at tile {cur} towards "
                            f"{dst} is not a minimal hop"
                        )
                    bits |= 1 << MESH_COLUMNS[d]
                mask[cur, dst] = bits
                if rep[cur, bits] < 0:
                    rep[cur, bits] = dst
        self.perm_mask = mask
        self.perm_rep_dst = rep
        #: Non-empty masks that occur anywhere, ascending.
        self.masks_used: Tuple[int, ...] = tuple(
            m for m in np.unique(mask).tolist() if m
        )


def _libm_square(x: np.ndarray) -> np.ndarray:
    """``x ** 2`` elementwise with CPython's float power (libm ``pow``).

    The scalar policies square Python floats; NumPy's ``square`` (and
    ``power`` with exponent 2) multiplies instead and rounds a small
    fraction of inputs differently, so array tables that must equal the
    scalar weights bit for bit square through Python.
    """
    return np.array([v**2 for v in x.tolist()], dtype=float)


def _soft_min_pair(
    ma: np.ndarray, mb: np.ndarray, gate_a: np.ndarray, gate_b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Soft-min weights of two-direction choices, elementwise.

    Direction ``d`` weighs ``1 / (metric[d] - min + 0.4) ** 2 * gate``.
    The winner's denominator is the constant ``0.4 ** 2``, so only the
    loser's takes a ``pow`` call, through :func:`_libm_square` so both
    weights equal the scalar policies' bit for bit.
    """
    near = 1.0 / 0.4**2
    far = 1.0 / _libm_square(np.abs(ma - mb) + 0.4)
    return (
        np.where(ma <= mb, near, far) * gate_a,
        np.where(mb <= ma, near, far) * gate_b,
    )


def soft_min_table(
    table: PermissibleTable, metric: np.ndarray, out_rho: np.ndarray
) -> np.ndarray:
    """Array form of the soft argmin shared by PANR and ICON.

    For every two-direction mask, direction ``d`` weighs
    ``1 / (metric[d] - min + 0.4) ** 2 * max(0.05, 1 - out_rho[d])``;
    a single-direction mask weighs 1.0 ungated.  Returns the
    ``(n, N_MASKS, 4)`` table.
    """
    n = metric.shape[0]
    out = np.zeros((n, N_MASKS, len(MESH_DIRECTIONS)))
    gate = np.maximum(0.05, 1.0 - out_rho)
    for m in table.masks_used:
        cols = mask_columns(m)
        if len(cols) == 1:
            out[:, m, cols[0]] = 1.0
            continue
        a, b = cols
        out[:, m, a], out[:, m, b] = _soft_min_pair(
            metric[:, a], metric[:, b], gate[:, a], gate[:, b]
        )
    return out


def soft_min_select(
    mask: np.ndarray, metric: np.ndarray, out_rho: np.ndarray
) -> np.ndarray:
    """Row-wise argmax of the :func:`soft_min_table` weights.

    ``mask[i]`` is row ``i``'s permissible mask, of at most two
    directions like every west-first mask; ``metric`` and ``out_rho``
    are ``(rows, 4)``.  Returns one port code per row: LOCAL for the
    empty mask, the only direction of a one-direction mask, and the
    heavier of two directions otherwise, ties going to the lower
    column (the order of ``list(Direction)``, which is how
    :meth:`RoutingAlgorithm.select` breaks them).
    """
    low = _MASK_LOW[mask]
    high = _MASK_HIGH[mask]
    cols = low.copy()
    two = np.nonzero(low != high)[0]
    if len(two):
        a, b = low[two], high[two]
        wa, wb = _soft_min_pair(
            metric[two, a],
            metric[two, b],
            np.maximum(0.05, 1.0 - out_rho[two, a]),
            np.maximum(0.05, 1.0 - out_rho[two, b]),
        )
        cols[two] = np.where(wb > wa, b, a)
    return _COLUMN_CODES[cols]


class RoutingAlgorithm(abc.ABC):
    """Base class for minimal mesh routing policies."""

    #: Evaluation name (e.g. ``"XY"``), used in experiment tables.
    name: str = "base"

    #: Whether :meth:`select` ignores the :class:`RoutingContext`, i.e.
    #: the chosen direction is a pure function of ``(cur, dst)``.  The
    #: array cycle engine precomputes a per-(tile, destination) route
    #: table for such policies instead of calling :meth:`select` per
    #: packet.  Defaults to False (safe); a subclass may only set it
    #: True when neither :meth:`weights` nor :meth:`select` reads the
    #: context - and must set it back to False when overriding either
    #: with a context-dependent version.
    context_free: bool = False

    @abc.abstractmethod
    def permissible(
        self, topo: MeshTopology, cur: int, dst: int
    ) -> List[Direction]:
        """Permitted output directions at ``cur`` for a packet to ``dst``.

        Returns an empty list when ``cur == dst`` (eject locally).
        """

    def weights(
        self,
        topo: MeshTopology,
        cur: int,
        dst: int,
        ctx: RoutingContext,
    ) -> Dict[Direction, float]:
        """Traffic-split weights over the permissible directions.

        The default policy is uniform; adaptive schemes override this.
        Weights are positive and need not be normalised.
        """
        dirs = self.permissible(topo, cur, dst)
        return {d: 1.0 for d in dirs}

    def permissible_table(self, topo: MeshTopology) -> PermissibleTable:
        """This policy's :class:`PermissibleTable` over ``topo``.

        Cached on the topology per policy class, so ``permissible``
        must depend only on the class (not on instance parameters).
        """
        return topo.derived(
            (type(self), "permissible"), lambda: PermissibleTable(topo, self)
        )

    def weight_table(
        self,
        topo: MeshTopology,
        table: PermissibleTable,
        state: Optional[RouterState],
    ) -> np.ndarray:
        """Weights of every (tile, permissible mask) pair, ``(n, 16, 4)``.

        ``out[cur, mask, MESH_COLUMNS[d]]`` must equal
        ``weights(topo, cur, dst, ctx)[d]`` for any ``dst`` with that
        mask at ``cur`` (0 where ``d`` gets no weight).  The default
        calls :meth:`weights` once per pair in use, at the table's
        representative destination; array overrides (PANR, ICON) must
        reproduce it bit for bit.  ``state`` is ``None`` only for
        :attr:`context_free` policies.
        """
        n = topo.mesh.tile_count
        out = np.zeros((n, N_MASKS, len(MESH_DIRECTIONS)))
        for cur in range(n):
            ctx = RoutingContext() if state is None else state.context(topo, cur)
            reps = table.perm_rep_dst[cur].tolist()
            for m in table.masks_used:
                if reps[m] < 0:
                    continue
                for d, w in self.weights(topo, cur, reps[m], ctx).items():
                    out[cur, m, MESH_COLUMNS[d]] = w
        return out

    def select(
        self,
        topo: MeshTopology,
        cur: int,
        dst: int,
        ctx: RoutingContext,
    ) -> Direction:
        """Single-direction choice (cycle model): highest weight wins,
        ties broken by direction order for determinism."""
        weights = self.weights(topo, cur, dst, ctx)
        if not weights:
            return Direction.LOCAL
        order = list(Direction)
        return max(weights, key=lambda d: (weights[d], -order.index(d)))

    def select_ports(
        self,
        topo: MeshTopology,
        cur: np.ndarray,
        dst: np.ndarray,
        state: RouterState,
    ) -> np.ndarray:
        """Many :meth:`select` calls at once, as port codes.

        Row ``i`` is a decision at tile ``cur[i]`` for destination
        ``dst[i]`` in the context of ``state``'s row ``i``; the result
        must equal ``PORT_CODES[select(topo, cur[i], dst[i], ctx)]``
        row for row (``cur[i] == dst[i]`` gives LOCAL).  The default
        calls :meth:`select` per row; array overrides (PANR, ICON) must
        reproduce it bit for bit.
        """
        out = np.empty(len(cur), np.int64)
        for i, (c, d) in enumerate(zip(cur.tolist(), dst.tolist())):
            ctx = state.context(topo, c, row=i)
            out[i] = PORT_CODES[self.select(topo, c, d, ctx)]
        return out
