"""Array hop selection (``select_ports``) vs scalar ``select``, row by row.

PANR and ICON override :meth:`RoutingAlgorithm.select_ports` with array
code that the batched cycle engine calls once per cycle; it must pick
the same port as the scalar :meth:`~RoutingAlgorithm.select` for every
row, including exact weight ties (first column wins) and PANR's XY
fallback on untrusted PSN readings.  A third-party adaptive policy that
only overrides ``weights`` runs through the base-class default, pinned
here lane by lane against the legacy simulator.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chip.mesh import MeshGeometry
from repro.noc.batch import BatchedNocEngine
from repro.noc.cycle import CycleNocSimulator, TrafficFlow
from repro.noc.routing import IconRouting, PanrRouting
from repro.noc.routing.base import RouterState
from repro.noc.routing.west_first import WestFirstRouting
from repro.noc.topology import PORT_CODES, Direction, MeshTopology

MESHES = [(4, 4), (8, 8), (10, 6)]

#: (policy factory, buffer threshold) pairs; ICON has no threshold.
POLICIES = [
    ("icon", None),
    ("panr", 0.0),
    ("panr", 0.25),
    ("panr", 0.5),
    ("panr", 1.0),
]


@functools.lru_cache(maxsize=None)
def topology(width, height):
    return MeshTopology(MeshGeometry(width, height))


def make_policy(name, threshold):
    if name == "icon":
        return IconRouting()
    return PanrRouting(buffer_threshold=threshold)


def scalar_codes(routing, topo, cur, dst, state):
    return [
        PORT_CODES[
            routing.select(topo, c, d, state.context(topo, c, row=i))
        ]
        for i, (c, d) in enumerate(zip(cur.tolist(), dst.tolist()))
    ]


def random_state(rng, rows, ties, threshold, faults):
    """Decision contexts; ``ties`` forces equal metrics and gates."""
    if ties:
        # Few distinct metric values, and utilisations whose gate
        # clamps to 0.05, so equal weights are common.
        rate = rng.choice([0.0, 0.25, 0.5], size=(rows, 4))
        psn = rng.choice([4.0, 12.0], size=(rows, 4))
        rho = rng.choice([0.96, 0.99, 1.0], size=(rows, 4))
    else:
        rate = rng.uniform(0.0, 1.0, size=(rows, 4))
        psn = rng.uniform(0.0, 15.0, size=(rows, 4))
        rho = rng.integers(0, 9, size=(rows, 4)) / 8
    occupancy = rng.integers(0, 9, size=rows) / 8
    if threshold is not None:
        # Exactly at the threshold stays on PSN (strict ``>``).
        occupancy[rng.random(rows) < 0.2] = threshold
    valid = rng.random((rows, 4)) > 0.3 if faults else None
    return RouterState(
        buffer_occupancy=occupancy,
        neighbor_data_rate=rate,
        neighbor_psn_pct=psn,
        neighbor_psn_valid=valid,
        out_link_rho=rho,
    )


@settings(max_examples=80, deadline=None)
@given(
    mesh=st.sampled_from(MESHES),
    policy=st.sampled_from(POLICIES),
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 64),
    ties=st.booleans(),
    faults=st.booleans(),
)
def test_array_selection_equals_scalar(mesh, policy, seed, rows, ties, faults):
    topo = topology(*mesh)
    routing = make_policy(*policy)
    rng = np.random.default_rng(seed)
    n = topo.mesh.tile_count
    cur = rng.integers(0, n, size=rows)
    dst = rng.integers(0, n, size=rows)
    state = random_state(rng, rows, ties, policy[1], faults)
    got = routing.select_ports(topo, cur, dst, state)
    assert got.tolist() == scalar_codes(routing, topo, cur, dst, state)


@pytest.mark.parametrize("policy", POLICIES)
def test_exact_tie_goes_to_first_column(policy):
    # Tile 0 of a 4x4 mesh towards tile 5: EAST or SOUTH.  Equal
    # metrics and clamped gates weigh both the same, so EAST (the
    # earlier direction) wins, as in scalar select.
    topo = topology(4, 4)
    routing = make_policy(*policy)
    state = RouterState(
        buffer_occupancy=np.array([0.5]),
        neighbor_data_rate=np.full((1, 4), 0.25),
        neighbor_psn_pct=np.full((1, 4), 4.0),
        neighbor_psn_valid=None,
        out_link_rho=np.array([[0.97, 0.0, 0.0, 1.0]]),
    )
    cur, dst = np.array([0]), np.array([5])
    got = routing.select_ports(topo, cur, dst, state)
    assert got.tolist() == [PORT_CODES[Direction.EAST]]
    assert got.tolist() == scalar_codes(routing, topo, cur, dst, state)


def test_panr_untrusted_reading_falls_back_to_xy():
    # The quiet SOUTH neighbour would win, but an untrusted reading on
    # either permissible direction reverts the hop to XY (EAST).
    topo = topology(4, 4)
    routing = PanrRouting()
    psn = np.array([[12.0, 0.0, 0.0, 4.0]] * 2)
    valid = np.array([[True, True, True, True], [True, True, True, False]])
    state = RouterState(
        buffer_occupancy=np.zeros(2),
        neighbor_data_rate=np.zeros((2, 4)),
        neighbor_psn_pct=psn,
        neighbor_psn_valid=valid,
        out_link_rho=np.zeros((2, 4)),
    )
    cur, dst = np.array([0, 0]), np.array([5, 5])
    got = routing.select_ports(topo, cur, dst, state)
    assert got.tolist() == [PORT_CODES[Direction.SOUTH], PORT_CODES[Direction.EAST]]
    assert got.tolist() == scalar_codes(routing, topo, cur, dst, state)


class BusyNeighbourRouting(WestFirstRouting):
    """A third-party adaptive policy that overrides only ``weights``."""

    name = "busy-neighbour"
    context_free = False

    def weights(self, topo, cur, dst, ctx):
        return {
            d: 1.0
            + ctx.neighbor_data_rate.get(d, 0.0)
            + ctx.buffer_occupancy * ctx.neighbor_psn_pct.get(d, 0.0)
            - ctx.out_link_rho.get(d, 0.0)
            for d in self.permissible(topo, cur, dst)
        }


def test_third_party_policy_lanes_match_legacy_oracle():
    # No select_ports override: the engine runs the base default, which
    # loops scalar select; every lane must equal its legacy run.
    mesh = MeshGeometry(6, 6)
    n = mesh.tile_count
    rng = np.random.default_rng(5)
    psn = rng.uniform(2.0, 12.0, size=(3, n))
    flows = []
    for rate in (0.05, 0.2, 0.35):
        dst = (np.arange(n) + rng.integers(1, n, size=n)) % n
        flows.append(
            [TrafficFlow(s, int(d), rate, packet_size=4) for s, d in enumerate(dst)]
        )
    batch = BatchedNocEngine(
        mesh, BusyNeighbourRouting(), n_lanes=3, psn_pct=psn
    ).run(flows, 300)
    for lane in range(3):
        legacy = CycleNocSimulator(
            mesh, BusyNeighbourRouting(), psn_pct=psn[lane]
        ).run(flows[lane], 300)
        got = batch[lane]
        assert got.packets_injected == legacy.packets_injected
        assert got.packets_delivered == legacy.packets_delivered
        assert got.flits_delivered == legacy.flits_delivered
        assert got.packet_latencies == legacy.packet_latencies
        assert np.array_equal(
            got.router_flits_per_cycle, legacy.router_flits_per_cycle
        )
