"""Golden equivalence suite: BatchedNocEngine lanes vs the oracle.

The batched engine's contract is "same bits, less time" for whole
sweeps: **every lane** of a batch must be flit-for-flit identical to a
legacy :class:`CycleNocSimulator` run with that lane's flows and PSN
field, regardless of what its sibling lanes carry.  ``ArrayNocEngine``
is the batch engine's one-lane view, so it is no independent reference:
every test here compares against the legacy oracle.  Pinned across
every routing policy (context-free and adaptive), two mesh sizes and
two load levels; heterogeneous per-lane seeds/rates/PSN; per-lane
``set_psn`` mid-run; and the ``simulate_lanes`` entry point.
"""

import numpy as np
import pytest

from repro.chip.mesh import MeshGeometry
from repro.noc.batch import BatchedNocEngine, LaneSpec, simulate_lanes
from repro.noc.cycle import CycleNocSimulator, TrafficFlow
from repro.noc.engine import ArrayNocEngine, build_route_table
from repro.noc.routing import make_routing
from repro.noc.topology import MeshTopology

CONTEXT_FREE = ("xy", "west-first", "odd-even")
ADAPTIVE = ("icon", "panr")
POLICIES = CONTEXT_FREE + ADAPTIVE


def uniform_flows(mesh, rate, seed, packet_size=4):
    rng = np.random.default_rng(seed)
    n = mesh.tile_count
    flows = []
    for src in range(n):
        dst = int(rng.integers(0, n - 1))
        if dst >= src:
            dst += 1
        flows.append(TrafficFlow(src, dst, rate, packet_size=packet_size))
    return flows


def band_psn(mesh, hot=12.0, quiet=4.0):
    psn = np.full(mesh.tile_count, quiet)
    for t in range(mesh.tile_count):
        _, y = mesh.coord_of(t)
        if y in (mesh.height // 2 - 1, mesh.height // 2):
            psn[t] = hot
    return psn


def column_psn(mesh, hot=12.0, quiet=4.0):
    """A hot band down the two middle columns (band_psn transposed)."""
    psn = np.full(mesh.tile_count, quiet)
    for t in range(mesh.tile_count):
        x, _ = mesh.coord_of(t)
        if x in (mesh.width // 2 - 1, mesh.width // 2):
            psn[t] = hot
    return psn


def assert_stats_equal(a, b):
    assert a.cycles == b.cycles
    assert a.packets_injected == b.packets_injected
    assert a.packets_delivered == b.packets_delivered
    assert a.flits_delivered == b.flits_delivered
    assert a.packet_latencies == b.packet_latencies
    assert np.array_equal(a.router_flits_per_cycle, b.router_flits_per_cycle)


def legacy_runs(mesh, policy, psn, flows, cycles, runs=1):
    """Per-run stats of one fresh legacy simulator."""
    legacy = CycleNocSimulator(mesh, make_routing(policy), psn_pct=psn)
    return [legacy.run(flows, cycles) for _ in range(runs)]


def lane_grid(mesh, rates, seeds, packet_size=4):
    """Rate-major x seed lane flows, the routing-sweep packing order."""
    return [
        uniform_flows(mesh, rate, seed=seed, packet_size=packet_size)
        for rate in rates
        for seed in seeds
    ]


class TestLaneIdentity:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("width,height", [(4, 4), (8, 8)])
    @pytest.mark.parametrize("rate", [0.05, 0.35])
    def test_every_lane_matches_legacy_oracle(
        self, policy, width, height, rate
    ):
        # Lanes differ by traffic seed; each must reproduce the legacy
        # simulator's stats for its own flows exactly.
        mesh = MeshGeometry(width, height)
        psn = band_psn(mesh)
        seeds = (7, 8, 9)
        flows = [uniform_flows(mesh, rate, seed=s) for s in seeds]
        cycles = 300 if (width, height) == (8, 8) else 500
        batch = BatchedNocEngine(
            mesh, make_routing(policy), n_lanes=len(seeds), psn_pct=psn
        ).run(flows, cycles)
        assert len(batch) == len(seeds)
        for lane, lane_flows in enumerate(flows):
            legacy = CycleNocSimulator(
                mesh, make_routing(policy), psn_pct=psn
            )
            assert_stats_equal(legacy.run(lane_flows, cycles), batch[lane])

    @pytest.mark.parametrize("policy", POLICIES)
    def test_heterogeneous_rates_seeds_and_psn(self, policy):
        # A mixed batch - every lane a different (rate, seed, PSN) -
        # must still match per-lane legacy runs: lane state never
        # leaks across the block-diagonal boundary.
        mesh = MeshGeometry(8, 8)
        lane_cfg = [
            (0.05, 3, np.full(mesh.tile_count, 4.0)),
            (0.35, 7, band_psn(mesh)),
            (0.20, 11, column_psn(mesh)),
            (0.30, 13, np.zeros(mesh.tile_count)),
        ]
        flows = [uniform_flows(mesh, r, seed=s) for r, s, _ in lane_cfg]
        psn = np.stack([p for _, _, p in lane_cfg])
        batch = BatchedNocEngine(
            mesh,
            make_routing(policy),
            n_lanes=len(lane_cfg),
            psn_pct=psn,
            seeds=[s for _, s, _ in lane_cfg],
        ).run(flows, 300)
        for lane, (rate, seed, lane_psn) in enumerate(lane_cfg):
            legacy = CycleNocSimulator(
                mesh, make_routing(policy), psn_pct=lane_psn, seed=seed
            )
            assert_stats_equal(legacy.run(flows[lane], 300), batch[lane])

    def test_psn_fields_steer_panr_lanes_apart(self):
        # Identical traffic, different PSN per lane: PSN actually
        # steers PANR, so the lanes must diverge - and each must still
        # equal its own legacy run (a batch that ignored per-lane PSN
        # would fail one of the two checks).
        mesh = MeshGeometry(8, 8)
        flows = uniform_flows(mesh, 0.3, seed=17)
        fields = [
            np.full(mesh.tile_count, 4.0),
            band_psn(mesh),
            column_psn(mesh),
        ]
        batch = BatchedNocEngine(
            mesh, make_routing("panr"), n_lanes=len(fields),
            psn_pct=np.stack(fields),
        ).run([flows] * len(fields), 300)
        for lane, psn in enumerate(fields):
            (legacy,) = legacy_runs(mesh, "panr", psn, flows, 300)
            assert_stats_equal(legacy, batch[lane])
        for a in range(len(fields)):
            for b in range(a + 1, len(fields)):
                assert not np.array_equal(
                    batch[a].router_flits_per_cycle,
                    batch[b].router_flits_per_cycle,
                )

    def test_multi_flow_same_source_lanes(self):
        # Shared injection ports inside a lane: the backlog FIFO and
        # accumulator arithmetic serialise exactly as legacy even with
        # a sibling lane hammering the same tile ids.
        mesh = MeshGeometry(4, 4)
        lane_a = [
            TrafficFlow(0, 15, 0.31, packet_size=3),
            TrafficFlow(0, 12, 0.17, packet_size=5),
            TrafficFlow(5, 10, 0.23, packet_size=1),
        ]
        lane_b = [
            TrafficFlow(0, 9, 0.41, packet_size=2),
            TrafficFlow(5, 0, 0.11, packet_size=2),
        ]
        batch = BatchedNocEngine(mesh, make_routing("xy"), n_lanes=2).run(
            [lane_a, lane_b], 700
        )
        for lane_flows, got in zip((lane_a, lane_b), batch):
            legacy = CycleNocSimulator(mesh, make_routing("xy"))
            assert_stats_equal(legacy.run(lane_flows, 700), got)

    def test_singleton_batch_equals_array_engine(self):
        # ArrayNocEngine is the S=1 view: both must equal the oracle.
        mesh = MeshGeometry(8, 8)
        flows = uniform_flows(mesh, 0.25, seed=5)
        (legacy,) = legacy_runs(mesh, "odd-even", band_psn(mesh), flows, 400)
        scalar = ArrayNocEngine(
            mesh, make_routing("odd-even"), psn_pct=band_psn(mesh), seed=5
        ).run(flows, 400)
        (batched,) = BatchedNocEngine(
            mesh, make_routing("odd-even"), n_lanes=1,
            psn_pct=band_psn(mesh), seeds=[5],
        ).run([flows], 400)
        assert_stats_equal(legacy, scalar)
        assert_stats_equal(legacy, batched)

    def test_adopted_route_table_and_topology_identical(self):
        # The warm-pool sharing path: one topology + one (n, n) table
        # serves the whole batch, byte-identical to lazy builds.
        mesh = MeshGeometry(8, 8)
        topo = MeshTopology(mesh)
        table = build_route_table(mesh, make_routing("xy"), topology=topo)
        flows = lane_grid(mesh, (0.1, 0.3), (2, 4))
        lazy = BatchedNocEngine(
            mesh, make_routing("xy"), n_lanes=len(flows)
        ).run(flows, 300)
        adopted = BatchedNocEngine(
            mesh, make_routing("xy"), n_lanes=len(flows),
            topology=topo, route_table=table,
        ).run(flows, 300)
        for a, b in zip(lazy, adopted):
            assert_stats_equal(a, b)

    def test_state_persists_across_runs(self):
        # Back-to-back run() calls carry in-flight flits and wormhole
        # state per lane, exactly like back-to-back legacy runs.
        mesh = MeshGeometry(8, 8)
        seeds = (11, 12)
        flows = [uniform_flows(mesh, 0.2, seed=s) for s in seeds]
        batch = BatchedNocEngine(
            mesh, make_routing("xy"), n_lanes=len(seeds)
        )
        legacies = [
            CycleNocSimulator(mesh, make_routing("xy")) for _ in seeds
        ]
        for _ in range(2):
            got = batch.run(flows, 250)
            for lane, legacy in enumerate(legacies):
                assert_stats_equal(legacy.run(flows[lane], 250), got[lane])


class TestPsnLaneIsolation:
    def test_set_psn_on_one_lane_leaves_siblings_identical(self):
        # Context-free routing never reads PSN, so the real assertion
        # is structural: a mid-run per-lane set_psn must not perturb
        # any lane's stats relative to scalar reference runs.
        mesh = MeshGeometry(8, 8)
        seeds = (3, 4, 5)
        flows = [uniform_flows(mesh, 0.25, seed=s) for s in seeds]
        batch = BatchedNocEngine(
            mesh, make_routing("west-first"), n_lanes=len(seeds),
            psn_pct=band_psn(mesh),
        )
        first = batch.run(flows, 200)
        batch.set_psn(np.full(mesh.tile_count, 40.0), lane=1)
        second = batch.run(flows, 200)
        for lane in range(len(seeds)):
            want = legacy_runs(
                mesh, "west-first", band_psn(mesh), flows[lane], 200, runs=2
            )
            assert_stats_equal(want[0], first[lane])
            assert_stats_equal(want[1], second[lane])

    def test_mid_run_set_psn_on_one_panr_lane(self):
        # PANR reads PSN: a per-lane set_psn between two run() calls
        # redirects exactly that lane, as the same update does for its
        # legacy run, and leaves the sibling lanes on their old field.
        mesh = MeshGeometry(8, 8)
        flows = uniform_flows(mesh, 0.25, seed=13)
        psn = band_psn(mesh)
        flipped = column_psn(mesh)
        batch = BatchedNocEngine(
            mesh, make_routing("panr"), n_lanes=3, psn_pct=psn
        )
        first = batch.run([flows] * 3, 250)
        batch.set_psn(flipped, lane=1)
        second = batch.run([flows] * 3, 250)
        for lane in range(3):
            legacy = CycleNocSimulator(
                mesh, make_routing("panr"), psn_pct=psn
            )
            assert_stats_equal(legacy.run(flows, 250), first[lane])
            if lane == 1:
                legacy.set_psn(flipped)
            assert_stats_equal(legacy.run(flows, 250), second[lane])
        assert not np.array_equal(
            second[0].router_flits_per_cycle, second[1].router_flits_per_cycle
        )
        assert_stats_equal(second[0], second[2])

    def test_set_psn_shapes(self):
        mesh = MeshGeometry(4, 4)
        batch = BatchedNocEngine(mesh, make_routing("xy"), n_lanes=3)
        n = mesh.tile_count
        batch.set_psn(np.full(n, 2.0), lane=2)
        assert np.allclose(batch._psn[2], 2.0)
        assert np.allclose(batch._psn[0], 0.0)
        batch.set_psn(np.full((3, n), 5.0))
        assert np.allclose(batch._psn, 5.0)
        batch.set_psn(np.full(n, 1.0))
        assert np.allclose(batch._psn, 1.0)
        with pytest.raises(ValueError):
            batch.set_psn(np.zeros(n - 1), lane=0)
        with pytest.raises(ValueError):
            batch.set_psn(np.zeros((2, n)))
        with pytest.raises(ValueError):
            batch.set_psn(np.zeros(n), lane=3)


class TestValidation:
    def test_adaptive_route_table_rejected(self):
        # Adaptive policies batch, but have no route table to adopt.
        mesh = MeshGeometry(4, 4)
        table = build_route_table(mesh, make_routing("west-first"))
        for policy in ADAPTIVE:
            with pytest.raises(ValueError):
                BatchedNocEngine(
                    mesh, make_routing(policy), n_lanes=2, route_table=table
                )
            with pytest.raises(ValueError):
                ArrayNocEngine(mesh, make_routing(policy), route_table=table)

    def test_bad_construction_rejected(self):
        mesh = MeshGeometry(4, 4)
        with pytest.raises(ValueError):
            BatchedNocEngine(mesh, make_routing("xy"), n_lanes=0)
        with pytest.raises(ValueError):
            BatchedNocEngine(mesh, make_routing("xy"), n_lanes=2,
                             buffer_depth=0)
        with pytest.raises(ValueError):
            BatchedNocEngine(mesh, make_routing("xy"), n_lanes=2,
                             psn_pct=np.zeros((3, mesh.tile_count)))
        with pytest.raises(ValueError):
            BatchedNocEngine(mesh, make_routing("xy"), n_lanes=2,
                             seeds=[1])
        with pytest.raises(ValueError):
            BatchedNocEngine(
                mesh, make_routing("xy"), n_lanes=2,
                topology=MeshTopology(MeshGeometry(8, 8)),
            )
        with pytest.raises(ValueError):
            BatchedNocEngine(
                mesh, make_routing("xy"), n_lanes=2,
                route_table=np.zeros((3, 3), np.int8),
            )

    @pytest.mark.parametrize("window", [0, -64])
    def test_rate_window_validated(self, window):
        # A zero window would divide by zero at the first cycle; a
        # negative one would feed negative data rates to PANR/ICON.
        mesh = MeshGeometry(4, 4)
        for make in (
            lambda: BatchedNocEngine(
                mesh, make_routing("panr"), n_lanes=2, rate_window=window
            ),
            lambda: ArrayNocEngine(
                mesh, make_routing("panr"), rate_window=window
            ),
            lambda: CycleNocSimulator(
                mesh, make_routing("panr"), rate_window=window
            ),
        ):
            with pytest.raises(ValueError, match="rate_window"):
                make()

    def test_bad_run_arguments_rejected(self):
        mesh = MeshGeometry(4, 4)
        batch = BatchedNocEngine(mesh, make_routing("xy"), n_lanes=2)
        with pytest.raises(ValueError):
            batch.run([[TrafficFlow(0, 1, 0.1)]], 10)  # lane count
        with pytest.raises(ValueError):
            batch.run([[TrafficFlow(3, 3, 0.1)], []], 10)
        with pytest.raises(Exception):
            batch.run([[TrafficFlow(0, 99, 0.1)], []], 10)
        with pytest.raises(ValueError):
            batch.run([[], []], 0)


class TestSimulateLanes:
    def test_context_free_batched_path(self):
        mesh = MeshGeometry(8, 8)
        lanes = [
            LaneSpec(flows=tuple(uniform_flows(mesh, rate, seed=s)),
                     seed=s, psn_pct=tuple(band_psn(mesh)))
            for rate, s in ((0.1, 2), (0.3, 3))
        ]
        got = simulate_lanes(mesh, make_routing("xy"), lanes, 300)
        for spec, stats in zip(lanes, got):
            legacy = CycleNocSimulator(
                mesh, make_routing("xy"),
                psn_pct=np.asarray(spec.psn_pct), seed=spec.seed,
            )
            assert_stats_equal(legacy.run(list(spec.flows), 300), stats)

    @pytest.mark.parametrize("policy", ADAPTIVE)
    def test_adaptive_batched_path(self, policy):
        mesh = MeshGeometry(4, 4)
        lanes = [
            LaneSpec(flows=tuple(uniform_flows(mesh, rate, seed=s)),
                     seed=s, psn_pct=tuple(band_psn(mesh)))
            for rate, s in ((0.1, 2), (0.3, 3))
        ]
        got = simulate_lanes(mesh, make_routing(policy), lanes, 300)
        for spec, stats in zip(lanes, got):
            legacy = CycleNocSimulator(
                mesh, make_routing(policy),
                psn_pct=np.asarray(spec.psn_pct), seed=spec.seed,
            )
            assert_stats_equal(legacy.run(list(spec.flows), 300), stats)

    def test_empty_lane_list(self):
        mesh = MeshGeometry(4, 4)
        assert simulate_lanes(mesh, make_routing("xy"), [], 100) == []

    def test_bad_lane_psn_rejected(self):
        mesh = MeshGeometry(4, 4)
        lanes = [LaneSpec(flows=(TrafficFlow(0, 1, 0.1),),
                          psn_pct=(1.0, 2.0))]
        with pytest.raises(ValueError):
            simulate_lanes(mesh, make_routing("xy"), lanes, 100)
