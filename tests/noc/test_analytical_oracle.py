"""The array analytical NoC model equals its scalar oracle exactly.

``repro.noc.analytical.AnalyticalNocModel`` (array, level-synchronous)
must return bit for bit what ``repro.noc.analytical_ref.ReferenceNocModel``
(today's per-flow scalar loop) returns: router loads, link utilisations
(same key set and values), per-flow statistics and the saturation flag.
Equality is ``==``, never a tolerance.

The recorded trace ``data/parm_panr_trace.json`` holds the arguments of
every NoC refresh of one PARM+PANR run on the 10x6 chip; regenerate it
with ``repro.perf.bench.record_analytical_trace(n_apps=8, seed=1)``
serialised by ``repro.noc.analytical_ref.calls_to_json``.
"""

import json
from pathlib import Path
from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chip.mesh import MeshGeometry
from repro.noc.analytical import AnalyticalNocModel, Flow
from repro.noc.analytical_ref import (
    ReferenceNocModel,
    calls_from_json,
    reports_identical,
)
from repro.noc.routing import WestFirstRouting, make_routing
from repro.noc.routing.base import RoutingContext
from repro.noc.topology import MESH_DIRECTIONS, Direction, MeshTopology

POLICIES = ["xy", "west-first", "odd-even", "icon", "panr"]

#: 6x6 and the paper's 10x6 chip mesh.
TOPOS = {
    (6, 6): MeshTopology(MeshGeometry(6, 6)),
    (10, 6): MeshTopology(MeshGeometry(10, 6)),
}

TRACE = Path(__file__).parent / "data" / "parm_panr_trace.json"


def assert_identical(array, scalar):
    assert np.array_equal(
        array.router_flits_per_cycle, scalar.router_flits_per_cycle
    )
    assert set(array.link_rho) == set(scalar.link_rho)
    assert array.link_rho == scalar.link_rho
    assert array.flows == scalar.flows
    assert array.saturated == scalar.saturated
    assert reports_identical(array, scalar)


def both(topo, policy, flows, **kwargs):
    array = AnalyticalNocModel(topo, make_routing(policy)).evaluate(
        flows, **kwargs
    )
    scalar = ReferenceNocModel(topo, make_routing(policy)).evaluate(
        flows, **kwargs
    )
    return array, scalar


@st.composite
def scenarios(draw):
    shape = draw(st.sampled_from(sorted(TOPOS)))
    topo = TOPOS[shape]
    n = topo.mesh.tile_count
    tile = st.integers(0, n - 1)
    rate = st.one_of(
        st.just(0.0),
        st.floats(0.0, 0.6, allow_nan=False, allow_infinity=False),
    )
    flows = draw(
        st.lists(
            st.one_of(
                st.builds(Flow, tile, tile, rate),
                # Local (src == dst) flows carry no NoC traffic.
                tile.flatmap(
                    lambda t: st.builds(Flow, st.just(t), st.just(t), rate)
                ),
            ),
            min_size=1,
            max_size=30,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kwargs: Dict[str, object] = {"psn_pct": rng.uniform(0.0, 10.0, size=n)}
    if draw(st.booleans()):
        # Untrusted sensors exercise PANR's fallback to XY.
        untrusted = draw(st.sampled_from([0.05, 0.2, 0.5, 1.0]))
        kwargs["psn_valid"] = rng.random(n) >= untrusted
    if draw(st.booleans()):
        dead_links = draw(st.sets(st.sampled_from(topo.links()), max_size=8))
        dead_routers = draw(st.sets(tile, max_size=3))
        if dead_links:
            kwargs["dead_links"] = dead_links
        if dead_routers:
            kwargs["dead_routers"] = dead_routers
    return topo, flows, kwargs


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=60, deadline=None)
@given(scenario=scenarios())
def test_array_model_equals_oracle(policy, scenario):
    topo, flows, kwargs = scenario
    array, scalar = both(topo, policy, flows, **kwargs)
    assert_identical(array, scalar)
    if make_routing(policy).context_free:
        # One iteration is the fixed point: the oracle's four agree.
        assert array.iterations == 1
        assert array.residual == 0.0 == scalar.residual
    else:
        assert array.iterations == scalar.iterations == 4
        assert array.residual == scalar.residual


def _trace_calls():
    payload = json.loads(TRACE.read_text())
    assert tuple(payload["mesh"]) == (10, 6)
    return calls_from_json(payload["calls"])


@pytest.mark.parametrize("policy", POLICIES)
def test_recorded_refresh_trace(policy):
    """Replay every recorded PARM+PANR refresh under each policy."""
    calls = _trace_calls()
    assert len(calls) >= 5 and max(len(f) for f, _ in calls) > 100
    topo = TOPOS[(10, 6)]
    array_model = AnalyticalNocModel(topo, make_routing(policy))
    scalar_model = ReferenceNocModel(topo, make_routing(policy))
    for flows, kwargs in calls:
        assert_identical(
            array_model.evaluate(flows, **kwargs),
            scalar_model.evaluate(flows, **kwargs),
        )


class _LoadBalancedWestFirst(WestFirstRouting):
    """A third-party adaptive policy without an array weight table: it
    relies on the base class calling ``weights`` per (tile, mask)."""

    name = "LoadBalancedWestFirst"
    context_free = False

    def weights(self, topo, cur, dst, ctx: RoutingContext):
        return {
            d: 1.0 / (1.0 + ctx.neighbor_data_rate.get(d, 0.0))
            + ctx.out_link_rho.get(d, 0.0)
            for d in self.permissible(topo, cur, dst)
        }


@settings(max_examples=25, deadline=None)
@given(scenario=scenarios())
def test_default_weight_table_keeps_custom_policies_exact(scenario):
    topo, flows, kwargs = scenario
    array = AnalyticalNocModel(topo, _LoadBalancedWestFirst()).evaluate(
        flows, **kwargs
    )
    scalar = ReferenceNocModel(topo, _LoadBalancedWestFirst()).evaluate(
        flows, **kwargs
    )
    assert_identical(array, scalar)


class TestReport:
    def test_unroutable_flags_match_dead_endpoint_and_cut(self):
        topo = TOPOS[(6, 6)]
        flows = [Flow(0, 2, 0.3), Flow(7, 9, 0.2), Flow(3, 3, 0.1)]
        kwargs = {
            "dead_links": {(1, Direction.EAST)},
            "dead_routers": {9},
        }
        array, scalar = both(topo, "xy", flows, **kwargs)
        assert_identical(array, scalar)
        assert array.unroutable_flow_indices == [0, 1]

    def test_empty_flow_set(self):
        for policy in POLICIES:
            array, scalar = both(TOPOS[(6, 6)], policy, [])
            assert_identical(array, scalar)
            assert array.link_rho == {} and array.residual == 0.0

    def test_link_rho_keys_are_row_major(self):
        flows = [Flow(14, 0, 0.2), Flow(0, 14, 0.3)]
        array, _ = both(TOPOS[(6, 6)], "west-first", flows)
        order = [(t, MESH_DIRECTIONS.index(d)) for t, d in array.link_rho]
        assert order == sorted(order)

    def test_single_adaptive_iteration_compares_against_zero_load(self):
        topo = TOPOS[(6, 6)]
        flows = [Flow(0, 14, 0.5), Flow(1, 20, 0.4)]
        array = AnalyticalNocModel(
            topo, make_routing("panr"), iterations=1
        ).evaluate(flows)
        scalar = ReferenceNocModel(
            topo, make_routing("panr"), iterations=1
        ).evaluate(flows)
        assert_identical(array, scalar)
        assert array.iterations == 1
        assert array.residual == scalar.residual > 0.0
