"""Tests for the WCET performance model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.graph import ApplicationGraph, TaskNode
from repro.apps.performance import PerformanceModel, SyncOverheadModel
from repro.apps.profiles import build_profile
from repro.apps.suite import BENCHMARKS
from repro.chip.power import PowerModel
from repro.chip.technology import technology
from repro.pdn.waveforms import ActivityBin


@pytest.fixture(scope="module")
def model():
    return PerformanceModel(PowerModel(technology("7nm")))


def make_graph(dop, seed=0, volume=(1e6, 2e6)):
    rng = np.random.default_rng(seed)
    return ApplicationGraph.layered(
        layer_sizes=[1, max(2, dop - 2), 1],
        rng=rng,
        work_cycles_range=(5e7, 1e8),
        high_fraction=0.5,
        volume_range=volume,
    )


class TestSyncOverhead:
    def test_no_overhead_at_min_dop(self):
        assert SyncOverheadModel().factor(4) == 1.0

    def test_monotone_in_dop(self):
        m = SyncOverheadModel()
        factors = [m.factor(d) for d in (4, 8, 16, 32, 64)]
        assert factors == sorted(factors)

    def test_validation(self):
        with pytest.raises(ValueError):
            SyncOverheadModel(coeff=-0.1)
        with pytest.raises(ValueError):
            SyncOverheadModel().factor(0)


class TestPerformanceModel:
    def test_cycle_time_decreases_with_vdd(self, model):
        assert model.cycle_time_s(0.8) < model.cycle_time_s(0.4)

    def test_task_time_scales_with_work(self, model):
        g = make_graph(8)
        times = {t.task_id: model.task_time_s(g, t.task_id, 0.6) for t in g.tasks()}
        works = {t.task_id: t.work_cycles for t in g.tasks()}
        a, b = 1, 2
        assert times[a] / times[b] == pytest.approx(works[a] / works[b])

    def test_comm_delay_scales_with_volume_and_hops(self, model):
        g = ApplicationGraph()
        g.add_task(TaskNode(0, ActivityBin.HIGH, 1e6, 0.5))
        g.add_task(TaskNode(1, ActivityBin.HIGH, 1e6, 0.5))
        g.add_edge(0, 1, 4e6)
        d_near = model.comm_delay_s(g, 0, 1, 0.6, avg_hops=1)
        d_far = model.comm_delay_s(g, 0, 1, 0.6, avg_hops=8)
        assert d_far > d_near
        d_congested = model.comm_delay_s(g, 0, 1, 0.6, avg_hops=1, latency_scale=2.0)
        assert d_congested == pytest.approx(2 * d_near, rel=1e-9)
        with pytest.raises(ValueError):
            model.comm_delay_s(g, 0, 1, 0.6, latency_scale=0.5)

    def test_wcet_decreases_with_vdd(self, model):
        g = make_graph(16)
        wcets = [model.estimate_wcet_s(g, v) for v in (0.4, 0.6, 0.8)]
        assert wcets[0] > wcets[1] > wcets[2]

    def test_wcet_improves_with_dop_then_saturates(self, model):
        """Speed-up from DoP must be real but saturating - the basis of
        the paper's DoP-for-Vdd trade and its DoP <= 32 cap."""
        # Same total work split across different thread counts.
        total = 3.2e9
        wcets = {}
        for dop in (4, 8, 16, 32):
            rng = np.random.default_rng(1)
            per = total / dop
            g = ApplicationGraph.layered(
                layer_sizes=[1, max(2, dop - 2), 1],
                rng=rng,
                work_cycles_range=(per * 0.9, per * 1.1),
                high_fraction=0.5,
                volume_range=(1e6, 2e6),
            )
            wcets[dop] = model.estimate_wcet_s(g, 0.6)
        assert wcets[8] < wcets[4]
        assert wcets[32] < wcets[8]
        # Diminishing returns: the 16->32 gain is smaller than 4->8.
        assert (wcets[16] - wcets[32]) < (wcets[4] - wcets[8])

    def test_dop_for_vdd_trade(self, model):
        """The key PARM lever: a low-Vdd high-DoP run can match a
        high-Vdd low-DoP run."""
        slow = model.estimate_wcet_s(make_graph(8, seed=2), 0.8)
        fast_parallel = model.estimate_wcet_s(make_graph(32, seed=2), 0.4)
        # Same per-task work but 4x threads at ~0.37x frequency: within 2x.
        assert fast_parallel < 4 * slow


def edf_makespan(model, graph, vdd, avg_hops=None, latency_scale=1.0):
    """The oracle: the general EDF scheduler with one core per task."""
    from repro.sched.edf import edf_schedule

    return edf_schedule(
        graph,
        core_count=max(1, graph.task_count),
        task_time=lambda t: model.task_time_s(graph, t, vdd),
        comm_delay=lambda s, d: model.comm_delay_s(
            graph, s, d, vdd, avg_hops, latency_scale
        ),
    ).makespan


@st.composite
def random_dags(draw):
    """DAGs with zero-work tasks, zero-volume edges, several sources and
    sinks, and single-task graphs."""
    n = draw(st.integers(1, 12))
    g = ApplicationGraph()
    for i in range(n):
        work = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e9)))
        g.add_task(TaskNode(i, ActivityBin.HIGH, work, 0.5))
    for v in range(n):
        for u in range(v):
            if draw(st.integers(0, 3)) == 0:
                volume = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e8)))
                g.add_edge(u, v, volume)
    return g


class TestFastMakespanOracle:
    """``estimate_wcet_s`` is the dedicated-core longest path; it must
    equal the EDF schedule's makespan bit for bit (``==``)."""

    @settings(max_examples=300, deadline=None)
    @given(
        graph=random_dags(),
        vdd=st.sampled_from([0.4, 0.5, 0.6, 0.7, 0.8]),
        avg_hops=st.one_of(st.none(), st.floats(0.0, 12.0)),
        latency_scale=st.one_of(st.just(1.0), st.floats(1.0, 4.0)),
    )
    def test_random_dags(self, model, graph, vdd, avg_hops, latency_scale):
        fast = model.estimate_wcet_s(graph, vdd, avg_hops, latency_scale)
        assert fast == edf_makespan(model, graph, vdd, avg_hops, latency_scale)

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_every_suite_graph(self, model, name):
        profile = build_profile(BENCHMARKS[name])
        for dop in profile.supported_dops:
            graph = profile.graph(dop)
            for vdd in profile.supported_vdds:
                for avg_hops in (None, 1.0, 2.7):
                    for latency_scale in (1.0, 1.37):
                        fast = model.estimate_wcet_s(
                            graph, vdd, avg_hops, latency_scale
                        )
                        assert fast == edf_makespan(
                            model, graph, vdd, avg_hops, latency_scale
                        ), (dop, vdd, avg_hops, latency_scale)

    def test_single_task_and_edgeless(self, model):
        g = ApplicationGraph()
        g.add_task(TaskNode(0, ActivityBin.LOW, 3e6, 0.2))
        assert model.estimate_wcet_s(g, 0.6) == edf_makespan(model, g, 0.6)
        g.add_task(TaskNode(1, ActivityBin.LOW, 7e6, 0.2))
        assert model.estimate_wcet_s(g, 0.6) == model.task_time_s(g, 1, 0.6)

    def test_validation_kept(self, model):
        assert model.estimate_wcet_s(ApplicationGraph(), 0.6) == 0.0
        empty = ApplicationGraph()
        assert model.estimate_wcet_s(empty, 0.6, latency_scale=0.5) == 0.0
        with pytest.raises(ValueError, match="latency_scale"):
            model.estimate_wcet_s(make_graph(8), 0.6, latency_scale=0.5)

    def test_edf_not_called(self, model, monkeypatch):
        import repro.sched.edf as edf

        def fail(*args, **kwargs):
            raise AssertionError("estimate_wcet_s must not schedule")

        monkeypatch.setattr(edf, "edf_schedule", fail)
        assert model.estimate_wcet_s(make_graph(8), 0.6) > 0.0
