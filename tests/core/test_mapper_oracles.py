"""The mapper's placement loops equal their per-pair reference forms.

``HarmonicManager._scatter`` scores every free tile at once with integer
hop arrays, and ``place_clusters`` reads a cached domain-distance matrix
and per-graph cluster volumes.  The references below are the original
per-pair Python loops (``min``/``max`` with explicit ``(score, ±tile)``
tie-break keys).  Random chip states over the suite's graphs must give
``==`` placements, so no tie flips.
"""

from typing import Dict, List, Optional

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.apps.suite import BENCHMARKS, ProfileLibrary
from repro.chip.cmp import default_chip
from repro.core.clustering import cluster_tasks
from repro.core.hm import HarmonicManager
from repro.core.placement import _place_within_domain, place_clusters
from repro.pdn.waveforms import ActivityBin
from repro.runtime.state import ChipState

LIBRARY = ProfileLibrary()
CHIP = default_chip()
VDDS = (0.4, 0.6, 0.8)


def reference_scatter(graph, state, vdd) -> Optional[Dict[int, int]]:
    mesh = state.chip.mesh
    domains = state.chip.domains
    free = [
        t
        for t in state.free_tiles()
        if state.domain_vdd(domains.domain_of(t)) in (None, vdd)
    ]
    if len(free) < graph.task_count:
        return None
    order = sorted(
        graph.tasks(), key=lambda t: (-t.activity_factor, t.task_id)
    )
    placed: Dict[int, int] = {}
    placed_high: List[int] = []
    for task in order:
        if task.activity_bin is ActivityBin.HIGH:
            if placed_high:
                tile = max(
                    free,
                    key=lambda f: (
                        min(mesh.manhattan(f, p) for p in placed_high),
                        -f,
                    ),
                )
            else:
                tile = free[0]
            placed_high.append(tile)
        else:
            neighbours = [
                placed[n]
                for n in graph.predecessors(task.task_id)
                + graph.successors(task.task_id)
                if n in placed
            ]
            if neighbours:
                tile = min(
                    free,
                    key=lambda f: (
                        sum(mesh.manhattan(f, p) for p in neighbours),
                        f,
                    ),
                )
            else:
                tile = free[0]
        placed[task.task_id] = tile
        free.remove(tile)
    return placed


def reference_place_clusters(graph, clusters, free_domains, domains):
    if len(free_domains) < len(clusters):
        return None
    cluster_of = {t: i for i, c in enumerate(clusters) for t in c.tasks}
    volume = [[0.0] * len(clusters) for _ in clusters]
    external = [0.0] * len(clusters)
    for src, dst, vol in graph.edges():
        a, b = cluster_of[src], cluster_of[dst]
        if a != b:
            volume[a][b] += vol
            volume[b][a] += vol
            external[a] += vol
            external[b] += vol
    order = sorted(range(len(clusters)), key=lambda i: (-external[i], i))
    available = list(free_domains)
    chosen: Dict[int, int] = {}
    for rank, ci in enumerate(order):
        if rank == 0:
            best = min(
                available,
                key=lambda d: (
                    sum(domains.domain_distance(d, o) for o in available),
                    d,
                ),
            )
        else:

            def cost(d):
                return sum(
                    domains.domain_distance(d, chosen[cj]) * volume[ci][cj]
                    for cj in chosen
                ) + 1e-3 * sum(
                    domains.domain_distance(d, chosen[cj]) for cj in chosen
                )

            best = min(available, key=lambda d: (cost(d), d))
        chosen[ci] = best
        available.remove(best)
    mapping: Dict[int, int] = {}
    for ci, domain in chosen.items():
        mapping.update(
            _place_within_domain(graph, clusters[ci], domains.tiles_of(domain))
        )
    return mapping


@st.composite
def chip_states(draw):
    """A chip with random foreign apps on it, some failed tiles, and the
    graph of a suite app to place."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = CHIP.mesh.tile_count
    n_failed = draw(st.integers(0, 4))
    failed = [int(t) for t in rng.choice(n, size=n_failed, replace=False)]
    state = ChipState(CHIP, failed_tiles=failed)
    usable = [t for t in range(n) if t not in failed]
    busy = rng.choice(usable, size=draw(st.integers(0, 40)), replace=False)
    for app, tile in enumerate(int(t) for t in busy):
        vdd = float(rng.choice(VDDS))
        if state.domain_vdd(CHIP.domains.domain_of(tile)) in (None, vdd):
            state.occupy(app, {0: tile}, vdd, 0.0)
    name = draw(st.sampled_from(sorted(BENCHMARKS)))
    dop = draw(st.sampled_from(LIBRARY.get(name).supported_dops))
    return state, LIBRARY.get(name).graph(dop), draw(st.sampled_from(VDDS))


@settings(max_examples=200, deadline=None)
@given(case=chip_states())
def test_scatter_equals_reference(case):
    state, graph, vdd = case
    assert HarmonicManager._scatter(graph, state, vdd) == reference_scatter(
        graph, state, vdd
    )


@settings(max_examples=200, deadline=None)
@given(case=chip_states(), activity_aware=st.booleans())
def test_place_clusters_equals_reference(case, activity_aware):
    state, graph, _ = case
    clusters = cluster_tasks(graph, activity_aware=activity_aware)
    free = state.free_domains()
    domains = state.chip.domains
    assert place_clusters(graph, clusters, free, domains) == (
        reference_place_clusters(graph, clusters, free, domains)
    )
