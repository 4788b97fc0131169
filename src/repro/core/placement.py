"""Cluster-to-domain and task-to-tile placement (Algorithm 2 line 13).

The paper omits the details of ``task-cluster-to-domain-mapping()`` "due
to lack of space" but states its goals: place the clusters on free
domains so that the hop distance between inter-domain communicating
tasks is minimised, and inside a mixed domain put tasks of the same
activity level on adjacent tiles (Fig. 5) to reduce High-Low
interference.

This implementation uses a greedy heuristic with linear complexity in
the number of tiles, matching the paper's O(T) analysis (Section 4.3):

1. clusters are considered in decreasing order of their total external
   communication volume;
2. the first cluster takes the free domain whose mean distance to all
   other free domains is smallest (the "centre" of the free region);
3. each following cluster takes the free domain minimising the sum over
   already-placed clusters of (domain distance x inter-cluster volume);
4. inside a domain, tasks are grouped by activity bin and each bin group
   occupies horizontally adjacent tiles (positions (0,1) and (2,3) of
   the 2x2 block), as in Fig. 5.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.graph import ApplicationGraph
from repro.chip.domains import DomainMap
from repro.core.clustering import TaskCluster
from repro.pdn.waveforms import ActivityBin


def place_clusters(
    graph: ApplicationGraph,
    clusters: Sequence[TaskCluster],
    free_domains: Sequence[int],
    domains: DomainMap,
) -> Optional[Dict[int, int]]:
    """Place clusters onto free domains.

    Returns:
        Task-to-tile mapping, or ``None`` when there are fewer free
        domains than clusters.
    """
    if len(free_domains) < len(clusters):
        return None

    volume, order = graph.derived(
        ("cluster_volumes", tuple(c.tasks for c in clusters)),
        lambda g: _cluster_volumes(g, clusters),
    )
    distance = domains.distance_rows
    available = list(free_domains)
    chosen: Dict[int, int] = {}  # cluster index -> domain id

    for rank, ci in enumerate(order):
        if rank == 0:
            # Centre of the free region: minimise mean distance to the
            # other free domains so later clusters have close options.
            best = min(
                available,
                key=lambda d: (sum(distance[d][o] for o in available), d),
            )
        else:
            placed = list(chosen.items())
            to_ci = volume[ci]

            def cost(d: int) -> float:
                row = distance[d]
                return sum(
                    row[domain] * to_ci[cj] for cj, domain in placed
                ) + 1e-3 * sum(row[domain] for _, domain in placed)

            best = min(available, key=lambda d: (cost(d), d))
        chosen[ci] = best
        available.remove(best)

    mapping: Dict[int, int] = {}
    for ci, domain in chosen.items():
        mapping.update(
            _place_within_domain(graph, clusters[ci], domains.tiles_of(domain))
        )
    return mapping


def _cluster_volumes(
    graph: ApplicationGraph, clusters: Sequence[TaskCluster]
) -> Tuple[Tuple[Tuple[float, ...], ...], Tuple[int, ...]]:
    """Inter-cluster volume matrix and the placement order (decreasing
    external volume, ties by index); both depend on the graph alone."""
    cluster_of = {
        t: i for i, c in enumerate(clusters) for t in c.tasks
    }
    volume = [[0.0] * len(clusters) for _ in clusters]
    external = [0.0] * len(clusters)
    for src, dst, vol in graph.edges():
        a, b = cluster_of[src], cluster_of[dst]
        if a != b:
            volume[a][b] += vol
            volume[b][a] += vol
            external[a] += vol
            external[b] += vol
    order = sorted(
        range(len(clusters)), key=lambda i: (-external[i], i)
    )
    return tuple(tuple(row) for row in volume), tuple(order)


def _place_within_domain(
    graph: ApplicationGraph,
    cluster: TaskCluster,
    tiles: List[int],
) -> Dict[int, int]:
    """Assign a cluster's tasks to the four tiles of its domain.

    Same-bin tasks go on horizontally adjacent tiles: positions 0,1 of
    the 2x2 block are one pair, positions 2,3 the other (Fig. 5).
    """
    highs = [
        t
        for t in cluster.tasks
        if graph.task(t).activity_bin is ActivityBin.HIGH
    ]
    lows = [t for t in cluster.tasks if t not in highs]
    ordered = highs + lows
    return {task: tiles[pos] for pos, task in enumerate(ordered)}
