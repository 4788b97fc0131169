"""Task clustering (Algorithm 2, lines 3-9).

The heuristic walks the APG edges in decreasing order of communication
volume and appends each not-yet-listed endpoint task to the list of its
switching-activity bin (High or Low).  Each list therefore ends up
ordered by communication importance.  Lists are then chopped into
clusters of four tasks - the size of a power-supply domain - so that

1. all but (at most) one cluster contain tasks of a single activity bin,
   minimising High-Low interference inside a domain (Fig. 3b), and
2. tasks with the highest communication volumes land in the same domain,
   minimising NoC traffic.

Tasks untouched by any edge (isolated vertices) are appended to their
bin's list in id order.  Because the DoP is a multiple of four, the two
lists' remainders (< 4 each) always total zero or exactly four tasks,
which form the single mixed cluster the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.apps.graph import ApplicationGraph
from repro.pdn.waveforms import ActivityBin


@dataclass(frozen=True)
class TaskCluster:
    """Four tasks destined for one power-supply domain.

    Attributes:
        tasks: Task ids in list order.
        mixed: Whether the cluster contains both activity bins.
    """

    tasks: Tuple[int, ...]
    mixed: bool

    def __post_init__(self) -> None:
        if not 1 <= len(self.tasks) <= 4:
            raise ValueError("clusters hold 1 to 4 tasks")


def cluster_tasks(
    graph: ApplicationGraph, activity_aware: bool = True
) -> List[TaskCluster]:
    """Partition an APG's tasks into domain-sized clusters.

    Args:
        graph: Application graph whose task count is a multiple of 4.
        activity_aware: When false, tasks are not separated by activity
            bin (only communication order matters) - the ablation of the
            paper's key clustering idea.

    Returns:
        Clusters in creation order (High clusters, Low clusters, then
        the mixed remainder cluster if any).
    """
    if graph.task_count % 4:
        raise ValueError(
            f"task count {graph.task_count} is not a multiple of 4"
        )
    # The clusters depend on the graph alone, and PARM asks for them at
    # every (Vdd, DoP) candidate of every mapping attempt.
    return list(
        graph.derived(
            ("clusters", activity_aware),
            lambda g: _cluster(g, activity_aware),
        )
    )


def _cluster(
    graph: ApplicationGraph, activity_aware: bool
) -> Tuple[TaskCluster, ...]:
    listed = set()
    high: List[int] = []
    low: List[int] = []

    def push(task_id: int) -> None:
        if task_id in listed:
            return
        listed.add(task_id)
        if activity_aware and graph.task(task_id).activity_bin is ActivityBin.HIGH:
            high.append(task_id)
        else:
            low.append(task_id)

    for src, dst, _volume in graph.edges_by_volume():
        push(src)
        push(dst)
    for task in graph.tasks():  # isolated vertices, id order
        push(task.task_id)

    def make(tasks: Tuple[int, ...]) -> TaskCluster:
        bins = {graph.task(t).activity_bin for t in tasks}
        return TaskCluster(tasks, mixed=len(bins) > 1)

    clusters: List[TaskCluster] = []
    for tasks in (high, low):
        while len(tasks) >= 4:
            clusters.append(make(tuple(tasks[:4])))
            del tasks[:4]
    remainder = high + low
    if remainder:
        clusters.append(make(tuple(remainder)))
    return tuple(clusters)
