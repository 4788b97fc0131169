"""Harmonic-mapping baseline (HM), after Dahir et al. [21].

The state-of-the-art the paper compares against: a PSN-aware mapping
scheme that places tasks with high switching activity at long Manhattan
distances from each other so their supply noise does not compound.  Its
defining traits, which the paper's evaluation exploits:

* **no Vdd adaptation** - applications run at the nominal (highest)
  supply voltage.  Per Fig. 3a this maximises peak PSN, and the high
  per-app power means fewer applications fit under the dark-silicon
  budget ("HM fails ... because of its increased power consumption (due
  to high Vdd)", Section 5.2);
* **no DoP adaptation** - adaptable parallelism is one of PARM's
  contributions; the baseline runs every application at its default
  thread count;
* **scatter placement** - high-activity tasks are spread across the chip
  in non-contiguous regions at maximal pairwise distances, stretching
  communication paths and letting applications share power domains.

Placement: tasks are considered in decreasing activity factor.  Each
High-bin task takes the free tile maximising its minimum distance to the
already-placed High tasks (harmonic spreading); each Low-bin task takes
the free tile minimising communication distance to its placed APG
neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.apps.graph import ApplicationGraph
from repro.apps.profiles import ApplicationProfile
from repro.core.base import MappingDecision, ResourceManager
from repro.pdn.waveforms import ActivityBin
from repro.runtime.state import ChipState


@dataclass
class HarmonicManager(ResourceManager):
    """The HM prior-work baseline.

    Attributes:
        default_dop: Thread count every application runs with (HM does
            not adapt parallelism); must be supported by the profiles.
    """

    default_dop: int = 16
    name = "HM"

    def __post_init__(self) -> None:
        if self.default_dop < 4 or self.default_dop % 4:
            raise ValueError("default_dop must be a positive multiple of 4")

    def try_map(
        self,
        profile: ApplicationProfile,
        deadline_s: float,
        state: ChipState,
    ) -> Optional[MappingDecision]:
        vdd = state.chip.vdd_ladder.highest
        dop = self.default_dop
        if dop not in profile.supported_dops:
            raise ValueError(
                f"{profile.name} does not support DoP {dop}; "
                f"supported: {profile.supported_dops}"
            )
        if profile.wcet_s(vdd, dop) >= deadline_s:
            return None
        power = profile.power_w(vdd, dop)
        if power > state.available_power_w():
            return None
        task_to_tile = self._scatter(profile.graph(dop), state, vdd)
        if task_to_tile is None:
            return None
        return MappingDecision(
            vdd=vdd, dop=dop, task_to_tile=task_to_tile, power_w=power
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _scatter(
        graph: ApplicationGraph,
        state: ChipState,
        vdd: float,
    ) -> Optional[Dict[int, int]]:
        """Harmonic placement over individual free tiles.

        ``free`` stays in ascending tile order, so the first index of an
        ``argmax``/``argmin`` is the lowest tile id among equal scores:
        the tie-break of the defining rule (farthest from the placed
        High tasks, else nearest to the placed APG neighbours, lowest
        id first).
        """
        hops = state.chip.mesh.hop_matrix
        domains = state.chip.domains
        free = np.array(
            [
                t
                for t in state.free_tiles()
                # HM may share domains between applications, but the
                # hardware still requires one Vdd per domain.
                if state.domain_vdd(domains.domain_of(t)) in (None, vdd)
            ],
            dtype=np.intp,
        )
        if len(free) < graph.task_count:
            return None

        placed: Dict[int, int] = {}
        # Per tile: hop distance to the nearest placed High task.
        to_high: Optional[np.ndarray] = None
        for task_id, is_high, adjacent in graph.derived(
            "hm_order", _hm_order
        ):
            index = 0
            if is_high:
                if to_high is not None:
                    index = int(np.argmax(to_high[free]))
                tile = int(free[index])
                row = hops[tile]
                to_high = row if to_high is None else np.minimum(to_high, row)
            else:
                neighbours = [placed[n] for n in adjacent if n in placed]
                if neighbours:
                    index = int(
                        np.argmin(hops[neighbours][:, free].sum(axis=0))
                    )
                tile = int(free[index])
            placed[task_id] = tile
            free = np.delete(free, index)
        return placed


def _hm_order(
    graph: ApplicationGraph,
) -> Tuple[Tuple[int, bool, Tuple[int, ...]], ...]:
    """Tasks in decreasing activity factor (ties by id), each with its
    activity class and its APG neighbours."""
    order = sorted(
        graph.tasks(),
        key=lambda t: (-t.activity_factor, t.task_id),
    )
    return tuple(
        (
            t.task_id,
            t.activity_bin is ActivityBin.HIGH,
            tuple(graph.predecessors(t.task_id) + graph.successors(t.task_id)),
        )
        for t in order
    )
