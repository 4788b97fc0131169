"""PARM's joint Vdd and DoP selection (Algorithm 1).

To keep peak PSN low the algorithm starts from the *lowest* permissible
Vdd (peak PSN is proportional to Vdd, Fig. 3a) and the *highest* DoP
(more threads recover the performance lost to the low clock):

* for each Vdd in increasing order, DoP values are tried in decreasing
  order;
* a (Vdd, DoP) whose profiled WCET misses the deadline prunes all lower
  DoPs at this Vdd (they are slower still) and moves to the next Vdd
  (line 13);
* a (Vdd, DoP) that meets the deadline is handed to the PSN-aware
  mapping heuristic (line 7); mapping failure tries the next lower DoP
  (line 12), which needs fewer domains and less power;
* when every combination fails, ``None`` is returned - the runtime keeps
  the application queued (the paper's "stall till an app exit event")
  and drops it once its deadline can no longer be met, avoiding
  service-queue stagnation.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.profiles import ApplicationProfile
from repro.core.base import MappingDecision, ResourceManager
from repro.core.mapping import psn_aware_mapping
from repro.runtime.state import ChipState


class ParmManager(ResourceManager):
    """The paper's PSN-aware runtime resource manager."""

    name = "PARM"

    def try_map(
        self,
        profile: ApplicationProfile,
        deadline_s: float,
        state: ChipState,
    ) -> Optional[MappingDecision]:
        ladder = state.chip.vdd_ladder
        free = None  # the state does not change while candidates are tried
        for vdd in ladder:  # increasing Vdd (line 3)
            for dop in sorted(profile.supported_dops, reverse=True):  # line 4
                wcet = profile.wcet_s(vdd, dop)  # line 5
                if wcet >= deadline_s:
                    # Lower DoPs are slower still: next Vdd (line 13).
                    break
                if free is None:
                    free = state.free_domains()
                decision = psn_aware_mapping(
                    profile, vdd, dop, state, free
                )  # line 7
                if decision is not None:
                    return decision
                # Mapping failed: a lower DoP needs fewer domains and
                # less power (line 12).
        return None
