"""Mapper decisions replayed from a recorded campaign trace.

``data/try_map_trace.json`` holds every ``try_map`` call of one PARM+PANR
and one HM+XY run of a mixed sequence on the 10x6 chip:
the profile name, the relative deadline, a snapshot of the
``ChipState`` the manager saw, and the decision it returned.  Replaying
each call against today's managers must give ``==`` decisions: Vdd,
DoP, task-to-tile map and power.  The trace was recorded before the
mapper's graph-derived caches and array placement loops existed, so it
pins them to the original per-call code.

Regenerate (only when a decision is meant to change) with::

    PYTHONPATH=src python tests/core/test_try_map_trace.py
"""

import json
import sys
from pathlib import Path

import pytest

from repro.apps.suite import ProfileLibrary
from repro.chip.cmp import default_chip
from repro.core import HarmonicManager, ParmManager
from repro.runtime.state import ChipState

TRACE = Path(__file__).parent / "data" / "try_map_trace.json"

#: (manager, routing policy, arrival interval [s]) of each recorded run.
RUNS = (("PARM", "panr", 0.05), ("HM", "xy", 0.1))
N_APPS = 16
SEED = 1


def make_manager(name):
    return ParmManager() if name == "PARM" else HarmonicManager()


def snapshot(state):
    """JSON-able ChipState contents.  Apps keep their placement order:
    ``available_power_w`` sums their power in that order."""
    return {
        "failed": sorted(state.failed_tiles()),
        "apps": [
            {
                "app": app,
                "power_w": power,
                "vdd": state.occupant(next(iter(tiles.values()))).vdd,
                "tiles": sorted(tiles.items()),
            }
            for app, power in state._app_power_w.items()
            for tiles in [state.tiles_of_app(app)]
        ],
    }


def restore(chip, snap):
    state = ChipState(chip, failed_tiles=snap["failed"])
    for app in snap["apps"]:
        state.occupy(
            app["app"],
            {task: tile for task, tile in app["tiles"]},
            app["vdd"],
            app["power_w"],
        )
    return state


def decision_json(decision):
    if decision is None:
        return None
    return {
        "vdd": decision.vdd,
        "dop": decision.dop,
        "task_to_tile": sorted(decision.task_to_tile.items()),
        "power_w": decision.power_w,
    }


def record():
    """Every ``try_map`` call of the runs in :data:`RUNS`."""
    from repro.apps.workload import WorkloadType, generate_workload
    from repro.noc.routing import make_routing
    from repro.runtime.simulator import RuntimeSimulator

    library = ProfileLibrary()
    calls = []
    for name, policy, interval_s in RUNS:
        workload = generate_workload(
            WorkloadType.MIXED,
            interval_s,
            n_apps=N_APPS,
            seed=SEED,
            library=library,
        )
        manager = make_manager(name)
        try_map = manager.try_map

        def recording(profile, deadline_s, state, name=name, try_map=try_map):
            decision = try_map(profile, deadline_s, state)
            calls.append(
                {
                    "manager": name,
                    "profile": profile.name,
                    "deadline_s": deadline_s,
                    "state": snapshot(state),
                    "decision": decision_json(decision),
                }
            )
            return decision

        manager.try_map = recording  # the instance attribute shadows the method
        RuntimeSimulator(
            default_chip(), manager, make_routing(policy), seed=SEED
        ).run(workload)
    return calls


def as_json(value):
    """``value`` as it reads back from the trace file."""
    return json.loads(json.dumps(value))


def load_calls():
    return json.loads(TRACE.read_text())["calls"]


@pytest.fixture(scope="module")
def library():
    return ProfileLibrary()


def test_trace_covers_both_managers_and_outcomes():
    calls = load_calls()
    for name, _, _ in RUNS:
        mine = [c for c in calls if c["manager"] == name]
        assert any(c["decision"] is None for c in mine), name
        assert any(c["decision"] is not None for c in mine), name


def test_replayed_decisions_equal_recorded(library):
    chip = default_chip()
    managers = {name: make_manager(name) for name, _, _ in RUNS}
    for i, call in enumerate(load_calls()):
        state = restore(chip, call["state"])
        assert as_json(snapshot(state)) == call["state"], i
        decision = managers[call["manager"]].try_map(
            library.get(call["profile"]), call["deadline_s"], state
        )
        assert as_json(decision_json(decision)) == call["decision"], (
            i,
            call["manager"],
        )


if __name__ == "__main__":
    calls = record()
    text = json.dumps(
        {"chip": "default_chip", "calls": calls}, separators=(",", ":")
    )
    TRACE.parent.mkdir(exist_ok=True)
    TRACE.write_text(text + "\n")
    print(f"wrote {len(calls)} calls to {TRACE}", file=sys.stderr)
