"""The four benchmark workloads, driven through the program's public API.

Every workload is a closed batch loop on the host: one *repetition*
submits the whole sweep and is timed as a unit.  A workload supplies

* ``plan(seed, rep_s)`` - the inputs, made only from the workload seed
  and sized so one repetition takes about ``rep_s`` host seconds on a
  2-CPU x86 container (the sizes below were calibrated there);
* ``run(plan, world, workdir)`` - one repetition, returning a
  :class:`Rep` (work done, operations attempted/failed, canonical
  output bytes and the objects the checks need);
* ``check(plan, world, reps)`` - output checks that hold for any seed.

The set-up every workload shares (chip, every profile of the library,
simulator context, and for the routing sweep the probed warm pool) is
:func:`build_world`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

N_APPS = 20
WORKLOAD_TYPES = ("compute", "communication", "mixed")
ARRIVAL_INTERVALS_S = (0.2, 0.1, 0.05)
ROUTING_POLICIES = ("xy", "odd-even", "icon", "panr")
ROUTING_RATES = (0.05, 0.15, 0.25, 0.35)
ROUTING_CYCLES = 2000
TRAFFIC_FRAMEWORKS = ("HM+XY", "PARM+PANR")

#: Host seconds of one sizing unit per workload (2-CPU container):
#: one 9-cell campaign grid at one seed, one routing seed across the
#: whole policy x rate grid at 2 workers, one epoch of the traffic
#: sweep (all six framework x load configs).
UNIT_COST_S = {
    "campaign_hm_xy": 1.7,
    "campaign_parm_panr": 9.0,
    "routing_sweep": 4.4,
    "service_traffic": 0.62,
}

#: Fewest units in one repetition.  Two PARM grids average its strongly
#: sequence-dependent cost over 18 sequences; two routing seeds keep
#: both pool workers busy to the end of a sweep; a service horizon of 12
#: epochs is three times the default traffic sweep's, so queues reach
#: the overload regime.
MIN_UNITS = {
    "campaign_hm_xy": 1,
    "campaign_parm_panr": 2,
    "routing_sweep": 2,
    "service_traffic": 12,
}

Check = Tuple[str, bool, str]


def derived_seeds(seed: int, label: str, count: int) -> Tuple[int, ...]:
    """``count`` 31-bit input seeds derived from the workload seed."""
    from repro.harness.seeding import derive_seeds

    return tuple(s % 2**31 for s in derive_seeds(seed, f"parmbench/{label}", count))


def units_for(workload: str, rep_s: float) -> int:
    return max(MIN_UNITS[workload], round(rep_s / UNIT_COST_S[workload]))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class World:
    """Everything set up before the first timed operation."""

    chip: Any
    library: Any
    #: Part of set-up by definition of ``setup_s``; the sweeps' public
    #: entry points derive their own context from the chip.
    context: Any
    #: bench_host.Speedometer the sweeps sample between units of work.
    speedometer: Any
    workers: int = 0
    worker_pids: Tuple[int, ...] = ()


@dataclass
class Rep:
    """Outcome of one timed repetition."""

    wall_s: float
    work: float
    attempted: int
    failed: int
    output: bytes
    extra: Dict[str, Any] = field(default_factory=dict)


def _probe_pid(token: int) -> Tuple[int, bool]:
    """Pool task: this worker's pid and whether its warm world is built."""
    from repro.perf.pool import warm_world

    time.sleep(0.01)  # long enough that idle workers share a round
    return os.getpid(), warm_world() is not None


def build_world(pool_workers: int, speedometer: Any) -> World:
    """Chip, full profile library, context and (optionally) a warm pool.

    With ``pool_workers`` the persistent pool is shut down first, then
    leased and probed until every worker has answered, so a timed
    ``map_tasks`` call only ever meets initialised workers.
    """
    from repro.apps.suite import BENCHMARKS, ProfileLibrary
    from repro.chip import default_chip
    from repro.perf import pool
    from repro.runtime.simulator import SimulatorContext

    chip = default_chip()
    library = ProfileLibrary()
    for name in sorted(BENCHMARKS):
        library.get(name)
    world = World(chip, library, SimulatorContext.for_chip(chip), speedometer)
    if pool_workers:
        pool.shutdown_pool()
        lease = pool.lease_pool(pool_workers)
        try:
            pids: Dict[int, bool] = {}
            token = 0
            deadline = time.monotonic() + 120.0
            while len(pids) < pool_workers:
                if time.monotonic() > deadline:
                    raise RuntimeError(f"only {len(pids)} of {pool_workers} pool workers answered")
                futures = [lease.pool.submit(_probe_pid, token + i) for i in range(pool_workers)]
                token += pool_workers
                for future in futures:
                    pid, warm = future.result(timeout=120.0)
                    if not warm:
                        raise RuntimeError(f"pool worker {pid} has no warm world")
                    pids[pid] = warm
        finally:
            lease.release()
        world.workers = pool_workers
        world.worker_pids = tuple(sorted(pids))
    return world


def _finite_row(row: Dict[str, Any]) -> bool:
    return all(
        math.isfinite(value) for value in row.values() if isinstance(value, float)
    )


# ---------------------------------------------------------------------------
# campaign_hm_xy / campaign_parm_panr
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignPlan:
    framework: str
    cells: Tuple[Any, ...]

    @property
    def apps(self) -> int:
        return sum(cell.n_apps * len(cell.seeds) for cell in self.cells)


def campaign_plan(framework: str, workload: str, seed: int, rep_s: float) -> CampaignPlan:
    """The 9-cell paper grid; every cell draws its own sequence seeds.

    Independent sequences per cell (rather than one sequence replayed
    at each interval) make the grid's cost average over nine draws, so
    throughput varies less from one workload seed to the next.
    """
    from repro.harness.supervisor import CampaignCell

    runs = units_for(workload, rep_s)
    cells = tuple(
        CampaignCell(
            framework=framework,
            workload=kind,
            arrival_interval_s=interval,
            n_apps=N_APPS,
            seeds=derived_seeds(seed, f"{workload}/{kind}/{interval:g}", runs),
        )
        for kind in WORKLOAD_TYPES
        for interval in ARRIVAL_INTERVALS_S
    )
    return CampaignPlan(framework, cells)


def _supervisor(plan: CampaignPlan, world: World, checkpoint: str) -> Any:
    from repro.harness.supervisor import CampaignSupervisor, default_cell_runner

    base = default_cell_runner(chip=world.chip, library=world.library)

    def runner(cell: Any) -> Dict[str, Any]:
        row = base(cell)
        world.speedometer.sample()
        return row

    return CampaignSupervisor(plan.cells, checkpoint, cell_runner=runner)


def stranded_apps(outcome: Any) -> int:
    """Apps of completed cells that neither completed nor dropped."""
    stranded = 0
    for cell_outcome in outcome.completed_cells:
        cell, row = cell_outcome.cell, cell_outcome.result
        runs = len(cell.seeds)
        terminal = round((row["completed"] + row["dropped"]) * runs)
        stranded += cell.n_apps * runs - terminal
    return stranded


def campaign_run(plan: CampaignPlan, world: World, workdir: str) -> Rep:
    checkpoint = os.path.join(workdir, "campaign.json")
    supervisor = _supervisor(plan, world, checkpoint)
    start = time.perf_counter()
    outcome = supervisor.run()
    wall_s = time.perf_counter() - start
    failed_apps = sum(
        o.cell.n_apps * len(o.cell.seeds) for o in outcome.failed_cells
    )
    stranded = stranded_apps(outcome)
    return Rep(
        wall_s=wall_s,
        work=float(plan.apps),
        attempted=plan.apps,
        failed=failed_apps + stranded,
        output=outcome.table_json().encode("utf-8"),
        extra={"outcome": outcome, "checkpoint": checkpoint, "stranded_apps": stranded},
    )


def campaign_check(plan: CampaignPlan, world: World, reps: Sequence[Rep]) -> List[Check]:
    last = reps[-1]
    outcome = last.extra["outcome"]
    rows = [o.result for o in outcome.completed_cells]
    checks: List[Check] = [
        ("campaign.rows_finite", all(_finite_row(r) for r in rows), f"{len(rows)} rows"),
        (
            "campaign.psn_order",
            all(r["peak_psn_pct"] >= r["avg_psn_pct"] >= 0.0 for r in rows),
            "peak_psn_pct >= avg_psn_pct >= 0",
        ),
        (
            "campaign.app_accounting",
            all(r["completed"] + r["dropped"] <= r["cell"]["n_apps"] for r in rows),
            "completed + dropped <= n_apps",
        ),
    ]
    resumed = _supervisor(plan, world, last.extra["checkpoint"]).run(resume=True)
    checks.append(
        (
            "campaign.resume_restores_all",
            resumed.restored_count == len(plan.cells),
            f"{resumed.restored_count}/{len(plan.cells)} cells restored",
        )
    )
    checks.append(
        (
            "campaign.resume_table_identical",
            resumed.table_json().encode("utf-8") == last.output,
            "run(resume=True) table_json() bytes",
        )
    )
    return checks


# ---------------------------------------------------------------------------
# routing_sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoutingPlan:
    seeds: Tuple[int, ...]

    @property
    def points(self) -> int:
        return len(ROUTING_POLICIES) * len(ROUTING_RATES) * len(self.seeds)


def routing_plan(seed: int, rep_s: float) -> RoutingPlan:
    return RoutingPlan(derived_seeds(seed, "routing_sweep", units_for("routing_sweep", rep_s)))


def _rows_bytes(rows: Sequence[Any]) -> bytes:
    return json.dumps([dataclasses.asdict(r) for r in rows], sort_keys=True).encode("utf-8")


def routing_run(plan: RoutingPlan, world: World, workdir: str, workers: Optional[int] = None) -> Rep:
    from repro.exp.routing_sweep import routing_sweep

    start = time.perf_counter()
    rows = routing_sweep(
        rates=ROUTING_RATES,
        policies=ROUTING_POLICIES,
        seeds=plan.seeds,
        cycles=ROUTING_CYCLES,
        workers=world.workers if workers is None else workers,
    )
    wall_s = time.perf_counter() - start
    return Rep(
        wall_s=wall_s,
        work=float(plan.points * ROUTING_CYCLES),
        attempted=plan.points,
        failed=0,
        output=_rows_bytes(rows),
        extra={"rows": rows},
    )


def routing_check(plan: RoutingPlan, world: World, reps: Sequence[Rep]) -> List[Check]:
    import numpy as np

    from repro.exp.routing_sweep import SweepPoint, run_batch
    from repro.noc.routing import make_routing

    rows = reps[-1].extra["rows"]
    checks: List[Check] = [
        (
            "routing.delivered_pct_range",
            all(0.0 <= r.delivered_pct <= 100.0 for r in rows),
            "0 <= delivered_pct <= 100",
        ),
        (
            "routing.rows_finite",
            all(_finite_row(dataclasses.asdict(r)) for r in rows),
            f"{len(rows)} rows",
        ),
    ]
    mismatched = []
    by_key = {(r.policy, r.injection_rate_flits): r for r in rows}
    for policy in ROUTING_POLICIES:
        if not make_routing(policy).context_free:
            continue
        points = [
            SweepPoint(policy=policy, injection_rate_flits=rate, seed=s, cycles=ROUTING_CYCLES)
            for rate in ROUTING_RATES
            for s in plan.seeds
        ]
        results = run_batch(points)  # in-process, no pool
        for rate in ROUTING_RATES:
            cell = [r for r in results if r.point.injection_rate_flits == rate]
            row = by_key[(policy, rate)]
            expected = (
                float(np.mean([r.avg_latency_cycles for r in cell])),
                float(np.mean([r.p95_latency_cycles for r in cell])),
                float(np.mean([r.throughput_flits_per_cycle for r in cell])),
                float(np.mean([r.delivered_pct for r in cell])),
            )
            got = (
                row.avg_latency_cycles,
                row.p95_latency_cycles,
                row.throughput_flits_per_cycle,
                row.delivered_pct,
            )
            if got != expected:
                mismatched.append(f"{policy}@{rate}")
    checks.append(
        (
            "routing.sweep_rows_equal_in_process_batch",
            not mismatched,
            "mismatch: " + ",".join(mismatched) if mismatched else "context-free groups",
        )
    )
    return checks


# ---------------------------------------------------------------------------
# service_traffic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServicePlan:
    #: ((framework, (load label, rate multiplier)), root seed) per config.
    configs: Tuple[Tuple[Tuple[str, Tuple[str, float]], int], ...]
    #: Epochs per framework x load config.
    horizon: int

    @property
    def epochs(self) -> int:
        return len(self.configs) * self.horizon


def service_plan(seed: int, rep_s: float) -> ServicePlan:
    """Every framework x load level, each config with its own root seed.

    One ``traffic_sweep`` call per config: with a shared root seed the
    six configs would replay correlated arrival streams.
    """
    from repro.exp.traffic import LOAD_LEVELS

    grid = [(fw, level) for fw in TRAFFIC_FRAMEWORKS for level in LOAD_LEVELS]
    seeds = derived_seeds(seed, "service_traffic", len(grid))
    return ServicePlan(tuple(zip(grid, seeds)), units_for("service_traffic", rep_s))


#: The service sweep samples the host speed after every this many epochs.
SERVICE_SAMPLE_EVERY = 3


class EpochRecorder:
    """Keeps every ServiceState that ``ServiceEngine.run_epoch`` advanced.

    ``traffic_sweep`` returns only rows; the accounting and round-trip
    checks need the states, so the benchmark wraps ``run_epoch`` with
    this recorder for the whole run (one dict store per epoch).  It
    also samples the speedometer every few epochs.
    """

    def __init__(self, speedometer: Any) -> None:
        self.speedometer = speedometer
        self.states: Dict[int, Tuple[Any, Any]] = {}
        self.epochs_done = 0

    def install(self) -> None:
        from repro.runtime.service.engine import ServiceEngine

        original = ServiceEngine.__dict__["run_epoch"]
        recorder = self

        def run_epoch(engine: Any, state: Any) -> Any:
            result = original(engine, state)
            recorder.epochs_done += 1
            recorder.states[id(state)] = (engine.config, state)
            if recorder.epochs_done % SERVICE_SAMPLE_EVERY == 0:
                recorder.speedometer.sample()
            return result

        ServiceEngine.run_epoch = run_epoch

    def reset(self) -> None:
        self.states = {}
        self.epochs_done = 0


def service_run(plan: ServicePlan, world: World, workdir: str, recorder: EpochRecorder) -> Rep:
    from repro.exp.traffic import traffic_sweep

    recorder.reset()
    rows: List[Any] = []
    start = time.perf_counter()
    for (framework, level), root_seed in plan.configs:
        rows.extend(
            traffic_sweep(
                epochs=plan.horizon,
                seed=root_seed,
                frameworks=(framework,),
                load_levels=(level,),
                chip=world.chip,
                library=world.library,
            )
        )
    wall_s = time.perf_counter() - start
    return Rep(
        wall_s=wall_s,
        work=float(recorder.epochs_done),
        attempted=plan.epochs,
        failed=plan.epochs - recorder.epochs_done,
        output=_rows_bytes(rows),
        extra={
            "states": list(recorder.states.values()),
            "arrivals": sum(r.arrived for r in rows),
        },
    )


def service_check(plan: ServicePlan, world: World, reps: Sequence[Rep]) -> List[Check]:
    from repro.runtime.service.engine import ServiceState

    states = reps[-1].extra["states"]
    broken_identity = []
    round_trip_diffs = []
    scalar_counts = set()
    for config, state in states:
        stats = state.stats
        terminal = sum(stats.total(k) for k in ("completed", "rejected", "dropped", "failed"))
        live = state.backlog() + len(state.running) + len(state.readmit)
        queue_sheds = stats.total("arrived") - terminal - live
        if not 0 <= queue_sheds <= stats.total("shed"):
            broken_identity.append(f"{config.framework}@{config.arrival.rate_hz:g}Hz")
        scalar_counts.add(stats.scalar_count())
        encoded = json.dumps(state.to_json(), sort_keys=True)
        restored = ServiceState.from_json(json.loads(encoded), config)
        if json.dumps(restored.to_json(), sort_keys=True) != encoded:
            round_trip_diffs.append(f"{config.framework}@{config.arrival.rate_hz:g}Hz")
    expected_states = len(plan.configs)
    return [
        (
            "service.states_recorded",
            len(states) == expected_states,
            f"{len(states)}/{expected_states} states",
        ),
        (
            "service.accounting_identity",
            not broken_identity,
            "0 <= arrived - terminal - live <= shed"
            + (f"; broken: {','.join(broken_identity)}" if broken_identity else ""),
        ),
        (
            "service.scalar_count_constant",
            len(scalar_counts) == 1,
            f"scalar_count values {sorted(scalar_counts)}",
        ),
        (
            "service.state_json_round_trip",
            not round_trip_diffs,
            "ServiceState to_json/from_json"
            + (f"; differs: {','.join(round_trip_diffs)}" if round_trip_diffs else ""),
        ),
    ]
