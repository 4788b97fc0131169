"""PARM reproduction benchmark: one workload per invocation.

Run from the repository root::

    python3 parmbench/run.py --workload campaign_hm_xy --seed 1 --seconds 15 --trace 0

The program under test is imported from ``src/`` next to this
directory; nothing is installed.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it are the human-readable report (host block, raw
timings, output checks, digest, failure share, per-layer breakdown).

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced repetition.  See README.md in
this directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import bench_host  # noqa: E402  (standard library only at import)

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("campaign_hm_xy", "campaign_parm_panr", "routing_sweep", "service_traffic")

#: Unit of work per workload, as named in the report lines.
WORK_NAMES = {
    "campaign_hm_xy": "apps_per_s",
    "campaign_parm_panr": "apps_per_s",
    "routing_sweep": "sim_cycles_per_s",
    "service_traffic": "epochs_per_s",
}

#: Timed repetitions of the untraced run; it reports their median.
REPS = 2

#: World builds of the untraced run; set-up time reports their median.
SETUP_REPS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Bench:
    """One invocation: the workload's plan, run and checks."""

    def __init__(self, args: argparse.Namespace, import_s: float, speedometer) -> None:
        import bench_workloads as bw

        self.args = args
        self.import_s = import_s
        self.workload = args.workload
        self.workdir = ROOT / ".parmbench-work"
        self.workdir.mkdir(exist_ok=True)
        self.speedometer = speedometer
        self.pool_workers = bench_host.usable_cpus() if self.workload == "routing_sweep" else 0
        rep_s = args.seconds / REPS
        if self.workload.startswith("campaign_"):
            framework = "HM+XY" if self.workload == "campaign_hm_xy" else "PARM+PANR"
            self.plan = bw.campaign_plan(framework, self.workload, args.seed, rep_s)
            self._run, self.check = bw.campaign_run, bw.campaign_check
        elif self.workload == "routing_sweep":
            self.plan = bw.routing_plan(args.seed, rep_s)
            # The traced run keeps every task in-process (workers=1) so
            # the NoC engine spans are visible; the untraced run uses the
            # warm pool.
            self._run = functools.partial(bw.routing_run, workers=1 if args.trace else None)
            self.check = bw.routing_check
        else:
            self.plan = bw.service_plan(args.seed, rep_s)
            recorder = bw.EpochRecorder(self.speedometer)
            recorder.install()
            self._run = functools.partial(bw.service_run, recorder=recorder)
            self.check = bw.service_check

    def build_world(self):
        import bench_workloads as bw

        return bw.build_world(self.pool_workers, self.speedometer)

    def run_rep(self, world, tracer=None):
        """One timed repetition, sampling the host speed around it.

        Returns ``(rep, net_wall_s, reference_s)``: the wall time minus
        the reference passes made inside the sweep, and the mean of
        every reference pass from just before to just after it.
        """
        import gc

        gc.collect()
        self.speedometer.drain()
        self.speedometer.sample()
        if tracer is None:
            rep = self._run(self.plan, world, str(self.workdir))
        else:
            tracer.phase = "sweep"
            tracer.install()
            try:
                rep = self._run(self.plan, world, str(self.workdir))
            finally:
                tracer.uninstall()
        self.speedometer.sample()
        samples = self.speedometer.drain()
        inner_s = sum(samples[1:-1])
        reference_s = statistics.mean(samples) if samples else bench_host.REFERENCE_NOMINAL_S
        return rep, rep.wall_s - inner_s, reference_s

    def print_rep(self, index, rep, net_wall_s, reference_s):
        line = (
            f"rep {index} wall_s={rep.wall_s:.4f} net_wall_s={net_wall_s:.4f} "
            f"work={rep.work:.0f} {WORK_NAMES[self.workload]}={rep.work / net_wall_s:.4f}"
        )
        if "arrivals" in rep.extra:
            line += f" arrivals_per_s={rep.extra['arrivals'] / net_wall_s:.4f}"
        print(line + f" reference_s={reference_s:.5f}")

    def verdict(self, world, reps, extra_checks=()):
        """Print checks, digest and failure share.

        Returns ``(correct, attempted, failed, stranded_apps)``.
        """
        import bench_workloads as bw

        digests = [bw.digest(rep.output) for rep in reps]
        checks = list(self.check(self.plan, world, reps))
        checks.append(
            ("all.digest_stable_across_reps", len(set(digests)) == 1, f"{len(reps)} reps")
        )
        checks.extend(extra_checks)
        for name, ok, detail in checks:
            print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
        print(f"digest sha256 {digests[0]}")
        attempted = sum(rep.attempted for rep in reps)
        failed = sum(rep.failed for rep in reps)
        stranded = sum(rep.extra.get("stranded_apps", 0) for rep in reps)
        print(
            f"failures attempted={attempted} failed={failed} "
            f"failed_frac={failed / attempted:.6f} stranded_apps={stranded}"
        )
        return all(ok for _, ok, _ in checks), attempted, failed, stranded

    def untraced(self) -> dict:
        """End-to-end metrics, with timings scaled to the calibration host.

        Each timing is multiplied by ``REFERENCE_NOMINAL_S / reference``
        (each rate by the inverse), where ``reference`` is the mean
        reference pass sampled while it ran (see
        ``bench_host.Speedometer``).  The raw timings are in the report
        lines.
        """
        nominal = bench_host.REFERENCE_NOMINAL_S
        builds = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            world = self.build_world()
            builds.append(time.perf_counter() - start)
            self.speedometer.sample()
        setup_reference_s = statistics.mean(self.speedometer.drain())
        raw_setup_s = self.import_s + statistics.median(builds)
        print(
            f"setup import_s={self.import_s:.4f} "
            f"world_build_s={[round(b, 4) for b in builds]} "
            f"raw_setup_s={raw_setup_s:.4f} reference_s={setup_reference_s:.5f}"
        )

        reps, rates = [], []
        for index in range(REPS):
            rep, net_wall_s, reference_s = self.run_rep(world)
            self.print_rep(index, rep, net_wall_s, reference_s)
            reps.append(rep)
            rates.append(rep.work / net_wall_s * reference_s / nominal)
        peak_rss_mb = bench_host.peak_rss_mb(world.worker_pids)
        correct, attempted, failed, _ = self.verdict(world, reps)
        return _result(
            correct,
            attempted,
            failed,
            {
                "setup_s": (raw_setup_s * nominal / setup_reference_s, "s"),
                "work_per_s": (statistics.median(rates), "1/s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            },
        )

    def traced(self) -> dict:
        """Per-layer metrics from one traced repetition.

        The world is built once with tracing on (the set-up layers), then
        one repetition runs untraced and one traced on the same inputs:
        their wall-time ratio is the tracing overhead and their output
        digests must agree.
        """
        import bench_trace
        from repro.perf.pool import pool_stats

        tracer = bench_trace.Tracer()
        tracer.phase = "setup"
        tracer.install()
        start = time.perf_counter()
        try:
            world = self.build_world()
        finally:
            tracer.uninstall()
        setup_wall_s = time.perf_counter() - start

        reps = []
        for index, rep_tracer in enumerate((None, tracer)):
            rep, net_wall_s, reference_s = self.run_rep(world, rep_tracer)
            self.print_rep(index, rep, net_wall_s, reference_s)
            reps.append(rep)
        untraced, traced = reps
        sweep_self_s = tracer.self_sum_s("sweep")
        setup_self_s = tracer.self_sum_s("setup")
        self_time_check = (
            "trace.self_time_within_wall",
            sweep_self_s <= traced.wall_s and setup_self_s <= setup_wall_s,
            f"sweep {sweep_self_s:.4f}s <= {traced.wall_s:.4f}s, "
            f"setup {setup_self_s:.4f}s <= {setup_wall_s:.4f}s",
        )
        correct, attempted, failed, stranded = self.verdict(world, reps, [self_time_check])
        metrics = {"trace_overhead_frac": (traced.wall_s / untraced.wall_s, "ratio")}
        metrics.update(tracer.layer_metrics())
        stats = pool_stats()
        for key in ("created", "reused", "broken_rebuilds", "ephemeral"):
            metrics[f"perf.pool.{key}"] = (float(stats.get(key, 0)), "count")
        metrics["failed_frac"] = (failed / attempted, "fraction")
        metrics["stranded_apps"] = (float(stranded), "count")
        for name, (value, unit) in metrics.items():
            print(f"layer {name} = {value:.6g} {unit}")
        trace_path = self.workdir / f"trace-{self.workload}-{self.args.seed}.jsonl"
        tracer.dump(str(trace_path))
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        return _result(correct, attempted, failed, metrics)


def _result(correct, attempted, failed, metrics) -> dict:
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def _child_pids() -> list:
    """Pids of this process's live or unreaped children, from /proc."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children(grace_s: float = 20.0) -> None:
    """Stop every process the run started and wait until each has ended.

    The warm pool's workers are joined by ``shutdown_pool``; the
    multiprocessing resource tracker (started by the spawn context and
    shared memory) otherwise outlives the interpreter by a moment, so it
    is stopped here and waited for.  Any child still alive after
    ``grace_s`` is killed and reaped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    from repro.perf.pool import shutdown_pool

    shutdown_pool()
    for child in multiprocessing.active_children():
        child.join(grace_s)
    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + grace_s
    while True:
        pids = _child_pids()
        if not pids or time.monotonic() > deadline + 5.0:
            return
        for pid in pids:
            if time.monotonic() > deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        time.sleep(0.05)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still leaves through the ``finally`` below.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for name in bench_host.BLAS_THREAD_VARS:
        os.environ[name] = "1"  # one BLAS thread per process; workers inherit it
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"parmbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import bench_trace  # noqa: F401
    import bench_workloads  # noqa: F401
    import repro.exp.routing_sweep  # noqa: F401  (every timed layer)
    import repro.exp.traffic  # noqa: F401
    import repro.harness.supervisor  # noqa: F401

    import_s = time.perf_counter() - _PROCESS_T0
    print("host " + json.dumps(bench_host.host_block(ROOT), sort_keys=True))
    # Host-speed samples only scale the untraced run's timings; the
    # first one sits right after the imports.
    speedometer = bench_host.Speedometer(enabled=not args.trace)
    speedometer.sample()
    try:
        bench = Bench(args, import_s, speedometer)
        result = bench.traced() if args.trace else bench.untraced()
    finally:
        stop_children()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
