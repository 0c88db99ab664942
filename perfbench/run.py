"""The repository benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload sim-fig9 --seed 7 --seconds 15 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``sim-fig9``    -- the paper's §5 simulation on the figure-9 grid at
                     240 sessions / 60 TU, ``basic`` then ``tradeoff``.
* ``daemon-open`` -- one ``repro-serve`` process: a fixed-rate open loop
                     (phase A) then a closed loop (phase B).
* ``cluster-2pc`` -- a ``repro-cluster`` router in front of two shard
                     daemons, same two phases at a lower rate.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run (timing wrappers installed from
outside the program, see layertrace.py) and the tracing overhead.  The
last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import common  # noqa: E402
import layertrace  # noqa: E402
import speedprobe  # noqa: E402

try:
    import driver as load_driver  # noqa: E402
    import simwork  # noqa: E402
except ImportError:  # a directory without the repro sources
    load_driver = simwork = None

WORKLOADS = ("sim-fig9", "daemon-open", "cluster-2pc")

#: Grid/planner seed of the server processes (the grid is configuration;
#: the workload seed only drives the arrivals).
GRID_SEED = 11
SETUP_REPEATS = 5
LEAD_IN_S = 1.0
#: Phase-A rates: about a fifth of each workload's raw saturation
#: throughput on a 2-CPU shared host (daemon ~450/s, cluster ~150/s).  At
#: twice these rates the queueing they add turned the host's speed swings
#: into run-to-run latency spreads of 40-70%.
RATE_PER_S = {"daemon-open": 100.0, "cluster-2pc": 30.0}
#: Phase-A latency percentiles are medians over windows of about this
#: many arrivals; phase-B rates and CPU are medians over probe windows.
LATENCY_WINDOW_SAMPLES = {"daemon-open": 100, "cluster-2pc": 50}
#: Phase B runs a fixed number of sessions: its share of ``--seconds``
#: times about the saturation rate (so every run does the same work).
NOMINAL_SAT_PER_S = {"daemon-open": 450.0, "cluster-2pc": 150.0}
TRACED_SLOWDOWN = 0.6
#: Rounds of phase A then phase B in one run.
SEGMENTS = 4
#: Share of ``--seconds`` spent in phase A (the rest is phase B).
PHASE_A_SHARE = 0.6
#: The traced run's share of ``--seconds`` for its untraced reference.
PLAIN_SHARE = 0.3
#: Layer-sum band: traced span self time must cover this share of the
#: server CPU per session (the remainder is service.loop_other_us).
LAYER_SUM_BAND = (0.45, 1.10)

#: Gated end-to-end metrics.  Admission latency is printed on every run
#: but not gated: on a shared 2-CPU host the cluster's multi-hop latency
#: moved 30-50% between ten-run sets whatever the estimator.
E2E_UNITS = {
    "setup_s": "s",
    "sat_sessions_per_s": "1/s",
    "server_cpu_us_per_session": "us",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "core.qrg.price_us": "us",
    "core.qrg.skeleton_hit_ratio": "ratio",
    "core.qrg.vector_share": "ratio",
    "core.plan_us": "us",
    "core.dijkstra_us": "us",
    "core.plan_none_share": "ratio",
    "runtime.snapshot_us": "us",
    "runtime.book_us": "us",
    "runtime.release_us": "us",
    "runtime.establish_self_us": "us",
    "runtime.admitted_share": "ratio",
    "runtime.rollback_count": "count",
    "sim.workload_us": "us",
    "sim.collect_us": "us",
    "des.step_self_us": "us",
    "obs.metrics_calls_per_session": "count",
    "obs.metrics_us": "us",
    "obs.events_calls_per_session": "count",
    "obs.events_us": "us",
    "obs.trace_calls_per_session": "count",
    "obs.trace_us": "us",
    "obs.flight_wire_us": "us",
    "obs.exposition_us": "us",
    "obs.scrape_ms": "ms",
    "service.request_json_us": "us",
    "service.serialize_us": "us",
    "service.handler_us": "us",
    "service.loop_other_us": "us",
    "daemon.gc_pause_ms_per_s": "ms/s",
    "daemon.gc_pause_max_ms": "ms",
    "daemon.admit_p99_ms": "ms",
    "client.cpu_us_per_session": "us",
    "client.rtt_us": "us",
    "wire.gap_us": "us",
    "loadgen.late_p99_ms": "ms",
    "client.connections_opened": "count",
    "cluster.round_trips_per_admission": "count",
    "cluster.snapshot_ms": "ms",
    "cluster.reserve_ms": "ms",
    "cluster.commit_ms": "ms",
    "cluster.lock_wait_ms": "ms",
    "cluster.plan_us": "us",
    "cluster.cross_shard_share": "ratio",
    "cluster.merit_reject_share": "ratio",
    "cluster.abort_count": "count",
    "cluster.router_cpu_us_per_session": "us",
    "cluster.shard_cpu_us_per_session": "us",
    "trace.server_cpu_us_per_session": "us",
    "trace.overhead_us_per_session": "us",
    "trace.overhead_share": "ratio",
    "trace.layer_sum_share": "ratio",
    "admit_p50_ms": "ms",
    "admit_p90_ms": "ms",
    "admit_p99_ms": "ms",
    "error_share": "ratio",
    "host.cpus": "count",
    "host.calibration_ms": "ms",
}

#: Per-session layer groups: metric -> span names whose self time it sums.
SELF_GROUPS = {
    "core.qrg.price_us": ("core.qrg.price", "core.qrg.vector", "core.qrg.skeleton", "core.qrg.build"),
    "core.plan_us": ("core.plan",),
    "core.dijkstra_us": ("core.dijkstra",),
    "runtime.snapshot_us": ("runtime.snapshot",),
    "runtime.book_us": ("runtime.book",),
    "runtime.release_us": ("runtime.release",),
    "runtime.establish_self_us": ("runtime.establish",),
    "sim.workload_us": ("sim.workload",),
    "sim.collect_us": ("sim.collect",),
    "des.step_self_us": ("des.step",),
    "obs.metrics_us": ("obs.metrics",),
    "obs.events_us": ("obs.events",),
    "obs.trace_us": ("obs.trace",),
    "obs.flight_wire_us": ("obs.flight",),
    "service.request_json_us": ("service.request_json",),
    "service.serialize_us": ("service.serialize",),
    "service.handler_us": ("service.handler",),
}


class Outcome:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.checks: Dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0
        self.lines: List[str] = []
        self.digest_facts: Dict[str, object] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = bool(ok) and self.checks.get(name, True)
        if not ok:
            self.lines.append(f"check FAILED {name} {detail}".rstrip())


# -- sim-fig9 -----------------------------------------------------------------

_SIM_SETUP = (
    "import speedprobe\n"
    "boot = speedprobe.probe_runs()\n"
    "from repro.des.engine import Environment\n"
    "from repro.des.rng import RandomStreams\n"
    "from repro.sim.environment import GridEnvironment\n"
    "from repro.sim.services import evaluation_services_for\n"
    "import repro.sim.experiment  # what a run imports before simulating\n"
    "import json, sys\n"
    "GridEnvironment(Environment(), RandomStreams(int(sys.argv[1])),"
    " services=evaluation_services_for(None))\n"
    "print('ready', flush=True)\n"
    "print(json.dumps(boot + speedprobe.probe_runs()), file=sys.stderr, flush=True)\n"
)


def _sim_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(common.SRC), str(HERE)))
    return env


def _sim_setup_s(seed: int):
    """Spawn -> figure-9 grid built, for a fresh interpreter.

    Returns (seconds, core-speed factor of the probes the child ran as it
    started and once ready).  The child reports the probes on stderr:
    ``communicate`` reads the pipes' file descriptors directly, so a second
    stdout line buffered by ``readline`` would be lost."""
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", _SIM_SETUP, str(seed)],
        cwd=str(ROOT), env=_sim_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    ready = child.stdout.readline()
    elapsed = time.perf_counter() - started
    try:
        _rest, errors = child.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise
    if child.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"sim set-up failed: {errors[-400:]}")
    return elapsed, speedprobe.boot_factor(json.loads(errors.strip().splitlines()[-1]))


def _sim_measured(seed: int, seconds: float) -> dict:
    """The timed repetitions, run by simwork.py in a process of their own."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "simwork.py"), "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=str(ROOT), env=_sim_env(), capture_output=True, text=True,
        timeout=seconds + 120,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"sim run failed: {completed.stderr[-400:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _check_sim(out: Outcome, seed: int, digests: dict) -> None:
    expected = json.loads((HERE / "expected_sim.json").read_text()).get(str(seed))
    for algorithm in simwork.PLANNERS:
        out.check("sim_accounting_balanced", digests[algorithm + "_balanced"])
        got = digests[algorithm]
        if expected is None:
            continue
        want = expected[algorithm]
        same = (
            got["attempts"] == want["attempts"]
            and got["successes"] == want["successes"]
            and abs(got["mean_qos"] - want["mean_qos"]) < 1e-9
        )
        out.check(f"sim_pinned_{algorithm}", same, f"got {got} want {want}")
    out.check("sim_seed_pinned", expected is not None, f"seed {seed} not in expected_sim.json")
    out.digest_facts["sim"] = {a: digests[a] for a in simwork.PLANNERS}
    for algorithm in simwork.PLANNERS:
        got = digests[algorithm]
        out.lines.append(
            f"sim {algorithm}: attempts {got['attempts']} success "
            f"{got['successes'] / got['attempts']:.4f} mean_qos {got['mean_qos']:.4f}"
        )


def _sim_checked_rep(out: Outcome, seed: int, first: Optional[dict]):
    """One repetition with its correctness checks; returns (digests, sessions, cpu s)."""
    digests, sessions, cpu_s = simwork.run_rep(seed)
    out.attempted += sessions
    if first is None:
        _check_sim(out, seed, digests)
    out.check("sim_repeatable", first is None or digests == first)
    return digests, sessions, cpu_s


def _sim_scenario(seed: int, out: Outcome) -> int:
    """The pinned simulation seed that ``--seed`` selects, noted in the output."""
    scenario = simwork.scenario_seed(seed)
    out.lines.append(
        f"sim scenario seed {scenario} (--seed {seed} mod {simwork.PINNED_SEEDS}, "
        f"the seeds pinned in expected_sim.json)"
    )
    return scenario


def run_sim(args, out: Outcome, workdir: Path) -> None:
    if args.trace:
        _trace_sim(args, out)
        return
    seed = _sim_scenario(args.seed, out)
    setups = [_sim_setup_s(seed) for _ in range(SETUP_REPEATS)]
    measured = _sim_measured(seed, args.seconds)
    digests = measured["digests"]
    out.attempted += sum(measured["sessions"])
    _check_sim(out, seed, digests[0])
    out.check("sim_repeatable", all(d == digests[0] for d in digests))
    windows = measured["windows"]
    out.metrics.update(
        setup_s=common.median([elapsed * factor for elapsed, factor in setups]),
        sat_sessions_per_s=common.median([w[0] / w[5] for w in windows]),
        server_cpu_us_per_session=common.median([w[1] * w[5] for w in windows]),
        peak_rss_mb=measured["peak_rss_mb"],
    )
    _latency_line(out, common.median([w[2] * w[5] for w in windows]),
                  common.median([w[3] * w[5] for w in windows]))
    out.lines.append(
        f"raw (uncalibrated) medians: setup_s "
        f"{common.median([elapsed for elapsed, _f in setups]):.4f}, sat_sessions_per_s "
        f"{common.median([w[0] for w in windows]):.2f}, server_cpu_us_per_session "
        f"{common.median([w[1] for w in windows]):.2f}, admit_p50_ms "
        f"{common.median([w[2] for w in windows]):.4f}, admit_p90_ms "
        f"{common.median([w[3] for w in windows]):.4f}; core probe "
        f"{common.median(measured['probes']):.4f} ms (reference {speedprobe.REFERENCE_MS} ms)"
    )
    out.lines.append(
        f"admit_p99_ms {common.median([w[4] for w in windows]):.4f} ms raw (median over "
        f"{len(windows)} windows of {simwork.EstablishTimer.WINDOW} sessions, 5 samples "
        f"beyond p99 in each; not gated); {len(digests)} repetitions"
    )


def _trace_sim(args, out: Outcome) -> None:
    """One untraced repetition for reference, then one traced."""
    seed = _sim_scenario(args.seed, out)
    first, plain_sessions, plain_cpu_s = _sim_checked_rep(out, seed, None)
    plain_cpu = plain_cpu_s * 1e6 / plain_sessions
    tracer = layertrace.LayerTracer()
    tracer.phase = "S"
    tracer.install("sim")
    try:
        _digests, sessions, cpu_s = _sim_checked_rep(out, seed, first)
    finally:
        tracer.uninstall()
    report = layertrace.TraceReport([tracer.document()])
    traced_cpu = cpu_s * 1e6 / sessions
    _layer_metrics(out, report, {"S"}, sessions, traced_cpu, plain_cpu)
    out.metrics["runtime.admitted_share"] = _ratio(
        report.count("runtime.admitted", {"S"}), report.calls("runtime.establish", {"S"})
    )


# -- shared layer arithmetic --------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_metrics(out: Outcome, report, phases, sessions: int,
                   traced_cpu_us: float, plain_cpu_us: float) -> None:
    """Per-session self times, shares, the layer sum and tracing overhead."""
    per = 1e6 / sessions if sessions else 0.0
    for metric, names in SELF_GROUPS.items():
        out.metrics[metric] = sum(report.self_s(n, phases) for n in names) * per
    for plane in ("metrics", "events", "trace"):
        out.metrics[f"obs.{plane}_calls_per_session"] = _ratio(
            report.calls(f"obs.{plane}", phases), sessions
        )
    out.metrics["core.qrg.skeleton_hit_ratio"] = 1.0 - _ratio(
        report.calls("core.qrg.build", phases), report.calls("core.qrg.skeleton", phases)
    ) if report.calls("core.qrg.skeleton", phases) else 0.0
    out.metrics["core.qrg.vector_share"] = _ratio(
        report.calls("core.qrg.vector", phases), report.calls("core.qrg.price", phases)
    )
    out.metrics["core.plan_none_share"] = _ratio(
        report.count("core.plan_none", phases), report.calls("core.plan", phases)
    )
    out.metrics["runtime.rollback_count"] = report.count("runtime.rollback", phases)
    covered = report.cpu_self_s(phases) * per
    out.metrics["service.loop_other_us"] = traced_cpu_us - covered
    out.metrics["trace.server_cpu_us_per_session"] = traced_cpu_us
    out.metrics["trace.layer_sum_share"] = _ratio(covered, traced_cpu_us)
    out.metrics["trace.overhead_us_per_session"] = traced_cpu_us - plain_cpu_us
    out.metrics["trace.overhead_share"] = _ratio(traced_cpu_us - plain_cpu_us, plain_cpu_us)
    low, high = LAYER_SUM_BAND
    share = out.metrics["trace.layer_sum_share"]
    out.check("layer_sum_within_band", low <= share <= high,
              f"covered share {share:.3f} outside [{low}, {high}]")
    out.lines.append(
        f"layer sum: spans {covered:.1f} us + loop_other "
        f"{out.metrics['service.loop_other_us']:.1f} us = server cpu "
        f"{traced_cpu_us:.1f} us/session (band {low}-{high} of it covered: {share:.3f})"
    )


# -- daemon-open and cluster-2pc ----------------------------------------------


class Fleet:
    """The server processes of one workload instance."""

    def __init__(self, workload: str, workdir: Path, *, traced: bool, tag: str) -> None:
        self.workload = workload
        self.workdir = workdir
        self.traced = traced
        self.tag = tag
        self.servers: List[common.Server] = []
        #: Per-process launcher output (probe samples, spans when traced).
        self.out_files: List[Path] = []
        self.front: Optional[common.Server] = None
        self.shards: List[common.Server] = []

    def _spawn(self, name: str, role: str, server_args: List[str]) -> common.Server:
        name = f"{self.tag}-{name}"
        out_file = self.workdir / f"{name}.json"
        self.out_files.append(out_file)
        argv = [str(HERE / "launch.py"), "--out", str(out_file)]
        argv += ["--trace"] if self.traced else []
        server = common.Server(name, argv + [role, "--"] + server_args, self.workdir)
        self.servers.append(server)
        return server

    def start(self) -> float:
        """Boot every process; returns spawn -> all healthy seconds."""
        started = time.perf_counter()
        common_args = ["--port", "0", "--seed", str(GRID_SEED)]
        if self.workload == "daemon-open":
            self.front = self._spawn("daemon", "daemon", common_args)
            self.front.wait_ready()
            return time.perf_counter() - started
        self.shards = [
            self._spawn(f"shard{i}", "daemon",
                        common_args + ["--shard-index", str(i), "--shard-count", "2"])
            for i in range(2)
        ]
        shard_args = []
        for shard in self.shards:
            shard.wait_ready()
            shard_args += ["--shard", f"127.0.0.1:{shard.port}"]
        self.front = self._spawn("router", "router", common_args + shard_args)
        self.front.wait_ready()
        return time.perf_counter() - started

    def pin(self) -> None:
        """Give the measured phases a fixed CPU placement.

        Left to the scheduler, the driver, router and shards of
        ``cluster-2pc`` shared the two CPUs differently from run to run,
        and the saturation throughput moved with the placement.  The
        benchmark process (the load driver) takes the first CPU, with the
        router; the daemon, or both shards, take the second."""
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < 2:
            return
        common.pin(os.getpid(), cpus[0])
        common.pin(self.front.pid, cpus[0] if self.shards else cpus[1])
        for shard in self.shards:
            common.pin(shard.pid, cpus[1])

    def cpu_s(self) -> Dict[str, float]:
        return {server.name: server.cpu_s() for server in self.servers}

    def peak_rss_mb(self) -> float:
        return sum(server.peak_rss_mb() for server in self.servers)

    def stop(self) -> None:
        common.stop_all(self.servers)

    def documents(self) -> List[dict]:
        """What each launcher wrote at exit (call after :meth:`stop`)."""
        return [json.loads(path.read_text()) for path in self.out_files]

    # -- correctness views (blocking, outside the measured phases) --------

    def availability(self) -> dict:
        views = {}
        for server in self.shards or [self.front]:
            status, document = common.http_get(server.port, "/v1/availability")
            if status != 200:
                raise RuntimeError(f"availability of {server.name}: HTTP {status}")
            views[server.name.split("-", 1)[1]] = {
                rid: round(fields["available"], 6)
                for rid, fields in sorted(document["resources"].items())
            }
        return views

    def check_quiescent(self, out: Outcome) -> int:
        """Check no session or lease is left; returns lease aborts seen."""
        aborted = 0
        status, document = common.http_get(self.front.port, "/v1/query")
        out.check("query_ok", status == 200, f"HTTP {status}")
        out.check("no_active_sessions", status == 200 and document["active_sessions"] == 0,
                  f"front: {document}")
        for shard in self.shards:
            status, document = common.http_get(shard.port, "/v1/query")
            leases = (document or {}).get("shard", {}) or {}
            counters = leases.get("lease_counters", {})
            out.check("no_active_sessions", status == 200 and document["active_sessions"] == 0,
                      f"{shard.name}: {document and document.get('active_sessions')}")
            balanced = counters.get("reserved", -1) == (
                counters.get("committed", 0) + counters.get("aborted", 0)
                + counters.get("expired", 0)
            ) and leases.get("pending_leases", 1) == 0
            out.check("leases_balanced", balanced, f"{shard.name}: {leases}")
            aborted += counters.get("aborted", 0)
        return aborted


def _check_phases(out: Outcome, logs: Dict[str, list], driver) -> None:
    for segments in logs.values():
        for log in segments:
            _check_phase(out, log, driver)


def _check_phase(out: Outcome, log, driver) -> None:
    out.attempted += log.attempted
    out.failed += log.failed
    answered = log.admitted + log.rejected
    out.check("admitted_plus_rejected_is_attempted",
              answered + log.establish_failed == log.arrivals and log.failed == 0,
              f"phase {log.phase}: {log.arrivals} arrivals, {answered} answered, "
              f"{log.failed} failed")
    out.check("every_admitted_torn_down", log.torn_down == log.admitted,
              f"phase {log.phase}: {log.torn_down} of {log.admitted}")
    out.check("at_most_two_connections", driver.client.connections_opened <= 2,
              f"{driver.client.connections_opened} opened")


async def _drive(fleet: Fleet, seed: int, seconds: float, *, traced: bool,
                 phase_b: str = "B", phase_a: bool = True):
    """Lead-in, then SEGMENTS rounds of phase A (open loop + 1 Hz scrape)
    followed by a slice of phase B (closed loop).

    Alternating the phases in rounds spreads each over the whole run, so
    a slow spell of a shared host does not land on one phase alone.
    Returns (segments by phase, server CPU seconds in phase B by process,
    the driver)."""
    rate = RATE_PER_S[fleet.workload]
    fleet.pin()
    driver = load_driver.Driver(fleet.front.port, seed, traced=traced)
    segments: Dict[str, list] = {"W": [], "A": [], phase_b: []}
    b_seconds = seconds * (1 - PHASE_A_SHARE) if phase_a else seconds
    nominal = NOMINAL_SAT_PER_S[fleet.workload] * (TRACED_SLOWDOWN if traced else 1.0)
    b_sessions = max(load_driver.PROBE_EVERY, int(b_seconds * nominal / SEGMENTS))
    cpu_b: Dict[str, float] = {}
    try:
        segments["W"].append(
            await driver.open_loop("W", rate_per_s=rate, duration_s=LEAD_IN_S)
        )
        for _ in range(SEGMENTS):
            if phase_a:
                segments["A"].append(await driver.open_loop(
                    "A", rate_per_s=rate, duration_s=seconds * PHASE_A_SHARE / SEGMENTS,
                    scrape_hz=1.0,
                ))
            before = fleet.cpu_s()
            segments[phase_b].append(await driver.closed_loop(
                phase_b, sessions=b_sessions,
                probe=lambda: sum(fleet.cpu_s().values()),
            ))
            for name, value in fleet.cpu_s().items():
                cpu_b[name] = cpu_b.get(name, 0.0) + value - before[name]
    finally:
        await driver.aclose()
    return segments, cpu_b, driver


def _speed_factor(samples, start: float, end: float, fallback_ms: float) -> float:
    """REFERENCE_MS / the server's probe time around [start, end]."""
    measured = speedprobe.speed_between(samples, start, end)
    return speedprobe.REFERENCE_MS / (measured or fallback_ms)


def _closed_windows(logs, samples):
    """Per probe window of closed loops: (sessions/s, server CPU us/session,
    core-speed factor)."""
    fallback = common.median([ms for _at, ms in samples])
    rows = []
    for log in logs:
        for (t0, c0, n0), (t1, c1, n1) in zip(log.probes, log.probes[1:]):
            rows.append(((n1 - n0) / (t1 - t0), (c1 - c0) * 1e6 / (n1 - n0),
                         _speed_factor(samples, t0, t1, fallback)))
    return rows


def _latency_windows(logs, window_samples: int, rate: float, samples):
    """Per window of due times in open loops: (p50 ms, p90 ms, core-speed
    factor)."""
    window_s = window_samples / rate
    fallback = common.median([ms for _at, ms in samples])
    rows = []
    for log in logs:
        groups: Dict[int, List[float]] = {}
        for e in log.establishes:
            groups.setdefault(int((e.due - log.started) / window_s), []).append(
                (e.done - e.due) * 1e3
            )
        for index, values in sorted(groups.items()):
            if len(values) >= window_samples // 2:
                begin = log.started + index * window_s
                rows.append((common.percentile(values, 50), common.percentile(values, 90),
                             _speed_factor(samples, begin, begin + window_s, fallback)))
    if not rows:  # a run too short for one full window: pool everything
        values = [latency for log in logs for latency in log.latencies_ms()]
        rows.append((common.percentile(values, 50), common.percentile(values, 90),
                     speedprobe.REFERENCE_MS / fallback))
    return rows


def _latency_line(out: Outcome, p50_ms: float, p90_ms: float) -> None:
    out.lines.append(
        f"admit_p50_ms {p50_ms:.4f} ms, admit_p90_ms {p90_ms:.4f} ms "
        "(calibrated medians over windows; printed, not gated)"
    )


def _queueing_line(out: Outcome, rate: float, sat: float, p50_ms: float) -> None:
    """M/D/1 sanity on raw values: service time from phase B, mean wait at
    the phase-A rate, beside the measured median latency."""
    service_s = 1.0 / sat
    rho = rate * service_s
    if rho >= 1:
        out.lines.append(f"queueing: rho {rho:.2f} >= 1 at {rate:g}/s (no steady state)")
        return
    wait_ms = rho * service_s / (2 * (1 - rho)) * 1e3
    out.lines.append(
        f"queueing (M/D/1, not gated): service {service_s * 1e3:.3f} ms, rho {rho:.3f}, "
        f"mean wait {wait_ms:.3f} ms, predicted response {service_s * 1e3 + wait_ms:.3f} ms "
        f"vs measured raw admit p50 {p50_ms:.3f} ms"
    )


def run_service(args, out: Outcome, workdir: Path) -> None:
    if args.trace:
        _trace_service(args, out, workdir)
    else:
        _measure_service(args, out, workdir)


def _boot_repeatedly(workload: str, workdir: Path):
    """Boot SETUP_REPEATS fleets one after another, keeping the last running.

    Returns [(spawn -> healthy seconds, fleet)]; all but the last fleet
    are stopped."""
    boots = []
    for attempt in range(SETUP_REPEATS):
        fleet = Fleet(workload, workdir, traced=False, tag=f"s{attempt}")
        try:
            boots.append((fleet.start(), fleet))
        except BaseException:
            fleet.stop()
            raise
        if attempt < SETUP_REPEATS - 1:
            fleet.stop()
    return boots


def _fleet_setups(boots) -> List[tuple]:
    """(seconds, core-speed factor) per boot, once every fleet has stopped:
    the factor comes from the probes its processes ran while booting."""
    return [
        (elapsed, speedprobe.boot_factor(
            [ms for document in fleet.documents() for ms in document["boot_probes"]]
        ))
        for elapsed, fleet in boots
    ]


def _measure_service(args, out: Outcome, workdir: Path) -> None:
    """The untraced run: every end-to-end metric, calibrated per window."""
    workload = args.workload
    rate = RATE_PER_S[workload]
    boots = _boot_repeatedly(workload, workdir)
    fleet = boots[-1][1]
    try:
        before = fleet.availability()
        logs, cpu_b, driver = asyncio.run(_drive(fleet, args.seed, args.seconds, traced=False))
        _check_phases(out, logs, driver)
        after = fleet.availability()
        out.check("availability_restored", before == after)
        fleet.check_quiescent(out)
        out.metrics["peak_rss_mb"] = fleet.peak_rss_mb()
    finally:
        fleet.stop()
    out.digest_facts["availability"] = after
    setups = _fleet_setups(boots)
    samples = sorted(sample for doc in fleet.documents() for sample in doc["probes"])
    a, b = load_driver.PhaseLog.merge(logs["A"]), load_driver.PhaseLog.merge(logs["B"])
    lat = a.latencies_ms()
    b_rows = _closed_windows(logs["B"], samples)
    window_samples = LATENCY_WINDOW_SAMPLES[workload]
    a_rows = _latency_windows(logs["A"], window_samples, rate, samples)
    out.metrics.update(
        setup_s=common.median([elapsed * factor for elapsed, factor in setups]),
        sat_sessions_per_s=common.median([r / f for r, _c, f in b_rows]),
        server_cpu_us_per_session=common.median([c * f for _r, c, f in b_rows]),
    )
    _latency_line(out, common.median([p50 * f for p50, _p90, f in a_rows]),
                  common.median([p90 * f for _p50, p90, f in a_rows]))
    out.lines.append(
        f"raw (uncalibrated) medians: setup_s "
        f"{common.median([elapsed for elapsed, _f in setups]):.4f}, sat_sessions_per_s "
        f"{common.median([r for r, _c, _f in b_rows]):.2f}, server_cpu_us_per_session "
        f"{common.median([c for _r, c, _f in b_rows]):.1f}, admit_p50_ms "
        f"{common.median([w[0] for w in a_rows]):.3f}, admit_p90_ms "
        f"{common.median([w[1] for w in a_rows]):.3f}; core probe "
        f"{common.median([ms for _at, ms in samples]):.4f} ms "
        f"(reference {speedprobe.REFERENCE_MS} ms)"
    )
    out.lines.append(
        f"windows: {len(b_rows)} of {load_driver.PROBE_EVERY} sessions in phase B, {len(a_rows)} of "
        f"{window_samples / rate:g} s in phase A, {SEGMENTS} rounds; whole-phase B: "
        f"{len(b.establishes) / b.elapsed:.1f}/s, "
        f"{sum(cpu_b.values()) * 1e6 / len(b.establishes):.1f} us/session"
    )
    q, value, beyond = common.tail_percentile(lat)
    out.lines.append(
        f"admit_p{q:g}_ms {value:.4f} ms (samples beyond: {beyond}, n={len(lat)}; not gated)"
    )
    out.lines.append(
        f"phase A: {a.admitted} admitted, {a.rejected} rejected at {rate:g}/s; "
        f"phase B: {len(b.establishes)} sessions, {b.admitted} admitted; "
        f"late p99 {common.percentile(a.late_ms(), 99):.3f} ms; "
        f"connections opened {driver.client.connections_opened}"
    )
    _queueing_line(out, rate, common.median([r for r, _c, _f in b_rows]),
                   common.median([w[0] for w in a_rows]))


def _trace_service(args, out: Outcome, workdir: Path) -> None:
    """The traced run: an untraced reference first, then the traced fleet."""
    workload = args.workload
    plain = Fleet(workload, workdir, traced=False, tag="plain")
    try:
        plain.start()
        logs, cpu_p, driver = asyncio.run(
            _drive(plain, args.seed, args.seconds * PLAIN_SHARE, traced=False,
                   phase_b="P", phase_a=False)
        )
        _check_phases(out, logs, driver)
    finally:
        plain.stop()
    p_log = load_driver.PhaseLog.merge(logs["P"])
    p_sessions = len(p_log.establishes)
    plain_cpu = sum(cpu_p.values()) * 1e6 / p_sessions
    out.metrics["client.cpu_us_per_session"] = p_log.client_cpu_s * 1e6 / p_sessions
    if workload == "cluster-2pc":
        out.metrics["cluster.router_cpu_us_per_session"] = (
            cpu_p["plain-router"] * 1e6 / p_sessions
        )
        out.metrics["cluster.shard_cpu_us_per_session"] = sum(
            v for k, v in cpu_p.items() if "shard" in k
        ) * 1e6 / p_sessions

    fleet = Fleet(workload, workdir, traced=True, tag="traced")
    try:
        fleet.start()
        before = fleet.availability()
        logs, cpu_b, driver = asyncio.run(
            _drive(fleet, args.seed, args.seconds * (1 - PLAIN_SHARE), traced=True)
        )
        _check_phases(out, logs, driver)
        out.check("availability_restored", before == fleet.availability())
        out.metrics["cluster.abort_count"] = fleet.check_quiescent(out)
    finally:
        fleet.stop()
    documents = fleet.documents()
    report = layertrace.TraceReport(documents)
    a, b = load_driver.PhaseLog.merge(logs["A"]), load_driver.PhaseLog.merge(logs["B"])
    sessions = len(b.establishes)
    traced_cpu = sum(cpu_b.values()) * 1e6 / sessions
    _layer_metrics(out, report, {"B"}, sessions, traced_cpu, plain_cpu)
    ab = {"A", "B"}
    out.metrics["runtime.admitted_share"] = _ratio(
        report.count("runtime.admitted", ab), report.calls("runtime.establish", ab)
    ) if report.calls("runtime.establish", ab) else _ratio(  # the router decides
        a.admitted + b.admitted, a.admitted + a.rejected + b.admitted + b.rejected
    )
    out.metrics["core.qrg.skeleton_hit_ratio"] = (
        1.0 - _ratio(report.calls("core.qrg.build", ab), report.calls("core.qrg.skeleton", ab))
        if report.calls("core.qrg.skeleton", ab) else 0.0
    )
    exposition_calls = report.calls("obs.exposition", {"A"})
    out.metrics["obs.exposition_us"] = _ratio(
        report.wall_s("obs.exposition", {"A"}) * 1e6, exposition_calls
    )
    out.metrics["obs.scrape_ms"] = common.median(a.scrape_ms)
    _client_metrics(out, documents[-1], a, driver)
    _gc_metrics(out, documents, logs["A"])
    if workload == "cluster-2pc":
        _cluster_metrics(out, report, documents[-1], (a, b))


def _server_spans(document: dict, name: str, prefix: str, path: str) -> Dict[str, tuple]:
    """request id -> (start, end) of one boundary span kind on one path."""
    return {
        request_id: (start, end)
        for span, request_id, start, end, span_path in document["requests"]
        if span == name and request_id.startswith(prefix) and span_path == path
    }


def _client_metrics(out: Outcome, front: dict, a, driver) -> None:
    """RTT, wire gap, generator lateness and the front's admission p99."""
    dispatch = _server_spans(front, "service.dispatch", "A-", "/v1/establish")
    rtts, gaps = [], []
    for est in a.establishes:
        rtt = est.done - est.sent
        rtts.append(rtt)
        server = dispatch.get(est.session_id)
        if server is not None:
            gaps.append(rtt - (server[1] - server[0]))
    out.metrics["client.rtt_us"] = common.median(rtts) * 1e6
    out.metrics["wire.gap_us"] = common.median(gaps) * 1e6
    out.metrics["loadgen.late_p99_ms"] = common.percentile(a.late_ms(), 99)
    out.metrics["client.connections_opened"] = driver.client.connections_opened
    server_ms = [(end - start) * 1e3 for start, end in dispatch.values()]
    out.metrics["daemon.admit_p99_ms"] = common.percentile(server_ms, 99)
    lat = a.latencies_ms()
    q, value, beyond = common.tail_percentile(lat)
    out.metrics["admit_p50_ms"] = common.percentile(lat, 50)
    out.metrics["admit_p90_ms"] = common.percentile(lat, 90)
    out.metrics["admit_p99_ms"] = common.percentile(lat, 99)
    out.lines.append(f"traced admit_p{q:g}_ms {value:.4f} ms (samples beyond: {beyond})")


def _gc_metrics(out: Outcome, documents: List[dict], a_segments) -> None:
    """GC pauses of the server processes during phase A."""
    pauses = [
        duration
        for document in documents
        for start, duration, _generation in document["gc_pauses"]
        if any(log.started <= start <= log.ended for log in a_segments)
    ]
    elapsed = sum(log.elapsed for log in a_segments)
    out.metrics["daemon.gc_pause_ms_per_s"] = sum(pauses) * 1e3 / elapsed
    out.metrics["daemon.gc_pause_max_ms"] = max(pauses, default=0.0) * 1e3


def _cluster_metrics(out: Outcome, report, router: dict, logs) -> None:
    from repro.cluster.router import INFRA_REJECT_REASONS

    b = {"B"}
    establishes = report.calls("cluster.establish", b)
    round_trips = sum(
        report.calls(f"cluster.rt.{op}", b) for op in ("availability", "reserve", "commit", "abort")
    )
    snapshots = report.calls("cluster.snapshot", b)
    out.metrics["cluster.round_trips_per_admission"] = _ratio(round_trips, establishes)
    out.metrics["cluster.snapshot_ms"] = _ratio(report.wall_s("cluster.snapshot", b) * 1e3, snapshots)
    out.metrics["cluster.reserve_ms"] = _ratio(report.wall_s("cluster.rt.reserve", b) * 1e3, establishes)
    out.metrics["cluster.commit_ms"] = _ratio(report.wall_s("cluster.rt.commit", b) * 1e3, establishes)
    out.metrics["cluster.plan_us"] = _ratio(report.wall_s("cluster.plan", b) * 1e6, report.calls("cluster.plan", b))
    out.metrics["cluster.cross_shard_share"] = _ratio(
        report.calls("cluster.rt.availability", b) - snapshots, snapshots
    )
    dispatch = _server_spans(router, "service.dispatch", "B-", "/v1/establish")
    waits = [
        start - dispatch[request_id][0]
        for request_id, (start, _end) in _server_spans(router, "cluster.establish", "B-", "").items()
        if request_id in dispatch
    ]
    out.metrics["cluster.lock_wait_ms"] = (sum(waits) / len(waits) * 1e3) if waits else 0.0
    answered = merit = 0
    for log in logs:
        answered += log.admitted + log.rejected
        merit += sum(n for reason, n in log.reject_reasons.items() if reason not in INFRA_REJECT_REASONS)
    out.metrics["cluster.merit_reject_share"] = _ratio(merit, answered)


# -- output -------------------------------------------------------------------


def _emit(args, out: Outcome, facts: dict) -> None:
    names = LAYER_UNITS if args.trace else E2E_UNITS
    if args.trace:
        out.metrics["host.cpus"] = facts["cpus"]
        out.metrics["host.calibration_ms"] = facts["calibration_ms"]
        out.metrics["error_share"] = _ratio(out.failed, out.attempted)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"cpus {facts['cpus']} python {facts['python']} "
          f"calibration_ms {facts['calibration_ms']:.4f}")
    for line in out.lines:
        print(line)
    metrics = {}
    for name, unit in names.items():
        value = float(out.metrics.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} {value:.6g} {unit}")
    print(f"error_share {_ratio(out.failed, out.attempted):.6g} ratio "
          f"({out.failed} failed of {out.attempted} attempted)")
    for name in sorted(out.checks):
        print(f"check {name} {'ok' if out.checks[name] else 'FAILED'}")
    correct = all(out.checks.values()) and out.failed == 0
    facts_digest = common.digest({
        "workload": args.workload, "seed": args.seed,
        "checks": out.checks, "facts": out.digest_facts,
    })
    print(f"correctness_digest {facts_digest}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": metrics,
    }))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if simwork is None or not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no importable repro sources under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    # A terminated benchmark still stops the servers it started (the
    # finally blocks run on SystemExit).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    out = Outcome()
    facts = common.host_facts()
    try:
        if args.workload == "sim-fig9":
            run_sim(args, out, workdir)
        else:
            run_service(args, out, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    _emit(args, out, facts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
