"""The ``sim-fig9`` workload: the paper's §5 evaluation on the figure-9 grid.

One repetition runs :func:`repro.sim.run_simulation` twice on the same
seeded arrivals -- the ``basic`` planner, then ``tradeoff`` -- at the
highest generation rate of figures 11-13 (240 sessions per 60 TU) with
observability off.  About 57% of sessions are admitted, so the planners
and the coordinator work mostly on contended, rejected requests.

Run as a script, it is the measured process of the untraced run: it
repeats the workload for ``--seconds`` and prints one JSON line with the
outcomes, the timing windows and its own peak RSS::

    PYTHONPATH=src python3 perfbench/simwork.py --seed 7 --seconds 5

Nothing else is imported into it, so its peak RSS is the simulation's.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
from typing import Dict, List

from repro.sim import SimulationConfig, WorkloadSpec, run_simulation

import speedprobe

#: Figure 11-13's highest generation rate (sessions per 60 TU).
RATE_PER_60TU = 240.0
#: Simulated horizon (TU): 7104 arrivals for seed 7.
HORIZON = 1800.0
PLANNERS = ("basic", "tradeoff")
#: Seeds 0..PINNED_SEEDS-1 have their outcomes pinned in expected_sim.json.
PINNED_SEEDS = 100


def scenario_seed(seed: int) -> int:
    """The pinned simulation seed that benchmark seed ``seed`` selects.

    The benchmark may be given any seed, but only pinned outcomes can be
    checked, so ``seed`` picks one of the ``PINNED_SEEDS`` scenarios."""
    return seed % PINNED_SEEDS


def fig9_config(seed: int, algorithm: str) -> SimulationConfig:
    """One planner's run of the workload for ``seed``."""
    return SimulationConfig(
        algorithm=algorithm,
        seed=seed,
        workload=WorkloadSpec(rate_per_60tu=RATE_PER_60TU, horizon=HORIZON),
    )


def outcome_digest(result) -> Dict[str, float]:
    """The deterministic facts one planner's run is checked against."""
    return {
        "attempts": int(result.metrics.attempts),
        "successes": int(result.metrics.successes),
        "mean_qos": round(float(result.avg_qos_level), 10),
    }


def run_planner(seed: int, algorithm: str):
    """Run one planner on the workload; returns the SimulationResult."""
    return run_simulation(fig9_config(seed, algorithm))


def run_rep(seed: int):
    """One repetition (basic, tradeoff); returns (digests, sessions, CPU s).

    Besides each planner's digest, ``<planner>_balanced`` says whether its
    successes and rejections add up to its attempts."""
    digests = {}
    sessions = 0
    cpu_started = time.process_time()
    for algorithm in PLANNERS:
        result = run_planner(seed, algorithm)
        digests[algorithm] = outcome_digest(result)
        sessions += result.metrics.attempts
        rejected = sum(result.metrics.failure_reasons.values())
        digests[algorithm + "_balanced"] = (
            result.metrics.successes + rejected == result.metrics.attempts
        )
    return digests, sessions, time.process_time() - cpu_started


class EstablishTimer:
    """Times every ``ReservationCoordinator.establish`` call of a simulation.

    Every ``WINDOW`` calls it closes a window of equal work -- wall and
    CPU time since the window opened, and the latency percentiles of its
    calls -- and runs the core-speed probe before opening the next, so
    each window has a probe on either side.  Only per-window figures are
    kept, so its memory does not grow with the speed of the program."""

    WINDOW = 500

    def __init__(self) -> None:
        #: (wall s, CPU s, p50 ms, p90 ms, p99 ms) of each closed window.
        self.spans: List[tuple] = []
        #: Probe ms taken as window i opened; the last one closes the last span.
        self.probes: List[float] = []
        self._chunk: List[float] = []

    def _open(self) -> None:
        self.probes.append(speedprobe.probe_ms())
        self._opened = (time.perf_counter(), time.process_time())

    def _close(self) -> None:
        wall, cpu = self._opened
        cuts = statistics.quantiles(self._chunk, n=100, method="inclusive")
        self.spans.append((time.perf_counter() - wall, time.process_time() - cpu,
                           cuts[49] * 1e3, cuts[89] * 1e3, cuts[98] * 1e3))
        self._chunk.clear()
        self._open()

    def __enter__(self) -> "EstablishTimer":
        from repro.runtime.coordinator import ReservationCoordinator

        self._original = original = ReservationCoordinator.establish
        chunk, window = self._chunk, self.WINDOW

        def timed(coordinator, *args, **kwargs):
            started = time.perf_counter()
            result = original(coordinator, *args, **kwargs)
            chunk.append(time.perf_counter() - started)
            if len(chunk) == window:
                self._close()
            return result

        ReservationCoordinator.establish = timed
        self._open()
        return self

    def __exit__(self, *_exc) -> None:
        from repro.runtime.coordinator import ReservationCoordinator

        ReservationCoordinator.establish = self._original

    def windows(self) -> List[tuple]:
        """Per window: (sessions/s, CPU us/session, p50 ms, p90 ms, p99 ms,
        core-speed factor)."""
        rows = []
        for index, (wall, cpu, p50, p90, p99) in enumerate(self.spans):
            probe = (self.probes[index] + self.probes[index + 1]) / 2
            rows.append((self.WINDOW / wall, cpu * 1e6 / self.WINDOW, p50, p90, p99,
                         speedprobe.REFERENCE_MS / probe))
        return rows


def measure(seed: int, seconds: float) -> dict:
    """Repeat the workload (at least once) for ``seconds``, timed."""
    deadline = time.perf_counter() + seconds
    timer = EstablishTimer()
    digests: List[dict] = []
    sessions: List[int] = []
    with timer:
        while not digests or time.perf_counter() < deadline:
            rep_digests, rep_sessions, _cpu_s = run_rep(seed)
            digests.append(rep_digests)
            sessions.append(rep_sessions)
    return {
        "digests": digests,
        "sessions": sessions,
        "windows": timer.windows(),
        "probes": timer.probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="time the sim-fig9 workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    print(json.dumps(measure(args.seed, args.seconds)), flush=True)


if __name__ == "__main__":
    main()
