"""Core-speed probe: a fixed pure-python loop timed in thread CPU time.

On a shared host the same code runs faster or slower from one second to
the next as other tenants load the physical cores.  Timing this loop
right next to the measured work -- in the same process, on the same
core, within a fraction of a second -- tells how fast the core ran at
that moment, so the benchmark can report timings calibrated to a
reference core speed alongside the raw ones.
"""

from __future__ import annotations

import time
from typing import List, Tuple

PROBE_LOOPS = 5000
#: Probe time (ms) that calibrated values are scaled to.
REFERENCE_MS = 0.25
#: Probe runs taken as a process starts and again once it is ready; their
#: median calibrates that process's set-up time.
BOOT_RUNS = 5
#: Seconds between samples on a server's event loop.
EVERY_S = 0.1
#: Samples this close outside a timed window still describe it.
PAD_S = 0.3


def probe_ms() -> float:
    """Thread CPU milliseconds one run of the fixed loop takes."""
    started = time.thread_time()
    total = 0
    for i in range(PROBE_LOOPS):
        total += (i * i) % 7
    return (time.thread_time() - started) * 1e3


def probe_runs(runs: int = BOOT_RUNS) -> List[float]:
    """``runs`` back-to-back runs of :func:`probe_ms`."""
    return [probe_ms() for _ in range(runs)]


class LoopProbe:
    """Samples :func:`probe_ms` every EVERY_S on a running asyncio loop."""

    def __init__(self) -> None:
        #: (perf_counter, probe ms)
        self.samples: List[Tuple[float, float]] = []
        #: Probe ms taken while the process started up (see BOOT_RUNS).
        self.boot: List[float] = []
        self._loop = None

    def start_on(self, loop) -> None:
        self._loop = loop
        loop.call_later(EVERY_S, self._tick)

    def _tick(self) -> None:
        self.samples.append((time.perf_counter(), probe_ms()))
        self._loop.call_later(EVERY_S, self._tick)


def attach(daemon_class, probe: LoopProbe) -> None:
    """Start ``probe`` on the loop of every ``daemon_class`` once started,
    after taking the post-boot runs of ``probe.boot``."""
    import asyncio

    original = daemon_class.start

    async def start(daemon) -> None:
        await original(daemon)
        probe.boot += probe_runs()
        probe.start_on(asyncio.get_running_loop())

    daemon_class.start = start


def boot_factor(boot_ms: List[float]) -> float:
    """REFERENCE_MS / the median probe time taken while a process booted."""
    import statistics

    return REFERENCE_MS / statistics.median(boot_ms)


def speed_between(samples, start: float, end: float) -> float:
    """Median probe ms over [start - PAD_S, end + PAD_S] (None if no sample)."""
    import statistics

    inside = [ms for at, ms in samples if start - PAD_S <= at <= end + PAD_S]
    return statistics.median(inside) if inside else None
