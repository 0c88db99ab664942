"""The benchmark's own load driver: one process, at most two connections.

Built on :class:`repro.service.client.ServiceClient` (one keep-alive pool
shared by two worker coroutines, so at most two sockets).  One scheduler
coroutine walks a time-ordered heap of due operations -- arrivals,
teardowns and scrapes -- and hands each to a free worker when it falls
due; nothing is created per arrival up front.

* :func:`open_loop` replays seeded arrivals at a fixed rate.  Each
  establish is timed from when it was *due*, so a stall delays the
  requests queued behind it and that shows as latency.  Admitted
  sessions are held, then torn down on schedule.
* :func:`closed_loop` runs establish -> teardown back to back on both
  connections, for saturation throughput; its length is a session
  count, so the servers do the same work in every run.
"""

from __future__ import annotations

import asyncio
import gc
import heapq
import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional

from repro.des.rng import RandomStreams
from repro.obs import context as _context
from repro.service.client import ServiceClient
from repro.service.loadgen import arrival_payload
from repro.sim.workload import SessionArrival, WorkloadGenerator, WorkloadSpec

#: Arrivals come from the §5.1 generator at this rate (sessions / 60 TU)
#: and are rescaled in time to the requested sessions per second.
SOURCE_RATE_PER_60TU = 240.0
#: Service popularity is redrawn this often (the §5.1 default is 600 TU).
#: A run replays a few hundred TU, so with the default it would see one or
#: two popularity draws and the seed alone would move the service mix --
#: and the admission latency tail with it -- by tens of percent.
POPULARITY_PERIOD_TU = 10.0
WORKERS = 2
REQUEST_TIMEOUT_S = 10.0
#: Seconds an admitted open-loop session is held before its teardown is due.
HOLD_S = 0.5
#: A closed loop samples its probe every this many completed sessions.
PROBE_EVERY = 100

_perf = time.perf_counter


def arrivals(seed: int, phase: str) -> Iterator[SessionArrival]:
    """The seeded arrival stream of one phase, session ids prefixed."""
    phase_index = {"W": 1, "A": 2, "B": 3, "P": 4}[phase]
    spec = WorkloadSpec(
        rate_per_60tu=SOURCE_RATE_PER_60TU,
        horizon=1e9,
        popularity_period=POPULARITY_PERIOD_TU,
    )
    streams = RandomStreams(seed * 16 + phase_index)
    for count, arrival in enumerate(WorkloadGenerator(spec, streams).generate(), 1):
        yield replace(arrival, session_id=f"{phase}-{count}")


class ArrivalStream:
    """One phase's arrivals, consumed across several segments of the phase."""

    def __init__(self, seed: int, phase: str) -> None:
        self.source = arrivals(seed, phase)
        #: Workload time (TU) up to which arrivals have been replayed.
        self.replayed_tu = 0.0
        self._peeked: Optional[SessionArrival] = None

    def next_before(self, limit_tu: float) -> Optional[SessionArrival]:
        """The next arrival if it falls before ``limit_tu`` (else kept)."""
        if self._peeked is None:
            self._peeked = next(self.source)
        if self._peeked.arrival_time >= limit_tu:
            return None
        arrival, self._peeked = self._peeked, None
        return arrival


@dataclass
class Establish:
    session_id: str
    due: float
    sent: float
    done: float
    admitted: bool
    reason: str


@dataclass
class PhaseLog:
    """Everything one phase observed on the client side."""

    phase: str
    started: float = 0.0
    ended: float = 0.0
    establishes: List[Establish] = field(default_factory=list)
    #: Establish operations issued; each ends in ``establishes`` or
    #: ``establish_failed``.
    arrivals: int = 0
    establish_failed: int = 0
    attempted: int = 0
    failed: int = 0
    admitted: int = 0
    rejected: int = 0
    torn_down: int = 0
    teardown_failed: int = 0
    reject_reasons: Dict[str, int] = field(default_factory=dict)
    scrape_ms: List[float] = field(default_factory=list)
    client_cpu_s: float = 0.0
    #: (perf_counter, probe value, sessions completed) during a closed loop.
    probes: List[tuple] = field(default_factory=list)

    def latencies_ms(self) -> List[float]:
        return [(e.done - e.due) * 1e3 for e in self.establishes]

    def late_ms(self) -> List[float]:
        return [(e.sent - e.due) * 1e3 for e in self.establishes]

    @property
    def elapsed(self) -> float:
        return self.ended - self.started

    @classmethod
    def merge(cls, logs: List["PhaseLog"]) -> "PhaseLog":
        """One log for several segments of a phase (counts and samples
        pooled; ``elapsed`` is the summed time of the segments)."""
        merged = cls(logs[0].phase)
        for log in logs:
            merged.establishes += log.establishes
            merged.scrape_ms += log.scrape_ms
            for name in ("arrivals", "establish_failed", "attempted", "failed", "admitted",
                         "rejected", "torn_down", "teardown_failed", "client_cpu_s"):
                setattr(merged, name, getattr(merged, name) + getattr(log, name))
            for reason, count in log.reject_reasons.items():
                merged.reject_reasons[reason] = merged.reject_reasons.get(reason, 0) + count
            merged.ended += log.elapsed
        return merged


@contextmanager
def collector_paused():
    """Keep the load generator's own garbage collector off for one phase.

    A full collection of the driver process stalls its scheduler for tens
    of milliseconds, which would show up as admission latency of the
    server.  The driver creates almost no cyclic garbage; it is collected
    between phases, outside every timed window.
    """
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect()


class Driver:
    """Drives one server address with the shared two-connection client."""

    def __init__(self, port: int, seed: int, *, traced: bool) -> None:
        self.client = ServiceClient("127.0.0.1", port)
        self.seed = seed
        self.traced = traced
        self._streams: Dict[str, ArrivalStream] = {}

    def _stream(self, phase: str) -> ArrivalStream:
        if phase not in self._streams:
            self._streams[phase] = ArrivalStream(self.seed, phase)
        return self._streams[phase]

    async def aclose(self) -> None:
        await self.client.aclose()

    async def _call(self, request_id: str, coroutine_fn, *args, **kwargs):
        """One request; in a traced run it carries the request id."""
        token = None
        if self.traced:
            token = _context.bind_trace_context(
                _context.new_trace_context(request_id=request_id)
            )
        try:
            return await asyncio.wait_for(
                coroutine_fn(*args, **kwargs), REQUEST_TIMEOUT_S
            )
        finally:
            if token is not None:
                _context.reset_trace_context(token)

    # Any exception out of a request counts as a failed operation: 5xx and
    # transport trouble raise ServiceClientError, OSError or a timeout, and
    # a body that is not the expected JSON object raises ValueError,
    # TypeError or AttributeError.  A merit rejection is an answer.

    async def _establish(self, log: PhaseLog, arrival: SessionArrival, due: float) -> bool:
        log.attempted += 1
        sent = _perf()
        try:
            outcome = await self._call(
                arrival.session_id, self.client.establish, **arrival_payload(arrival)
            )
            done = _perf()
            admitted = bool(outcome["success"])
            reason = "" if admitted else str(outcome.get("reason") or "rejected")
        except Exception:
            log.failed += 1
            log.establish_failed += 1
            return False
        log.establishes.append(Establish(arrival.session_id, due, sent, done, admitted, reason))
        if admitted:
            log.admitted += 1
        else:
            log.rejected += 1
            log.reject_reasons[reason] = log.reject_reasons.get(reason, 0) + 1
        return admitted

    async def _teardown(self, log: PhaseLog, session_id: str) -> None:
        log.attempted += 1
        try:
            outcome = await self._call(session_id, self.client.teardown, session_id)
            released = int(outcome.get("released", 0))
        except Exception:
            log.failed += 1
            log.teardown_failed += 1
            return
        if released > 0:
            log.torn_down += 1
        else:
            log.teardown_failed += 1

    async def _scrape(self, log: PhaseLog, index: int) -> None:
        log.attempted += 2
        started = _perf()
        request_id = f"{log.phase}-scrape{index}"
        try:
            await self._call(request_id, self.client.metrics)
            await self._call(request_id, self.client.healthz)
        except Exception:
            log.failed += 1
            return
        log.scrape_ms.append((_perf() - started) * 1e3)

    async def open_loop(
        self,
        phase: str,
        *,
        rate_per_s: float,
        duration_s: float,
        scrape_hz: float = 0.0,
    ) -> PhaseLog:
        """Fixed-rate arrivals for ``duration_s``; returns once all the
        admitted sessions have been torn down.  A later call for the same
        phase continues its arrival stream."""
        log = PhaseLog(phase)
        seconds_per_tu = (SOURCE_RATE_PER_60TU / 60.0) / rate_per_s
        stream = self._stream(phase)
        first_tu = stream.replayed_tu
        limit_tu = first_tu + duration_s / seconds_per_tu
        stream.replayed_tu = limit_tu
        heap: list = []
        order = itertools.count()
        queue: asyncio.Queue = asyncio.Queue()
        cpu_started = time.process_time()
        start = _perf() + 0.01
        end = start + duration_s
        log.started = start

        def push(due: float, kind: str, item) -> None:
            heapq.heappush(heap, (due, next(order), kind, item))

        def push_next_arrival() -> None:
            arrival = stream.next_before(limit_tu)
            if arrival is not None:
                push(start + (arrival.arrival_time - first_tu) * seconds_per_tu,
                     "establish", arrival)

        push_next_arrival()
        if scrape_hz > 0:
            push(start + 1.0 / scrape_hz, "scrape", 1)
        pending = 0

        async def worker() -> None:
            nonlocal pending
            while True:
                job = await queue.get()
                if job is None:
                    return
                due, kind, item = job
                try:
                    if kind == "establish":
                        if await self._establish(log, item, due):
                            push(_perf() + HOLD_S, "teardown", item.session_id)
                    elif kind == "teardown":
                        await self._teardown(log, item)
                    else:
                        await self._scrape(log, item)
                finally:
                    pending -= 1

        with collector_paused():
            workers = [asyncio.create_task(worker()) for _ in range(WORKERS)]
            try:
                while heap or pending:
                    if not heap:
                        await asyncio.sleep(0.005)
                        continue
                    due, _, kind, item = heap[0]
                    delay = due - _perf()
                    if delay > 0:
                        await asyncio.sleep(min(delay, 0.05))
                        continue
                    heapq.heappop(heap)
                    pending += 1
                    queue.put_nowait((due, kind, item))
                    if kind == "establish":
                        log.arrivals += 1
                        push_next_arrival()
                    elif kind == "scrape" and due + 1.0 / scrape_hz < end:
                        push(due + 1.0 / scrape_hz, "scrape", item + 1)
            finally:
                for _ in workers:
                    queue.put_nowait(None)
                await asyncio.gather(*workers, return_exceptions=True)
        log.ended = max(end, _perf())
        log.client_cpu_s = time.process_time() - cpu_started
        return log

    async def closed_loop(
        self,
        phase: str,
        *,
        sessions: int,
        probe: Optional[Callable[[], float]] = None,
    ) -> PhaseLog:
        """``sessions`` establish -> teardown cycles, back to back on every
        connection.

        The amount of work is fixed rather than the duration, so every
        run leaves the servers in the same state.  ``probe`` (e.g. the
        servers' CPU seconds) is sampled every PROBE_EVERY completed
        sessions, cutting the phase into windows of equal work."""
        log = PhaseLog(phase)
        source = self._stream(phase).source
        cpu_started = time.process_time()
        log.started = _perf()
        issued = completed = 0
        if probe is not None:
            log.probes.append((log.started, probe(), 0))

        async def worker() -> None:
            nonlocal issued, completed
            while issued < sessions:
                issued += 1
                log.arrivals += 1
                arrival = next(source)
                if await self._establish(log, arrival, _perf()):
                    await self._teardown(log, arrival.session_id)
                completed += 1
                if probe is not None and completed % PROBE_EVERY == 0:
                    log.probes.append((_perf(), probe(), completed))

        with collector_paused():
            await asyncio.gather(*(worker() for _ in range(WORKERS)))
        log.ended = _perf()
        log.client_cpu_s = time.process_time() - cpu_started
        return log

