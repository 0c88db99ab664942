"""Per-layer tracing from outside the program.

:class:`LayerTracer` replaces public functions of the repro layers with
timing wrappers (module or class attributes, so every caller that looks
the name up at call time goes through the wrapper).  Each wrapped call
is one span: its wall time, and its *self* time -- the wall time minus
the time of wrapped calls nested inside it.  Spans aggregate in memory
per (phase, name); the phase is the prefix of the request id the
benchmark's client put on the request (``A-``, ``B-``, ``W-``), so the
server side knows which phase of the run a call belongs to.

Boundary spans (one per request at the server's dispatch) are also kept
individually with the request id -- the session id -- so the client's
round trip and the server's span for the same session can be joined
across processes.  Everything stays in memory; :meth:`LayerTracer.document`
is what the launcher writes out when the server exits.

Coroutine functions get an async wrapper; their self time includes time
spent waiting on the network and is never counted as CPU.
"""

from __future__ import annotations

import gc
import inspect
import time
from typing import Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter

#: (owner, attribute, span name) for every layer, grouped per process kind.
#: Owners are given as "module:Class" or "module" strings and resolved
#: lazily so importing this file imports nothing from repro.
CORE = [
    ("repro.runtime.coordinator", "price_skeleton", "core.qrg.price"),
    ("repro.core.qrg", "price_skeleton", "core.qrg.price"),
    ("repro.core.qrg:QRGSkeletonCache", "skeleton_for", "core.qrg.skeleton"),
    ("repro.core.qrg", "build_skeleton", "core.qrg.build"),
    ("repro.core.qrg", "_price_edges_vectorized", "core.qrg.vector"),
    ("repro.core.planner:BasicPlanner", "plan", "core.plan"),
    ("repro.core.tradeoff:TradeoffPlanner", "plan", "core.plan"),
    ("repro.core.planner", "minimax_dijkstra", "core.dijkstra"),
    ("repro.core.tradeoff", "minimax_dijkstra", "core.dijkstra"),
]
RUNTIME = [
    ("repro.runtime.coordinator:ReservationCoordinator", "establish", "runtime.establish"),
    ("repro.runtime.coordinator:ReservationCoordinator", "teardown", "runtime.release"),
    ("repro.runtime.proxy:QoSProxy", "report_availability", "runtime.snapshot"),
    ("repro.brokers.base:ResourceBroker", "observe", "runtime.snapshot"),
    ("repro.brokers.path:PathBroker", "observe", "runtime.snapshot"),
    ("repro.runtime.proxy:QoSProxy", "apply_segment", "runtime.book"),
    ("repro.runtime.proxy:QoSProxy", "release_reservations", "runtime.release"),
]
OBS = [
    ("repro.obs.metrics:MetricsRegistry", "counter", "obs.metrics"),
    ("repro.obs.metrics:MetricsRegistry", "gauge", "obs.metrics"),
    ("repro.obs.metrics:MetricsRegistry", "histogram", "obs.metrics"),
    ("repro.obs.metrics:Counter", "inc", "obs.metrics"),
    ("repro.obs.metrics:Gauge", "set", "obs.metrics"),
    ("repro.obs.metrics:Histogram", "observe", "obs.metrics"),
    ("repro.obs.events:EventLog", "emit", "obs.events"),
    ("repro.service.events:EventPlane", "_deliver", "obs.events"),
    ("repro.obs.trace:_ActiveSpan", "__enter__", "obs.trace"),
    ("repro.obs.trace:_ActiveSpan", "__exit__", "obs.trace"),
    ("repro.obs.trace:Tracer", "event", "obs.trace"),
    ("repro.obs.context", "child_context", "obs.trace"),
    ("repro.obs.context:TraceContext", "traceparent", "obs.trace"),
    ("repro.obs.context", "bind_trace_context", "obs.trace"),
    ("repro.obs.context", "reset_trace_context", "obs.trace"),
    ("repro.obs.flight:FlightRecorder", "record_wire", "obs.flight"),
    ("repro.obs.flight:FlightRecorder", "_on_event", "obs.flight"),
]
SIM = [
    ("repro.des.engine:Environment", "step", "des.step"),
    ("repro.sim.workload:WorkloadGenerator", "generate", "sim.workload"),
    ("repro.sim.metrics:MetricsCollector", "record", "sim.collect"),
]
SERVICE = [
    ("repro.service.http:Request", "json", "service.request_json"),
    ("repro.service.client:ServiceResponse", "json", "service.request_json"),
    ("repro.service.http", "json_response_bytes", "service.serialize"),
    ("repro.service.http", "response_bytes", "service.serialize"),
]
DAEMON = [
    ("repro.service.daemon:ReservationDaemon", "_dispatch", "service.dispatch"),
    ("repro.service.daemon:ReservationDaemon", "_context_for", "obs.trace"),
    ("repro.service.daemon:ReservationService", "metrics_exposition", "obs.exposition"),
] + [
    ("repro.service.daemon:ReservationService", method, "service.handler")
    for method in ("establish", "teardown", "reserve", "commit", "abort",
                   "availability", "query")
]
ROUTER = [
    ("repro.cluster.router:ClusterDaemon", "_dispatch", "service.dispatch"),
    ("repro.cluster.router:ClusterDaemon", "_context_for", "obs.trace"),
    ("repro.cluster.router", "_json_body", "service.serialize"),
    ("repro.cluster.router:ClusterCoordinator", "metrics_exposition", "obs.exposition"),
    ("repro.cluster.router:ClusterCoordinator", "establish", "cluster.establish"),
    ("repro.cluster.router:ClusterCoordinator", "teardown", "cluster.teardown"),
    ("repro.cluster.router:ClusterCoordinator", "_merged_snapshot", "cluster.snapshot"),
    ("repro.runtime.coordinator:ReservationCoordinator", "plan_session", "cluster.plan"),
    ("repro.cluster.router:HttpShardClient", "availability", "cluster.rt.availability"),
    ("repro.cluster.router:HttpShardClient", "reserve", "cluster.rt.reserve"),
    ("repro.cluster.router:HttpShardClient", "commit", "cluster.rt.commit"),
    ("repro.cluster.router:HttpShardClient", "abort", "cluster.rt.abort"),
    ("repro.cluster.router:HttpShardClient", "teardown", "cluster.rt.teardown"),
]

#: Span names whose calls mark a request boundary (kept per request).
BOUNDARY = frozenset({"service.dispatch", "cluster.establish"})

PROFILES = {
    "sim": CORE + RUNTIME + OBS + SIM,
    "daemon": CORE + RUNTIME + OBS + SERVICE + DAEMON,
    "router": CORE + RUNTIME + OBS + SERVICE + ROUTER,
}


def _resolve(owner: str):
    import importlib

    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


def _phase_of(request_id: Optional[str]) -> str:
    if not request_id:
        return "-"
    head, sep, _ = request_id.partition("-")
    return head if sep else "-"


class LayerTracer:
    """Timing wrappers, per-(phase, name) aggregates and GC pauses."""

    def __init__(self) -> None:
        #: (phase, name) -> [calls, self seconds, wall seconds]
        self.stats: Dict[Tuple[str, str], List[float]] = {}
        #: Per-request boundary spans: name, request id, start, end, path.
        self.requests: List[Tuple[str, str, float, float, str]] = []
        #: Outcome counters (planner None results, admissions, rollbacks).
        self.counts: Dict[Tuple[str, str], int] = {}
        #: (start, seconds, generation) of every garbage collection.
        self.gc_pauses: List[Tuple[float, float, int]] = []
        self.phase = "-"
        self.async_names: set = set()
        #: Child-time accumulator of the innermost open span (or None).
        self.current: Optional[List[float]] = None
        self._patched: List[Tuple[object, str, object]] = []
        self._gc_started = 0.0

    # -- installation ------------------------------------------------------

    def install(self, profile: str) -> "LayerTracer":
        for owner, attribute, name in PROFILES[profile]:
            target = _resolve(owner)
            original = target.__dict__[attribute] if isinstance(target, type) else getattr(target, attribute)
            self._patched.append((target, attribute, original))
            setattr(target, attribute, self._wrap(original, name))
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        for target, attribute, original in reversed(self._patched):
            setattr(target, attribute, original)
        self._patched.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, stage: str, info: dict) -> None:
        if stage == "start":
            self._gc_started = _perf()
        else:
            now = _perf()
            self.gc_pauses.append(
                (self._gc_started, now - self._gc_started, info.get("generation", -1))
            )

    def count(self, name: str, amount: int = 1) -> None:
        key = (self.phase, name)
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrappers ----------------------------------------------------------

    def _entry(self, name: str) -> List[float]:
        key = (self.phase, name)
        entry = self.stats.get(key)
        if entry is None:
            entry = self.stats[key] = [0, 0.0, 0.0]
        return entry

    def _wrap(self, original, name: str):
        """A timing wrapper around ``original``.

        The open span's child-time accumulator lives in ``self.current``
        (a plain attribute, cheaper than a context variable).  Synchronous
        spans never interleave, so their self times are exact; an async
        span's accumulator may also collect other tasks' children, which
        is why only the wall time of async spans is ever reported.
        """
        tracer = self
        on_result = _RESULT_PROBES.get(name)
        if inspect.iscoroutinefunction(original):
            self.async_names.add(name)
            boundary = name in BOUNDARY

            async def async_wrapper(*args, **kwargs):
                if boundary:
                    request_id = _current_request_id()
                    tracer.phase = _phase_of(request_id)
                parent = tracer.current
                tracer.current = acc = [0.0]
                started = _perf()
                try:
                    result = await original(*args, **kwargs)
                finally:
                    ended = _perf()
                    tracer.current = parent
                    wall = ended - started
                    if parent is not None:
                        parent[0] += wall
                    entry = tracer._entry(name)
                    entry[0] += 1
                    entry[1] += max(0.0, wall - acc[0])
                    entry[2] += wall
                    if boundary:
                        tracer.requests.append(
                            (name, request_id or "", started, ended, _path_of(args))
                        )
                if on_result is not None:
                    on_result(tracer, result)
                return result

            return async_wrapper

        if inspect.isgeneratorfunction(original):

            def generator_wrapper(*args, **kwargs):
                iterator = original(*args, **kwargs)
                while True:
                    parent = tracer.current
                    tracer.current = acc = [0.0]
                    started = _perf()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        wall = _perf() - started
                        tracer.current = parent
                        if parent is not None:
                            parent[0] += wall
                        entry = tracer._entry(name)
                        entry[0] += 1
                        entry[1] += wall - acc[0]
                        entry[2] += wall
                    yield item

            return generator_wrapper

        def wrapper(*args, **kwargs):
            parent = tracer.current
            tracer.current = acc = [0.0]
            started = _perf()
            try:
                result = original(*args, **kwargs)
            finally:
                wall = _perf() - started
                tracer.current = parent
                if parent is not None:
                    parent[0] += wall
                entry = tracer._entry(name)
                entry[0] += 1
                entry[1] += wall - acc[0]
                entry[2] += wall
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    # -- output ------------------------------------------------------------

    def document(self) -> dict:
        return {
            "stats": [[phase, name, *values] for (phase, name), values in sorted(self.stats.items())],
            "counts": [[phase, name, value] for (phase, name), value in sorted(self.counts.items())],
            "requests": self.requests,
            "gc_pauses": self.gc_pauses,
            "async_names": sorted(self.async_names),
        }



def _current_request_id() -> Optional[str]:
    from repro.obs import context

    bound = context.current_trace_context()
    return bound.request_id if bound is not None else None


def _path_of(args) -> str:
    request = args[1] if len(args) > 1 else None
    return getattr(request, "path", "")


def _count_plan(tracer: LayerTracer, plan) -> None:
    if plan is None:
        tracer.count("core.plan_none")


def _count_establish(tracer: LayerTracer, result) -> None:
    if result.success:
        tracer.count("runtime.admitted")
    elif result.reason == "admission_failed":
        tracer.count("runtime.rollback")


_RESULT_PROBES: Dict[str, Callable] = {
    "core.plan": _count_plan,
    "runtime.establish": _count_establish,
}


class TraceReport:
    """Read-side view over one or more dumped tracer documents."""

    def __init__(self, documents: List[dict]) -> None:
        self.documents = documents
        self.async_names = set()
        for document in documents:
            self.async_names.update(document["async_names"])

    def calls(self, name: str, phases) -> float:
        return self._sum(name, phases, 2)

    def self_s(self, name: str, phases) -> float:
        return self._sum(name, phases, 3)

    def wall_s(self, name: str, phases) -> float:
        return self._sum(name, phases, 4)

    def _sum(self, name: str, phases, column: int) -> float:
        total = 0.0
        for document in self.documents:
            for row in document["stats"]:
                if row[1] == name and row[0] in phases:
                    total += row[column]
        return total

    def count(self, name: str, phases) -> int:
        return sum(
            row[2]
            for document in self.documents
            for row in document["counts"]
            if row[1] == name and row[0] in phases
        )

    def cpu_self_s(self, phases) -> float:
        """Summed self time of every synchronous span in ``phases``."""
        return sum(
            row[3]
            for document in self.documents
            for row in document["stats"]
            if row[0] in phases and row[1] not in self.async_names
        )
