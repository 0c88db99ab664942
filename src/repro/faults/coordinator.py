"""Fault-tolerant session establishment (the recovery half of PR 4).

:class:`FaultTolerantCoordinator` layers the recovery policy of
:class:`~repro.faults.plan.FaultConfig` on the three-phase protocol of
:class:`~repro.runtime.coordinator.ReservationCoordinator`:

* every phase-1 availability exchange and phase-3 segment dispatch is
  routed past the :class:`~repro.faults.injector.FaultInjector`; a lost
  message is a *timeout* (``segment.timeout``), answered with bounded
  retries under seeded exponential backoff (``segment.retry``);
* phase 3 becomes two-phase reserve/commit: each applied segment is a
  :class:`Lease` until the whole session commits.  A lease whose
  rollback-release (or whose ack) is lost is *orphaned* -- registered
  with the coordinator's reaper and reclaimed when its TTL expires
  (``lease.expired``), so no capacity leaks past the lease TTL;
* a failed establishment degrades gracefully (§4.3): re-plan on fresh
  observations (accepting a lower sink), excluding a host whose proxy
  stopped answering (``session.replanned``), up to ``max_replans``.

Byte-identity contract: with a zero :class:`FaultPlan` every entry point
delegates verbatim to the parent coordinator -- same code path, same
spans, same events, same results -- which the regression tests assert.

The establishment core is a *generator* yielding backoff delays: the
synchronous driver (:meth:`FaultTolerantCoordinator._establish`)
discards them (retries happen at the same instant), while the DES
driver (:meth:`FaultTolerantCoordinator.establish_process`) turns each
into a real ``env.timeout`` so crash/partition windows can pass while a
session backs off.
"""

from __future__ import annotations

import itertools
import time as _time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.brokers.registry import AnyReservation, BrokerRegistry
from repro.core.component import Binding
from repro.core.errors import AdmissionError, ModelError
from repro.core.resources import AvailabilitySnapshot, ResourceObservation
from repro.faults.injector import FaultInjector
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.runtime.coordinator import (
    EstablishmentResult,
    ObservationSchedule,
    ReservationCoordinator,
)
from repro.runtime.distributed import ComponentHost, DistributedCoordinator, FragmentRequest
from repro.runtime.messages import AvailabilityRequest, PlanSegment
from repro.runtime.model_store import ModelStore
from repro.runtime.proxy import QoSProxy

__all__ = ["Lease", "LeaseTable", "FaultTolerantCoordinator",
           "FaultyCoordinator", "FaultTolerantDistributedCoordinator"]


@dataclass(frozen=True)
class Lease(object):
    """One segment's reservations between reserve and commit.

    Holds the *exact* reservation handles the segment created (not "all
    reservations of the session"), so reaping an orphaned lease can
    never release a later, committed reservation of the same session.
    """

    lease_id: str
    session_id: str
    host: str
    reservations: Tuple[AnyReservation, ...]
    reserved_at: float
    ttl: float

    @property
    def expires_at(self) -> float:
        """Instant after which the host-side reaper reclaims the lease."""
        return self.reserved_at + self.ttl


class LeaseTable:
    """The pending TTL leases of one lease holder.

    Owns the lease-id sequence, the pending map and the TTL rule, and
    nothing else: callers release a lease's reservations and emit its
    ``lease.*`` events themselves.  Lease ids read
    ``<session><separator><host>#<n>``, numbered from 1 in creation
    order whether or not the lease ever becomes pending; ``clock``
    stamps new leases and is the default ``now`` of :meth:`expire`.
    """

    def __init__(
        self, *, ttl: float, clock: Callable[[], float], separator: str = "/"
    ) -> None:
        self._ttl = ttl
        self._clock = clock
        self._separator = separator
        self._seq = itertools.count(1)
        self._pending: Dict[str, Lease] = {}

    def new(self, session_id: str, host: str, reservations) -> Lease:
        """A lease with the next id (call :meth:`add` to make it pending)."""
        return Lease(
            lease_id=f"{session_id}{self._separator}{host}#{next(self._seq)}",
            session_id=session_id,
            host=host,
            reservations=tuple(reservations),
            reserved_at=self._clock(),
            ttl=self._ttl,
        )

    def add(self, lease: Lease) -> None:
        self._pending[lease.lease_id] = lease

    def pop(self, lease_id: str) -> Optional[Lease]:
        """Remove and return a pending lease (None when unknown)."""
        return self._pending.pop(lease_id, None)

    def expire(self, now: Optional[float] = None, *, force: bool = False) -> List[Lease]:
        """Remove and return every lease due at ``now``, in lease-id order.

        A lease is due once ``now >= expires_at``; ``force`` takes all.
        """
        now = self._clock() if now is None else now
        expired = [
            self._pending[key]
            for key in sorted(self._pending)
            if force or now >= self._pending[key].expires_at
        ]
        for lease in expired:
            del self._pending[lease.lease_id]
        return expired

    def retire_session(self, session_id: str) -> None:
        """Forget a session's pending leases without releasing them."""
        for key in [
            k for k, lease in self._pending.items() if lease.session_id == session_id
        ]:
            del self._pending[key]

    def pending(self) -> Tuple[Lease, ...]:
        """The pending leases, in lease-id order."""
        return tuple(self._pending[key] for key in sorted(self._pending))

    def __len__(self) -> int:
        return len(self._pending)


class FaultTolerantCoordinator(ReservationCoordinator):
    """The three-phase protocol with timeouts, retries, leases, replans."""

    def __init__(
        self,
        registry: BrokerRegistry,
        model_store: ModelStore,
        proxies: Mapping[str, QoSProxy],
        *,
        injector: Optional[FaultInjector] = None,
        env=None,
    ) -> None:
        super().__init__(registry, model_store, proxies)
        self.injector = injector if injector is not None else FaultInjector.disabled()
        self._env = env
        #: Orphaned leases awaiting the reaper.
        self._leases = LeaseTable(
            ttl=self.injector.config.lease_ttl, clock=lambda: self.now
        )
        #: Total orphaned leases reclaimed (watchdogs + explicit reaps).
        self.leases_reaped = 0

    # -- clock / bookkeeping ----------------------------------------------

    @property
    def now(self) -> float:
        """The coordinator's clock (DES time when attached to an env)."""
        return self._env.now if self._env is not None else self.injector.now

    def pending_leases(self) -> Tuple[Lease, ...]:
        """Orphaned leases not yet reclaimed, in lease-id order."""
        return self._leases.pending()

    # -- entry points ------------------------------------------------------

    def _establish(self, *args, **kwargs) -> EstablishmentResult:
        """Synchronous driver: backoff delays collapse to the same instant."""
        if self.injector.is_zero:
            return super()._establish(*args, **kwargs)
        if kwargs.pop("snapshot", None) is not None:
            raise ModelError(
                "snapshot= establishment is unsupported under fault injection: "
                "phase 1 must run per session so message faults apply"
            )
        gen = self._ft_establish(*args, **kwargs)
        while True:
            try:
                next(gen)
            except StopIteration as stop:
                return stop.value

    def establish_batch(self, requests, planner, **kwargs):
        """Batched establishment under the fault boundary.

        With a zero injector this is the parent's amortised batch path
        verbatim.  With faults enabled every arrival runs the tolerant
        protocol individually -- faults are injected per message, so a
        shared snapshot or memoised plan would mask exactly the
        timeouts, stale reports, and retries the fault plan asks for.
        """
        if self.injector.is_zero:
            return super().establish_batch(requests, planner, **kwargs)
        kwargs.pop("snapshot", None)
        return [
            self.establish(
                request.session_id,
                request.service_name,
                request.binding,
                planner,
                component_hosts=request.component_hosts,
                source_label=request.source_label,
                demand_scale=request.demand_scale,
                **kwargs,
            )
            for request in list(requests)
        ]

    def establish_process(self, env, latency: float, /, *args, **kwargs):
        """DES driver: backoff delays become real simulated waiting."""
        if self.injector.is_zero:
            result = yield from super().establish_process(env, latency, *args, **kwargs)
            return result
        if latency < 0:
            raise ValueError(f"negative latency: {latency!r}")
        now = env.now
        schedule = kwargs.pop("observed_at", None)

        def frozen_schedule(resource_id: str) -> Optional[float]:
            """Observation schedule pinned to the request instant."""
            base = schedule(resource_id) if schedule is not None else None
            return now if base is None else base

        if latency:
            yield env.timeout(latency)
        session_id, service_name = args[0], args[1]
        registry = _metrics.active_registry()
        started = _time.perf_counter() if registry is not None else 0.0
        with _trace.span("establish", session=session_id, service=service_name) as span:
            gen = self._ft_establish(*args, observed_at=frozen_schedule, **kwargs)
            while True:
                try:
                    delay = next(gen)
                except StopIteration as stop:
                    result = stop.value
                    break
                if delay:
                    yield env.timeout(delay)
            span.set(outcome="established" if result.success else result.reason)
            if registry is not None:
                outcome = "established" if result.success else result.reason
                registry.counter("coordinator.establish", outcome=outcome).inc()
                if result.failed_resource is not None:
                    registry.counter(
                        "coordinator.admission_failures", resource=result.failed_resource
                    ).inc()
                registry.histogram("coordinator.establish_seconds").observe(
                    _time.perf_counter() - started
                )
        return result

    # -- the fault-tolerant protocol core ----------------------------------

    def _ft_establish(
        self,
        session_id: str,
        service_name: str,
        binding: Binding,
        planner,
        *,
        component_hosts: Optional[Mapping[str, str]] = None,
        source_label: Optional[str] = None,
        demand_scale: float = 1.0,
        observed_at: Optional[ObservationSchedule] = None,
        contention_index=None,
    ):
        """Generator running the tolerant protocol; yields backoff delays."""
        config = self.injector.config
        service = self._service_at_scale(service_name, demand_scale)
        resource_ids = sorted(binding.resource_ids())
        excluded: Set[str] = set()
        replans = 0
        while True:
            # Phase 1: availability, with per-proxy timeouts and retries.
            # An unreachable (or replan-excluded) host is represented by
            # zero availability for its resources: the planner then
            # routes around it exactly as §4.3 degrades -- and rejects
            # when the binding leaves no alternative.
            observations: Dict[str, ResourceObservation] = {}
            with _trace.span("phase1_availability", resources=len(resource_ids)):
                request = AvailabilityRequest(
                    session_id=session_id, resource_ids=tuple(resource_ids)
                )
                for proxy in self._participating_proxies(resource_ids):
                    owned = [rid for rid in resource_ids if proxy.owns(rid)]
                    if proxy.host in excluded:
                        observations.update(self._zero_observations(owned))
                        continue
                    delivered = False
                    for attempt in range(config.max_retries + 1):
                        fault = self.injector.message_fault(
                            "availability", proxy.host, session_id
                        )
                        if fault is None:
                            schedule = observed_at
                            age = self.injector.stale_age_for(proxy.host, session_id)
                            if age is not None:
                                schedule = self._stale_schedule(observed_at, age)
                            report = proxy.report_availability(
                                request, observed_at=schedule
                            )
                            delay = self.injector.message_delay(
                                "availability", proxy.host, session_id
                            )
                            if delay:
                                yield delay
                            observations.update(report.observations)
                            delivered = True
                            break
                        self._note_timeout(
                            session_id, proxy.host, "availability", fault, attempt
                        )
                        if attempt < config.max_retries:
                            self._note_retry(
                                session_id, proxy.host, "availability", attempt + 1
                            )
                            yield self.injector.backoff(attempt)
                    if not delivered:
                        observations.update(self._zero_observations(owned))
                snapshot = AvailabilitySnapshot(observations)
            observed_instant = max(
                (obs.observed_at for obs in observations.values()), default=None
            )

            # Phase 2: identical to the plain coordinator (shared helper).
            plan, failure = self._phase2_plan(
                session_id,
                service,
                service_name,
                binding,
                planner,
                snapshot,
                observed_instant,
                source_label=source_label,
                demand_scale=demand_scale,
                contention_index=contention_index,
            )
            if failure is not None:
                return failure

            # Phase 3: two-phase reserve/commit per segment.
            segments = self._segments(session_id, plan)
            committed: List[Lease] = []
            failed_resource: Optional[str] = None
            failed_host: Optional[str] = None
            with _trace.span("phase3_dispatch", segments=len(segments)) as dispatch_span:
                for proxy, segment in segments:
                    outcome, detail = yield from self._dispatch_segment(
                        session_id, proxy, segment
                    )
                    if outcome == "committed":
                        committed.append(detail)
                        continue
                    if outcome == "admission_failed":
                        failed_resource = detail
                    else:
                        failed_host = detail
                    break
                if failed_resource is None and failed_host is None:
                    dispatch_span.set(committed=len(committed))
                    self._start_components(session_id, component_hosts)
                    self._emit_admitted(session_id, service_name, plan, observed_instant)
                    return EstablishmentResult(session_id, True, plan)
                for lease in committed:
                    self._release_or_orphan(lease)
                dispatch_span.set(
                    rolled_back=len(committed),
                    failed_resource=failed_resource,
                    failed_host=failed_host,
                )

            # Graceful degradation: re-plan (fresh observations = lower
            # sink per §4.3), excluding a host that stopped answering.
            reason = "admission_failed" if failed_resource is not None else "host_unreachable"
            if failed_host is not None:
                excluded.add(failed_host)
                # The unreachable host's skeletons are stale (replans and
                # later sessions see it as zero availability, and a
                # recovered host may rebind); every other service keeps
                # its warm cache entry -- see the per-host regression
                # test in tests/test_faults.py.
                self.invalidate_qrg_cache_for_host(failed_host)
            if replans < config.max_replans:
                replans += 1
                self._note_replan(session_id, reason, replans, excluded)
                continue
            if reason == "admission_failed":
                self._emit_admission_rejected(
                    session_id, service_name, plan, observations, observed_instant,
                    failed_resource,
                )
                return EstablishmentResult(
                    session_id,
                    False,
                    plan,
                    reason="admission_failed",
                    failed_resource=failed_resource,
                )
            log = _events.active_event_log()
            if log is not None:
                log.emit(
                    "session.rejected",
                    session=session_id,
                    time=observed_instant,
                    service=service_name,
                    reason="host_unreachable",
                    host=failed_host,
                    available=snapshot.availability(),
                )
            return EstablishmentResult(
                session_id, False, plan, reason="host_unreachable"
            )

    def _dispatch_segment(self, session_id: str, proxy: QoSProxy, segment: PlanSegment):
        """One segment's reserve/ack exchange with bounded retries.

        Returns ``("committed", Lease)``, ``("admission_failed",
        resource_id)``, or ``("unreachable", host)``.  A reservation
        whose ack was lost exists host-side but is unknown to the main
        proxy: it is compensated with a release order -- and orphaned
        for the reaper when that release is lost too.
        """
        config = self.injector.config
        for attempt in range(config.max_retries + 1):
            fault = self.injector.message_fault("reserve", proxy.host, session_id)
            if fault is None:
                before = len(proxy.held_for(session_id))
                try:
                    proxy.apply_segment(segment)
                except AdmissionError as exc:
                    return ("admission_failed", exc.resource_id)
                made = proxy.held_for(session_id)[before:]
                lease = self._leases.new(session_id, proxy.host, made)
                ack_fault = self.injector.message_fault("ack", proxy.host, session_id)
                if ack_fault is None:
                    delay = self.injector.message_delay("ack", proxy.host, session_id)
                    if delay:
                        yield delay
                    return ("committed", lease)
                self._note_timeout(session_id, proxy.host, "ack", ack_fault, attempt)
                self._release_or_orphan(lease)
            else:
                self._note_timeout(session_id, proxy.host, "reserve", fault, attempt)
            if attempt < config.max_retries:
                self._note_retry(session_id, proxy.host, "reserve", attempt + 1)
                yield self.injector.backoff(attempt)
        return ("unreachable", proxy.host)

    # -- leases and the orphan reaper ---------------------------------------

    def _release_or_orphan(self, lease: Lease) -> None:
        """Roll a lease back -- or orphan it when the release is lost."""
        fault = self.injector.message_fault("release", lease.host, lease.session_id)
        if fault is None:
            self.proxies[lease.host].release_reservations(
                lease.session_id, lease.reservations
            )
            return
        self._orphan(lease)

    def _orphan(self, lease: Lease) -> None:
        self._leases.add(lease)
        registry = _metrics.active_registry()
        if registry is not None:
            registry.counter("coordinator.leases_orphaned").inc()
        if self._env is not None:
            self._env.process(self._lease_watchdog(lease))

    def _lease_watchdog(self, lease: Lease):
        """DES process reclaiming one orphan when its TTL expires."""
        yield self._env.timeout(max(0.0, lease.expires_at - self._env.now))
        if self._leases.pop(lease.lease_id) is not None:
            self._reap(lease)

    def _reap(self, lease: Lease) -> None:
        """Release an expired orphan (already out of the lease table)."""
        self.leases_reaped += 1
        proxy = self.proxies.get(lease.host)
        released = (
            proxy.release_reservations(lease.session_id, lease.reservations)
            if proxy is not None
            else 0
        )
        _events.emit(
            "lease.expired",
            session=lease.session_id,
            time=self.now,
            host=lease.host,
            lease=lease.lease_id,
            released=released,
        )
        registry = _metrics.active_registry()
        if registry is not None:
            registry.counter("coordinator.leases_expired").inc()

    def reap_orphans(self, *, now: Optional[float] = None, force: bool = False) -> int:
        """Reclaim expired orphans (all of them with ``force``).

        The DES watchdogs normally do this on time; the explicit form
        serves the synchronous driver and end-of-run cleanup before
        :meth:`~repro.brokers.registry.BrokerRegistry.assert_quiescent`.
        """
        expired = self._leases.expire(now, force=force)
        for lease in expired:
            self._reap(lease)
        return len(expired)

    def teardown(self, session_id: str) -> int:
        """Tear the session down and retire its orphaned leases.

        The orphans' reservations still sit in the proxies' held lists,
        so the parent teardown releases them; dropping the lease records
        first turns the pending watchdogs into no-ops.
        """
        self._leases.retire_session(session_id)
        return super().teardown(session_id)

    # -- small helpers -------------------------------------------------------

    def _zero_observations(self, resource_ids) -> Dict[str, ResourceObservation]:
        """What an unreachable host's resources look like to the planner."""
        now = self.now
        return {
            resource_id: ResourceObservation(available=0.0, alpha=1.0, observed_at=now)
            for resource_id in resource_ids
        }

    def _stale_schedule(self, base: Optional[ObservationSchedule], age: float):
        """An observation schedule aged by an injected stale report."""
        when = max(0.0, self.now - age)

        def schedule(resource_id: str) -> Optional[float]:
            earlier = base(resource_id) if base is not None else None
            return when if earlier is None else min(earlier, when)

        return schedule

    def _note_timeout(
        self, session_id: str, host: str, phase: str, fault: str, attempt: int
    ) -> None:
        _events.emit(
            "segment.timeout",
            session=session_id,
            time=self.now,
            host=host,
            phase=phase,
            fault=fault,
            attempt=attempt,
        )
        registry = _metrics.active_registry()
        if registry is not None:
            registry.counter("coordinator.segment_timeouts", phase=phase).inc()

    def _note_retry(self, session_id: str, host: str, phase: str, attempt: int) -> None:
        _events.emit(
            "segment.retry",
            session=session_id,
            time=self.now,
            host=host,
            phase=phase,
            attempt=attempt,
        )
        registry = _metrics.active_registry()
        if registry is not None:
            registry.counter("coordinator.segment_retries", phase=phase).inc()

    def _note_replan(
        self, session_id: str, reason: str, attempt: int, excluded: Set[str]
    ) -> None:
        _events.emit(
            "session.replanned",
            session=session_id,
            time=self.now,
            reason=reason,
            attempt=attempt,
            excluded=sorted(excluded),
        )
        registry = _metrics.active_registry()
        if registry is not None:
            registry.counter("coordinator.replans", reason=reason).inc()


#: The name the issue tracker uses for the zero-fault regression tests.
FaultyCoordinator = FaultTolerantCoordinator


class FaultTolerantDistributedCoordinator(DistributedCoordinator):
    """The distributed (§3) coordinator behind the same fault boundary.

    Fragment collection plays phase 1 (the component host answers or it
    does not), dispatch plays phase 3 with the same reserve/ack/lease
    machinery.  The distributed flavour has no DES entry point, so the
    synchronous recovery policy applies: bounded retries at the same
    instant, orphans reclaimed by :meth:`reap_orphans`.  With a zero
    injector, byte-identical delegation to the parent.
    """

    def __init__(
        self,
        registry: BrokerRegistry,
        structure_store: ModelStore,
        proxies: Mapping[str, ComponentHost],
        *,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        super().__init__(registry, structure_store, proxies)
        self.injector = injector if injector is not None else FaultInjector.disabled()
        self._leases = LeaseTable(
            ttl=self.injector.config.lease_ttl, clock=lambda: self.injector.now
        )

    def establish(self, session_id, service_name, binding, planner, **kwargs):
        if self.injector.is_zero:
            return super().establish(session_id, service_name, binding, planner, **kwargs)
        config = self.injector.config
        service = self.structure_store.service(service_name)
        demand_scale = kwargs.get("demand_scale", 1.0)
        fragments = []
        for component in service.components:
            proxy = self.host_of_component(component.name)
            fragment = None
            for attempt in range(config.max_retries + 1):
                fault = self.injector.message_fault(
                    "availability", proxy.host, session_id
                )
                if fault is None:
                    fragment = proxy.price_fragment(
                        FragmentRequest(session_id, component.name, demand_scale),
                        binding,
                        observed_at=kwargs.get("observed_at"),
                        contention_index=kwargs.get("contention_index"),
                    )
                    break
                if attempt < config.max_retries:
                    self.injector.backoff(attempt)
            if fragment is None:
                # Without the host-side translation function there is no
                # QRG fragment to plan with: the session cannot proceed.
                return EstablishmentResult(
                    session_id, False, None, reason="host_unreachable"
                )
            fragments.append(fragment)
        return self._dispatch_fragments(
            session_id, planner, service, fragments,
            source_label=kwargs.get("source_label"),
        )

    def _dispatch_fragments(
        self, session_id, planner, service, fragments, *, source_label=None
    ):
        from repro.core.errors import PlanningError
        from repro.core.qrg import assemble_qrg, resolve_source_level

        observations: Dict[str, ResourceObservation] = {}
        for fragment in fragments:
            observations.update(fragment.observations)
        snapshot = AvailabilitySnapshot(observations)
        try:
            source_level = resolve_source_level(service, source_label)
        except PlanningError as exc:
            return EstablishmentResult(session_id, False, None, reason=f"qrg: {exc}")
        intra_edges = [edge for fragment in fragments for edge in fragment.edges]
        qrg = assemble_qrg(service, source_level, intra_edges, snapshot)
        plan = planner.plan(qrg)
        if plan is None:
            return EstablishmentResult(session_id, False, None, reason="no_feasible_plan")

        demands_by_host: Dict[str, Dict[str, float]] = {}
        demand = plan.demand
        for fragment in fragments:
            for resource_id in fragment.observations:
                if resource_id in demand:
                    demands_by_host.setdefault(fragment.proxy_host, {})[resource_id] = (
                        demand[resource_id]
                    )
        config = self.injector.config
        committed: List[Lease] = []
        for host in sorted(demands_by_host):
            proxy = self.proxies[host]
            segment = PlanSegment(
                session_id=session_id, proxy_host=host, demands=demands_by_host[host]
            )
            lease = None
            failed_resource = None
            for attempt in range(config.max_retries + 1):
                fault = self.injector.message_fault("reserve", host, session_id)
                if fault is None:
                    before = len(proxy.held_for(session_id))
                    try:
                        self._apply_segment(proxy, segment)
                    except AdmissionError as exc:
                        failed_resource = exc.resource_id
                        break
                    made = proxy.held_for(session_id)[before:]
                    candidate = self._leases.new(session_id, host, made)
                    if self.injector.message_fault("ack", host, session_id) is None:
                        lease = candidate
                        break
                    self._release_or_orphan(candidate)
                if attempt < config.max_retries:
                    self.injector.backoff(attempt)
            if lease is None:
                for earlier in committed:
                    self._release_or_orphan(earlier)
                reason = (
                    "admission_failed" if failed_resource is not None else "host_unreachable"
                )
                return EstablishmentResult(
                    session_id, False, plan, reason=reason,
                    failed_resource=failed_resource,
                )
            committed.append(lease)
        return EstablishmentResult(session_id, True, plan)

    def _release_or_orphan(self, lease: Lease) -> None:
        if self.injector.message_fault("release", lease.host, lease.session_id) is None:
            self.proxies[lease.host].release_reservations(
                lease.session_id, lease.reservations
            )
            return
        self._leases.add(lease)

    def pending_leases(self) -> Tuple[Lease, ...]:
        """Orphaned leases not yet reclaimed, in lease-id order."""
        return self._leases.pending()

    def reap_orphans(self, *, now: Optional[float] = None, force: bool = False) -> int:
        """Reclaim expired orphans (all of them with ``force``)."""
        expired = self._leases.expire(now, force=force)
        for lease in expired:
            proxy = self.proxies.get(lease.host)
            if proxy is not None:
                proxy.release_reservations(lease.session_id, lease.reservations)
        return len(expired)

    def teardown(self, session_id: str) -> int:
        """Tear the session down and retire its orphaned leases."""
        self._leases.retire_session(session_id)
        return super().teardown(session_id)
