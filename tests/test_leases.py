"""The one TTL lease table, and the shard's two-phase leases built on it.

:class:`LeaseTable` is the bookkeeping every lease holder shares (the
DES and distributed fault-tolerant coordinators, a shard daemon's
``/v1/reserve``): the id sequence, the pending map, and the TTL rule.
The unit cases pin that rule at its exact boundary, the lease-id visit
order and session retirement.  The property drives random interleavings
of reserve / commit / abort / reap / teardown through one shard
:class:`ReservationService` and checks that every reserved lease is
accounted for exactly once, that an aborted or expired lease gives its
capacity back, and that nothing stays booked once every lease is reaped
and every session torn down.
"""

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.coordinator import LeaseTable
from repro.faults.invariants import assert_capacity_conserved
from repro.service import DaemonConfig, ReservationService
from repro.service.daemon import ServiceError

# ---------------------------------------------------------------------------
# LeaseTable unit cases


class Clock:
    def __init__(self, now=10.0):
        self.now = now

    def __call__(self):
        return self.now


def _table(clock, **kwargs):
    return LeaseTable(ttl=5.0, clock=clock, **kwargs)


def _lease(table, session_id, host="h"):
    lease = table.new(session_id, host, ())
    table.add(lease)
    return lease


def test_ttl_boundary_is_inclusive():
    clock = Clock(10.0)
    table = _table(clock)
    lease = _lease(table, "s")
    assert (lease.reserved_at, lease.ttl, lease.expires_at) == (10.0, 5.0, 15.0)
    assert table.expire(15.0 - 1e-9) == []
    assert table.pending() == (lease,)
    assert table.expire(15.0) == [lease]
    assert len(table) == 0
    assert table.expire(1e18, force=True) == []


def test_expire_defaults_to_the_clock():
    clock = Clock(10.0)
    table = _table(clock)
    lease = _lease(table, "s")
    clock.now = 14.0
    assert table.expire() == []
    clock.now = 15.0
    assert table.expire() == [lease]


def test_force_expires_everything_regardless_of_ttl():
    table = _table(Clock(100.0))
    leases = [_lease(table, f"s{n}") for n in range(3)]
    assert table.expire(0.0) == []
    assert table.expire(0.0, force=True) == leases
    assert table.pending() == ()


def test_ids_count_every_new_lease_and_visits_follow_lease_id_order():
    clock = Clock(10.0)
    table = _table(clock)
    b = _lease(table, "b")
    unused = table.new("z", "h", ())  # numbered, but never pending
    clock.now = 0.0
    a = _lease(table, "a")
    clock.now = 10.0
    c = _lease(table, "c")
    assert [b.lease_id, unused.lease_id, a.lease_id, c.lease_id] == [
        "b/h#1", "z/h#2", "a/h#3", "c/h#4"
    ]
    assert table.pending() == (a, b, c)
    # Visit order is lease-id order, not expiry order.
    assert table.expire(15.0) == [a, b, c]


def test_separator_and_pop():
    table = _table(Clock(), separator="@")
    lease = _lease(table, "s", host="shard-0")
    assert lease.lease_id == "s@shard-0#1"
    assert table.pop(lease.lease_id) is lease
    assert table.pop(lease.lease_id) is None
    assert len(table) == 0


def test_retire_session_forgets_only_that_session():
    table = _table(Clock())
    _lease(table, "mine")
    other = _lease(table, "other")
    _lease(table, "mine")
    table.retire_session("mine")
    assert table.pending() == (other,)
    table.retire_session("absent")
    assert table.pending() == (other,)


# ---------------------------------------------------------------------------
# the property: one shard's two-phase leases under any interleaving

SESSIONS = ("s0", "s1", "s2", "s3")

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("reserve"),
            st.sampled_from(SESSIONS),
            st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=3),
            st.floats(min_value=50.0, max_value=2500.0),
        ),
        st.tuples(st.just("commit"), st.integers(min_value=0, max_value=20)),
        st.tuples(st.just("abort"), st.integers(min_value=0, max_value=20)),
        st.tuples(st.just("reap"), st.floats(min_value=-1.0, max_value=6.0)),
        st.tuples(st.just("teardown"), st.sampled_from(SESSIONS)),
    ),
    min_size=1,
    max_size=30,
)


def _balanced(service):
    counters = service.lease_counters
    return counters["reserved"] == (
        counters["committed"]
        + counters["aborted"]
        + counters["expired"]
        + len(service._shard_leases)
    )


@pytest.fixture(scope="module")
def addressable():
    """The demand-addressable resource ids shard 0 of 2 owns."""
    probe = ReservationService(DaemonConfig(seed=3, shard_index=0, shard_count=2))
    return sorted(probe.availability()["resources"])


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(script=operations)
def test_shard_leases_are_conserved_under_any_interleaving(addressable, script):
    service = ReservationService(
        DaemonConfig(seed=3, shard_index=0, shard_count=2, lease_ttl=2.0)
    )
    grid = service.grid
    lease_ids = []
    committed = set()
    for op in script:
        if op[0] == "reserve":
            _, session_id, picks, amount = op
            demands = {addressable[i % len(addressable)]: amount for i in picks}
            outcome = service.reserve({"session_id": session_id, "demands": demands})
            if outcome["reserved"]:
                lease_ids.append(outcome["lease_id"])
        elif op[0] == "commit" and lease_ids:
            lease_id = lease_ids[op[1] % len(lease_ids)]
            try:
                committed.add(service.commit({"lease_id": lease_id})["session_id"])
            except ServiceError as exc:
                assert exc.status == 404
        elif op[0] == "abort" and lease_ids:
            service.abort({"lease_id": lease_ids[op[1] % len(lease_ids)]})
        elif op[0] == "reap":
            service.reap_expired_leases(now=time.monotonic() + op[1])
        elif op[0] == "teardown":
            try:
                service.teardown({"session_id": op[1]})
            except ServiceError as exc:
                assert exc.status == 404
        assert _balanced(service), (op, service.lease_counters)
        assert_capacity_conserved(grid.registry, grid.proxies)

    service.reap_expired_leases(now=1e18)
    assert len(service._shard_leases) == 0
    assert _balanced(service)
    # Outside committed leases a session holds capacity only on pending
    # leases; with none left, a session that never committed holds nothing.
    for proxy in grid.proxies.values():
        for session_id in set(SESSIONS) - committed:
            assert proxy.held_for(session_id) == ()
    for session_id in SESSIONS:
        try:
            service.teardown({"session_id": session_id})
        except ServiceError:
            pass
    grid.registry.assert_quiescent()
    for proxy in grid.proxies.values():
        for session_id in SESSIONS:
            assert proxy.held_for(session_id) == ()
