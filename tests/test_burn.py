"""Burn-rate SLOs: spec validation, the engine's alert lifecycle.

Covers the PR's acceptance properties: an infra-failure burst fires the
availability alert only when *both* windows burn past the threshold
(one bad scrape never pages), the incident emits exactly one firing and
one resolved ``slo.burn_rate`` event plus one ``slo.budget_exhausted``,
the rolling budget recovers once errors age out of the budget window,
and the latency SLO burns on the merged cross-shard phase histogram.
"""

import pytest

from repro.obs.events import EventLog
from repro.obs.prom import parse_exposition
from repro.obs.slo import BurnRateSLO
from repro.obs.burn import BurnRateEngine, default_cluster_slos
from repro.obs.telemetry import TimeSeriesStore


# ---------------------------------------------------------------------------
# spec validation


def test_burn_rate_slo_validates_fields():
    with pytest.raises(ValueError):
        BurnRateSLO(name="x", kind="availability", target=1.0,
                    good=("g",), bad=("b",))
    with pytest.raises(ValueError):
        BurnRateSLO(name="x", kind="availability", target=0.99)  # no good/bad
    with pytest.raises(ValueError):
        BurnRateSLO(name="x", kind="latency", target=0.99)  # no histogram
    with pytest.raises(ValueError):
        BurnRateSLO(name="x", kind="latency", target=0.99,
                    histogram="h", latency_bound=0.0)
    with pytest.raises(ValueError):
        BurnRateSLO(name="x", kind="availability", target=0.99,
                    good=("g",), bad=("b",),
                    short_window=30.0, long_window=5.0)
    with pytest.raises(ValueError):
        BurnRateSLO(name="x", kind="wrong", target=0.99,
                    good=("g",), bad=("b",))


def test_burn_rate_slo_from_dict():
    slo = BurnRateSLO.from_dict({
        "name": "avail",
        "kind": "availability",
        "target": 0.999,
        "good": 'total{verdict="ok"}',     # bare string coerced to tuple
        "bad": ['total{verdict="bad"}'],
        "burn_threshold": 10.0,
    })
    assert slo.good == ('total{verdict="ok"}',)
    assert slo.error_budget == pytest.approx(0.001)
    with pytest.raises(ValueError):
        BurnRateSLO.from_dict({"name": "x", "kind": "availability",
                               "target": 0.99, "good": ["g"], "bad": ["b"],
                               "surprise": 1})


def test_default_cluster_slos_shape():
    slos = default_cluster_slos(short_window=2.0, long_window=4.0,
                                budget_window=8.0)
    by_name = {slo.name: slo for slo in slos}
    avail = by_name["admission-availability"]
    assert avail.kind == "availability"
    assert avail.role == "cluster-router"
    assert any("rejected_infra" in sel for sel in avail.bad)
    latency = by_name["admission-latency"]
    assert latency.kind == "latency"
    assert latency.role == "shard"
    assert latency.budget_window == 8.0
    BurnRateEngine(slos, TimeSeriesStore())  # unique names accepted
    with pytest.raises(ValueError):
        BurnRateEngine(slos + [avail], TimeSeriesStore())


# ---------------------------------------------------------------------------
# the engine, against a hand-fed store


def feed_router(store: TimeSeriesStore, ts: float, *,
                established: float, infra: float, merit: float = 0.0):
    text = (
        "# TYPE repro_cluster_admissions_total counter\n"
        f'repro_cluster_admissions_total{{verdict="established"}} {established}\n'
        f'repro_cluster_admissions_total{{verdict="rejected_merit"}} {merit}\n'
        f'repro_cluster_admissions_total{{verdict="rejected_infra"}} {infra}\n'
    )
    store.record_scrape("router:1", parse_exposition(text), ts=ts,
                        role="cluster-router")


AVAIL = BurnRateSLO(
    name="avail", kind="availability", target=0.99,
    good=('repro_cluster_admissions_total{verdict="established"}',
          'repro_cluster_admissions_total{verdict="rejected_merit"}'),
    bad=('repro_cluster_admissions_total{verdict="rejected_infra"}',),
    role="cluster-router",
    short_window=2.0, long_window=4.0, budget_window=8.0,
    burn_threshold=5.0,
)


def slo_events(log):
    return [
        (event["kind"], event["attributes"].get("state"))
        for event in log.to_dicts()
        if event["kind"].startswith("slo.")
    ]


def test_availability_incident_lifecycle():
    store = TimeSeriesStore()
    log = EventLog()
    engine = BurnRateEngine([AVAIL], store, event_log=log)

    # Healthy traffic: no burn, full budget.
    feed_router(store, 0.0, established=0, infra=0)
    feed_router(store, 1.0, established=10, infra=0)
    (status,) = engine.evaluate(now=1.0)
    assert status.state == "ok"
    assert status.burn_short == 0.0
    assert status.budget_remaining == 1.0
    assert engine.firing() == []
    assert slo_events(log) == []

    # A shard dies: every admission in the next scrape is an infra
    # rejection.  Both windows burn far past 5x -> one firing event.
    feed_router(store, 2.0, established=10, infra=8)
    (status,) = engine.evaluate(now=2.0)
    assert status.state == "firing"
    assert status.burn_short > AVAIL.burn_threshold
    assert status.burn_long > AVAIL.burn_threshold
    assert status.budget_remaining < 0.0
    assert engine.firing() == ["avail"]
    assert slo_events(log) == [
        ("slo.burn_rate", "firing"), ("slo.budget_exhausted", None),
    ]

    # Steady firing state: no duplicate events.
    engine.evaluate(now=2.5)
    assert slo_events(log) == [
        ("slo.burn_rate", "firing"), ("slo.budget_exhausted", None),
    ]
    assert engine.min_budget("avail") < 0.0

    # Recovery: counters go quiet; once the errors age past every
    # window the alert resolves and the budget returns to 1.0.
    feed_router(store, 11.0, established=10, infra=8)
    (status,) = engine.evaluate(now=11.0)
    assert status.state == "ok"
    assert status.budget_remaining == 1.0
    assert engine.firing() == []
    events = slo_events(log)
    assert events == [
        ("slo.burn_rate", "firing"), ("slo.budget_exhausted", None),
        ("slo.burn_rate", "resolved"),
    ]
    # The low-water mark survives recovery -- that is the CI assertion.
    assert engine.min_budget("avail") < 0.0 < status.budget_remaining
    resolved = [e for e in log.to_dicts()
                if e["attributes"].get("state") == "resolved"]
    assert resolved[0]["attributes"]["firing_seconds"] == pytest.approx(9.0)


def test_short_spike_alone_does_not_fire():
    """One bad scrape burns the short window but not the long one."""
    slo = BurnRateSLO(
        name="avail", kind="availability", target=0.99,
        good=AVAIL.good, bad=AVAIL.bad, role="cluster-router",
        short_window=1.5, long_window=30.0, budget_window=30.0,
        burn_threshold=5.0,
    )
    store = TimeSeriesStore()
    log = EventLog()
    engine = BurnRateEngine([slo], store, event_log=log)
    # A long healthy history, then one bad scrape.
    feed_router(store, 0.0, established=0, infra=0)
    for ts in range(1, 25):
        feed_router(store, float(ts), established=40.0 * ts, infra=0)
    feed_router(store, 25.0, established=40.0 * 25, infra=5)
    (status,) = engine.evaluate(now=25.0)
    assert status.burn_short > slo.burn_threshold
    assert status.burn_long < slo.burn_threshold
    assert status.state == "ok"
    assert slo_events(log) == []


def test_latency_slo_burns_on_merged_histogram():
    slo = BurnRateSLO(
        name="latency", kind="latency", target=0.9,
        histogram="repro_daemon_admission_phase_seconds",
        latency_bound=0.1, role="shard",
        short_window=2.0, long_window=4.0, budget_window=8.0,
        burn_threshold=2.0,
    )
    store = TimeSeriesStore()
    log = EventLog()
    engine = BurnRateEngine([slo], store, event_log=log)

    def feed_shard(target, shard, ts, fast, total, sum_seconds):
        text = (
            "# TYPE repro_daemon_admission_phase_seconds histogram\n"
            'repro_daemon_admission_phase_seconds_bucket'
            f'{{le="0.1",phase="plan"}} {fast}\n'
            'repro_daemon_admission_phase_seconds_bucket'
            f'{{le="+Inf",phase="plan"}} {total}\n'
            f"repro_daemon_admission_phase_seconds_sum{{phase=\"plan\"}} "
            f"{sum_seconds}\n"
            f"repro_daemon_admission_phase_seconds_count{{phase=\"plan\"}} "
            f"{total}\n"
        )
        store.record_scrape(target, parse_exposition(text), ts=ts,
                            role="shard", shard=shard)

    feed_shard("a:1", "shard-0", 0.0, fast=0, total=0, sum_seconds=0.0)
    feed_shard("b:2", "shard-1", 0.0, fast=0, total=0, sum_seconds=0.0)
    # Shard a stays fast; shard b's planner grinds: 4 of 8 cluster-wide
    # observations exceed the bound -> error rate 0.5, burn 5 > 2.
    feed_shard("a:1", "shard-0", 1.0, fast=4, total=4, sum_seconds=0.1)
    feed_shard("b:2", "shard-1", 1.0, fast=0, total=4, sum_seconds=2.0)
    (status,) = engine.evaluate(now=1.0)
    assert status.error_rate_short == pytest.approx(0.5)
    assert status.state == "firing"
    assert slo_events(log) == [
        ("slo.burn_rate", "firing"), ("slo.budget_exhausted", None),
    ]

    # With no scraped histogram at all the error rate reads 0.
    empty = BurnRateEngine([slo], TimeSeriesStore(), event_log=EventLog())
    (status,) = empty.evaluate(now=1.0)
    assert status.error_rate_short == 0.0
    assert status.state == "ok"


def test_default_latency_slo_ignores_keep_alive_idle_phase():
    """The stock latency SLO reads phase="plan" only: a client's slow
    keep-alive gap (phase="idle") is not admission latency."""
    (slo,) = [
        slo for slo in default_cluster_slos(
            short_window=2.0, long_window=4.0, budget_window=8.0
        )
        if slo.name == "admission-latency"
    ]
    store = TimeSeriesStore()
    engine = BurnRateEngine([slo], store, event_log=EventLog())

    def feed_shard(ts, count):
        lines = ["# TYPE repro_daemon_admission_phase_seconds histogram"]
        for phase, seconds in (("plan", 0.01), ("idle", 0.5)):
            fast = count if seconds <= 0.25 else 0
            lines += [
                "repro_daemon_admission_phase_seconds_bucket"
                f'{{le="0.25",phase="{phase}"}} {fast}',
                "repro_daemon_admission_phase_seconds_bucket"
                f'{{le="+Inf",phase="{phase}"}} {count}',
                f'repro_daemon_admission_phase_seconds_sum{{phase="{phase}"}} '
                f"{seconds * count}",
                f'repro_daemon_admission_phase_seconds_count{{phase="{phase}"}} '
                f"{count}",
            ]
        store.record_scrape("a:1", parse_exposition("\n".join(lines) + "\n"),
                            ts=ts, role="shard", shard="shard-0")

    feed_shard(0.0, 0)
    feed_shard(1.0, 10)
    (status,) = engine.evaluate(now=1.0)
    assert status.error_rate_short == 0.0
    assert status.error_rate_long == 0.0
    assert status.state == "ok"
