"""Declarative service-level objectives for the online monitoring plane.

An :class:`SLOSpec` names a bound the run is expected to keep -- a
maximum broker rejection rate, a minimum delivered QoS level, a maximum
contention index psi -- and the :class:`~repro.obs.monitor.OnlineMonitor`
watchdogs evaluate every spec against its rolling estimators as the
event stream arrives, emitting one ``slo.violated`` event per crossing
(with hysteresis: a spec re-arms only after its objective recovers).

Specs are plain frozen data so they can ride on a
:class:`~repro.obs.monitor.MonitorConfig` across process boundaries
(the parallel sweep runner pickles configs into pool workers).

:class:`BurnRateSLO` is the *fleet-level* counterpart introduced with
the cluster telemetry plane: instead of a per-process threshold it
declares a target ratio of good events (admission success rate, or
requests under a latency bound) and the SRE-style multi-window
burn-rate parameters the :class:`~repro.obs.burn.BurnRateEngine`
evaluates against scraped time series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

__all__ = ["BurnRateSLO", "SLOSpec", "SLOViolation"]


@dataclass(frozen=True)
class SLOSpec:
    """One declarative objective; at least one bound must be set.

    ``max_rejection_rate`` bounds the rolling fraction of broker
    admission attempts rejected (over the monitor's ``rate_window``);
    ``min_qos_level`` bounds the EWMA of admitted sessions' paper-style
    numeric levels (best = N .. worst = 1, so *higher* is better);
    ``max_psi`` bounds the EWMA of planned bottleneck contention
    indices.  ``min_sessions`` is a warm-up: no objective is evaluated
    before that many sessions produced an outcome, so a single early
    rejection cannot trip a rate bound computed over one sample.
    """

    name: str
    max_rejection_rate: Optional[float] = None
    min_qos_level: Optional[float] = None
    max_psi: Optional[float] = None
    min_sessions: int = 5

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("SLOSpec needs a non-empty name")
        if (
            self.max_rejection_rate is None
            and self.min_qos_level is None
            and self.max_psi is None
        ):
            raise ValueError(
                f"SLOSpec {self.name!r} sets no objective; give at least one "
                "of max_rejection_rate / min_qos_level / max_psi"
            )
        if self.max_rejection_rate is not None and not 0.0 <= self.max_rejection_rate <= 1.0:
            raise ValueError(
                f"max_rejection_rate must be within [0, 1], got {self.max_rejection_rate!r}"
            )
        if self.max_psi is not None and self.max_psi <= 0.0:
            raise ValueError(f"max_psi must be positive, got {self.max_psi!r}")
        if self.min_sessions < 0:
            raise ValueError(f"min_sessions must be >= 0, got {self.min_sessions!r}")


@dataclass(frozen=True)
class SLOViolation:
    """One detected crossing of one objective of one spec."""

    slo: str
    #: Which bound tripped: ``rejection_rate`` / ``qos_level`` / ``psi``.
    objective: str
    #: The measured rolling value at detection time.
    measured: float
    #: The spec's bound it crossed.
    limit: float

    def to_attributes(self) -> dict:
        """The ``slo.violated`` event's attribute payload."""
        return {
            "slo": self.slo,
            "objective": self.objective,
            "measured": self.measured,
            "limit": self.limit,
        }


@dataclass(frozen=True)
class BurnRateSLO:
    """One fleet-level objective evaluated over scraped time series.

    ``kind`` picks the objective shape:

    * ``"availability"`` -- good/bad are counter *selectors* (see below);
      the error rate over a window is ``bad / (good + bad)``.
    * ``"latency"`` -- ``histogram`` is a selector of a scraped
      histogram metric (exposition name, e.g.
      ``repro_daemon_admission_phase_seconds{phase="plan"}``) and
      ``latency_bound`` the objective bound in the histogram's unit;
      the error rate is the windowed fraction of observations above the
      bound, merged across every series and target the selector
      matches.

    A *selector* is ``metric_name`` or ``metric_name{label="value",...}``:
    the metric name must match exactly and every given label must match;
    labels the selector does not mention are unconstrained, so one
    selector naturally sums across shards.  ``role`` additionally
    restricts which scrape targets contribute ("" = all).

    Burn rate is the SRE definition -- ``error_rate / (1 - target)`` --
    and an alert fires only when **both** the short and the long window
    burn exceed ``burn_threshold``, which is what makes the alert fast
    on real incidents yet quiet on blips.  ``budget_window`` is the
    rolling period the error budget is accounted over.
    """

    name: str
    kind: str
    target: float
    good: Tuple[str, ...] = ()
    bad: Tuple[str, ...] = ()
    histogram: str = ""
    latency_bound: float = 0.0
    role: str = ""
    short_window: float = 5.0
    long_window: float = 30.0
    budget_window: float = 60.0
    burn_threshold: float = 2.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("BurnRateSLO needs a non-empty name")
        if self.kind not in ("availability", "latency"):
            raise ValueError(
                f"BurnRateSLO {self.name!r}: kind must be 'availability' or "
                f"'latency', got {self.kind!r}"
            )
        if not 0.0 < self.target < 1.0:
            raise ValueError(
                f"BurnRateSLO {self.name!r}: target must be in (0, 1), "
                f"got {self.target!r}"
            )
        if self.kind == "availability" and not (self.good and self.bad):
            raise ValueError(
                f"BurnRateSLO {self.name!r}: availability kind needs both "
                "good and bad counter selectors"
            )
        if self.kind == "latency" and (not self.histogram or self.latency_bound <= 0.0):
            raise ValueError(
                f"BurnRateSLO {self.name!r}: latency kind needs a histogram "
                "metric and a positive latency_bound"
            )
        if not 0.0 < self.short_window < self.long_window:
            raise ValueError(
                f"BurnRateSLO {self.name!r}: need 0 < short_window < "
                f"long_window, got {self.short_window!r} / {self.long_window!r}"
            )
        if self.budget_window < self.long_window:
            raise ValueError(
                f"BurnRateSLO {self.name!r}: budget_window must be >= "
                f"long_window, got {self.budget_window!r}"
            )
        if self.burn_threshold <= 0.0:
            raise ValueError(
                f"BurnRateSLO {self.name!r}: burn_threshold must be positive"
            )

    @property
    def error_budget(self) -> float:
        """The allowed error fraction, ``1 - target``."""
        return 1.0 - self.target

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "BurnRateSLO":
        """Build from one JSON object of an ``--slo-config`` document."""
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(doc) - known
        if unknown:
            raise ValueError(
                f"unknown BurnRateSLO fields {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        kwargs = dict(doc)
        for tuple_field in ("good", "bad"):
            if tuple_field in kwargs:
                value = kwargs[tuple_field]
                if isinstance(value, str):
                    value = [value]
                kwargs[tuple_field] = tuple(value)  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]
