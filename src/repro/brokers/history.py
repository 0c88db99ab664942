"""Availability history: trend tracking and retrospective observation.

Supports two distinct needs of the paper's evaluation:

* **Availability Change Index** (§4.3.1, eq. 5): the broker keeps an
  average ``r_avg_avail`` of the availability values *reported* during
  the past ``T`` time units; ``alpha = r_avail / r_avg_avail`` reflects
  the trend.  The average is updated after each report.  It is kept as a
  running sum, so a probe costs O(1) amortized: each report is added
  once, and the sum is rebuilt over the remaining reports only when some
  report leaves the window.  The reservation daemon and the cluster
  shards never advance their DES clock, so there the window spans the
  whole lifetime of the process and no report ever leaves it.
* **Stale observations** (§5.2.4): the inaccuracy experiments observe a
  resource's availability as it was up to ``E`` time units ago, so the
  true availability must be reconstructible for any past instant.
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.core.errors import BrokerError


class AvailabilityHistory:
    """Report log (for alpha) + change log (for retrospective queries)."""

    def __init__(self, window: float = 3.0, max_changes: Optional[int] = None) -> None:
        """``window`` is the paper's ``T`` (3 time units in §5's runs).

        ``max_changes`` optionally bounds the change log's memory by
        dropping the oldest change points (retrospective queries then
        clamp to the oldest retained point).
        """
        if window <= 0:
            raise BrokerError(f"averaging window must be positive, got {window!r}")
        self.window = float(window)
        self._reports: Deque[Tuple[float, float]] = deque()
        self._report_sum: float = 0
        self._change_times: List[float] = []
        self._change_values: List[float] = []
        self._max_changes = max_changes

    # -- alpha (availability change index) --------------------------------

    def alpha(self, now: float, available: float) -> float:
        """Report ``available`` at ``now`` and return the change index.

        The index compares the current availability against the mean of
        the values reported in the window *before* this report (the paper
        updates the average after each report).  Returns 1.0 when there
        is no history yet -- "unchanged".  The window's sum is always the
        plain left-to-right fold of its values, which is what ``sum()``
        computes up to CPython 3.11 (3.12 compensates float sums), so
        the index does not depend on the interpreter.
        """
        reports = self._reports
        cutoff = now - self.window
        if reports and reports[0][0] < cutoff:
            while reports and reports[0][0] < cutoff:
                reports.popleft()
            # Rebuild rather than subtract: the same left-to-right fold
            # as appending gives a bit-exact mean for any window.
            total = 0
            for _t, value in reports:
                total += value
            self._report_sum = total
        if reports:
            mean = self._report_sum / len(reports)
            index = 1.0 if mean <= 0 else available / mean
        else:
            index = 1.0
        reports.append((now, available))
        self._report_sum += available
        return index

    # -- change log (retrospective availability) -----------------------------

    def record_change(self, now: float, available: float) -> None:
        """Record that availability became ``available`` at time ``now``."""
        if self._change_times and now < self._change_times[-1]:
            raise BrokerError(
                f"change at {now!r} is earlier than last recorded {self._change_times[-1]!r}"
            )
        if self._change_times and self._change_times[-1] == now:
            self._change_values[-1] = available
        else:
            self._change_times.append(now)
            self._change_values.append(available)
        if self._max_changes is not None and len(self._change_times) > self._max_changes:
            del self._change_times[0]
            del self._change_values[0]

    def value_at(self, when: float) -> Optional[float]:
        """Availability as of time ``when`` (None before any record)."""
        index = bisect.bisect_right(self._change_times, when) - 1
        if index < 0:
            return self._change_values[0] if self._change_values else None
        return self._change_values[index]

    def latest(self) -> Optional[Tuple[float, float]]:
        """Most recent (time, value) change point, or None."""
        if not self._change_times:
            return None
        return self._change_times[-1], self._change_values[-1]

    def __len__(self) -> int:
        return len(self._change_times)
