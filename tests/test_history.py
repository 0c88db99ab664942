"""Tests for AvailabilityHistory: alpha windows and change logs."""

import time
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.brokers import AvailabilityHistory
from repro.core.errors import BrokerError


class TestAlpha:
    def test_first_report_is_neutral(self):
        history = AvailabilityHistory(window=3.0)
        assert history.alpha(0.0, 100.0) == 1.0

    def test_alpha_is_ratio_to_window_mean(self):
        history = AvailabilityHistory(window=3.0)
        history.alpha(0.0, 100.0)
        history.alpha(1.0, 60.0)
        # mean of {100, 60} = 80; current 40 -> 0.5
        assert history.alpha(2.0, 40.0) == pytest.approx(0.5)

    def test_window_drops_old_reports(self):
        history = AvailabilityHistory(window=3.0)
        history.alpha(0.0, 10.0)
        # t=5: the t=0 report is outside (5-3, 5]
        assert history.alpha(5.0, 100.0) == 1.0

    def test_zero_mean_guard(self):
        history = AvailabilityHistory(window=3.0)
        history.alpha(0.0, 0.0)
        assert history.alpha(1.0, 50.0) == 1.0

    def test_window_must_be_positive(self):
        with pytest.raises(BrokerError):
            AvailabilityHistory(window=0.0)


class TestChangeLog:
    def test_value_at_reconstructs_history(self):
        history = AvailabilityHistory()
        history.record_change(0.0, 100.0)
        history.record_change(5.0, 60.0)
        history.record_change(9.0, 80.0)
        assert history.value_at(0.0) == 100.0
        assert history.value_at(4.9) == 100.0
        assert history.value_at(5.0) == 60.0
        assert history.value_at(7.0) == 60.0
        assert history.value_at(100.0) == 80.0

    def test_value_before_first_record_clamps(self):
        history = AvailabilityHistory()
        history.record_change(5.0, 60.0)
        assert history.value_at(1.0) == 60.0

    def test_value_with_no_records(self):
        assert AvailabilityHistory().value_at(1.0) is None

    def test_same_time_overwrites(self):
        history = AvailabilityHistory()
        history.record_change(1.0, 50.0)
        history.record_change(1.0, 40.0)
        assert history.value_at(1.0) == 40.0
        assert len(history) == 1

    def test_out_of_order_rejected(self):
        history = AvailabilityHistory()
        history.record_change(5.0, 50.0)
        with pytest.raises(BrokerError):
            history.record_change(4.0, 60.0)

    def test_latest(self):
        history = AvailabilityHistory()
        assert history.latest() is None
        history.record_change(2.0, 30.0)
        assert history.latest() == (2.0, 30.0)

    def test_max_changes_bound(self):
        history = AvailabilityHistory(max_changes=2)
        for t in range(5):
            history.record_change(float(t), float(t * 10))
        assert len(history) == 2
        # clamped to the oldest retained point
        assert history.value_at(0.0) == 30.0


def _full_sum_alpha_reference(window: float):
    """The previous ``alpha``: the window mean recomputed from scratch.

    The sum is spelled out as the left-to-right fold that ``sum()`` was
    up to CPython 3.11 (3.12 compensates float sums).
    """
    reports = deque()

    def alpha(now, available):
        cutoff = now - window
        while reports and reports[0][0] < cutoff:
            reports.popleft()
        if reports:
            total = 0
            for _t, value in reports:
                total += value
            mean = total / len(reports)
            index = 1.0 if mean <= 0 else available / mean
        else:
            index = 1.0
        reports.append((now, available))
        return index

    return alpha


_gaps = st.one_of(
    st.just(0.0),
    st.just(0.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=2.0, max_value=12.0),
)
_values = st.one_of(
    st.just(0),
    st.just(0.0),
    st.integers(min_value=-(10**6), max_value=10**12),
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=0.0, max_value=1e12),
    st.sampled_from([1e12, 0.1, 1e-9, 1.0 / 3.0]),
)


class TestRunningMean:
    @settings(max_examples=300, deadline=None)
    @given(
        window=st.floats(min_value=0.01, max_value=10.0),
        start=st.floats(min_value=-100.0, max_value=100.0),
        stream=st.lists(st.tuples(_gaps, _values), max_size=80),
    )
    def test_matches_full_sum_reference_exactly(self, window, start, stream):
        history = AvailabilityHistory(window=window)
        reference = _full_sum_alpha_reference(history.window)
        now = start
        for gap, value in stream:
            now += gap
            expected = reference(now, value)
            assert history.alpha(now, value) == expected

    def test_probe_cost_does_not_grow_with_uptime(self):
        """A frozen clock keeps every report; a probe must stay O(1)."""
        values = (100.0, 60.0, 40.0, 75.5)
        aged = AvailabilityHistory(window=3.0)
        started = time.perf_counter()
        for i in range(200_000):
            aged.alpha(0.0, values[i % 4])
            if i % 10_000 == 0:
                assert time.perf_counter() - started < 30.0, (
                    f"filling {i} reports took over 30 s"
                )

        def probe_seconds(history):
            begin = time.perf_counter()
            for i in range(1000):
                history.alpha(0.0, values[i % 4])
            return time.perf_counter() - begin

        aged_s = min(probe_seconds(aged) for _ in range(5))
        fresh_s = min(
            probe_seconds(AvailabilityHistory(window=3.0)) for _ in range(5)
        )
        assert aged_s <= 5.0 * fresh_s, (aged_s, fresh_s)
