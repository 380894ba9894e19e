"""Ring bucketing, delivery/delay summaries and confidence intervals."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vanetsim.metrics import MetricsLedger, ci, fdr, mean_delay


def test_ring_bucketing_uses_inclusive_upper_bounds():
    ledger = MetricsLedger(rings=(300.0, 600.0, 1200.0))
    assert ledger.ring_for(0.0) == 300.0
    assert ledger.ring_for(300.0) == 300.0
    assert ledger.ring_for(300.1) == 600.0
    assert ledger.ring_for(1200.0) == 1200.0
    assert ledger.ring_for(1500.0) is None


def test_fdr_is_absent_until_something_was_sent():
    ledger = MetricsLedger()
    assert fdr(ledger, 300.0) is None
    c = ledger.counters(300.0)
    c.frames_sent = 20
    c.frames_delivered = 15
    assert fdr(ledger, 300.0) == 0.75
    assert fdr(ledger, 600.0) is None


def test_mean_delay_ignores_lost_packets_by_construction():
    ledger = MetricsLedger()
    assert mean_delay(ledger, 300.0) is None
    c = ledger.counters(300.0)
    c.packets_delivered = 2
    c.delay_sum = 3.0
    c.delay_count = 2
    assert mean_delay(ledger, 300.0) == 1.5


def test_duplicate_series_is_cumulative():
    ledger = MetricsLedger()
    ledger.record_duplicate()
    ledger.record_duplicate()
    assert ledger.duplicates_total == 2
    ledger.check_invariants()


def test_invariant_check_rejects_impossible_counters():
    ledger = MetricsLedger()
    c = ledger.counters(300.0)
    c.frames_sent = 1
    c.frames_delivered = 2
    with pytest.raises(AssertionError):
        ledger.check_invariants()

    ledger = MetricsLedger()
    c = ledger.counters(300.0)
    c.packets_delivered = 2
    c.delay_count = 1
    with pytest.raises(AssertionError):
        ledger.check_invariants()


def test_message_counting_by_kind():
    ledger = MetricsLedger()
    ledger.count_message("hello")
    ledger.count_message("hello")
    ledger.count_message("warning")
    assert ledger.messages_by_kind == {"hello": 2, "warning": 1}


def test_two_point_confidence_interval_fixture():
    # mean 0.5, sample sd 1/sqrt(2), t(0.975, 1 df) = 12.7062
    summary = ci([0.0, 1.0], level=0.95)
    assert summary.mean == 0.5
    assert abs(summary.half_width - 6.35310) < 1e-4
    assert summary.n_runs == 2


def test_confidence_interval_edge_cases():
    with pytest.raises(ValueError):
        ci([0.5])
    constant = ci([0.7, 0.7, 0.7])
    assert abs(constant.mean - 0.7) < 1e-12
    assert constant.half_width < 1e-9
    narrow = ci([0.0, 1.0], level=0.90)
    wide = ci([0.0, 1.0], level=0.99)
    assert narrow.half_width < wide.half_width


@given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=2, max_size=30))
def test_confidence_interval_brackets_the_mean(values):
    summary = ci(values)
    mean = sum(values) / len(values)
    assert abs(summary.mean - mean) < 1e-12
    assert summary.half_width >= 0.0
