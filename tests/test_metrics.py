"""Tests for metric collectors and report formatting."""

import pytest

from repro.metrics.collector import LatencyStats, MetricsCollector
from repro.scenarios.result import format_table


def test_latency_stats_streaming():
    stats = LatencyStats()
    for value in (1.0, 2.0, 6.0):
        stats.record(value)
    assert stats.count == 3
    assert stats.mean == 3.0
    assert stats.minimum == 1.0
    assert stats.maximum == 6.0


def test_latency_stats_empty_mean_zero():
    assert LatencyStats().mean == 0.0


def test_latency_stats_rejects_negative():
    with pytest.raises(ValueError):
        LatencyStats().record(-0.1)


def test_latency_stats_merge():
    a, b = LatencyStats(), LatencyStats()
    a.record(1.0)
    b.record(3.0)
    a.merge(b)
    assert a.count == 2
    assert a.mean == 2.0
    assert a.maximum == 3.0


def test_collector_throughput():
    metrics = MetricsCollector()
    metrics.processed_txs = 100
    metrics.elapsed_seconds = 50.0
    assert metrics.throughput == 2.0


def test_collector_throughput_zero_time():
    assert MetricsCollector().throughput == 0.0


def test_collector_gas_accumulation():
    metrics = MetricsCollector()
    metrics.record_gas({"payout": 100, "auth": 50})
    metrics.record_gas({"payout": 25})
    assert metrics.gas_by_label == {"payout": 125, "auth": 50}
    assert metrics.total_gas == 175


def test_collector_summary_keys():
    summary = MetricsCollector().summary()
    for key in ("throughput_tps", "avg_sc_latency_s", "total_gas", "num_syncs"):
        assert key in summary


def test_format_table_alignment():
    text = format_table("T", ["col", "value"], [["a", 1], ["longer", 2.5]])
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "longer" in text
    assert "2.50" in text  # floats rendered with 2 decimals
    assert "1" in text


def test_format_table_thousands_separator():
    text = format_table("T", ["n"], [[1_234_567]])
    assert "1,234,567" in text


def test_record_refund_buckets_by_reason():
    metrics = MetricsCollector()
    metrics.record_refund("timeout")
    metrics.record_refund("timeout")
    metrics.record_refund("no_escrow")
    assert metrics.refunds_by_reason == {"timeout": 2, "no_escrow": 1}
    assert metrics.aborted_legs == 3


def test_record_refund_empty_reason_is_unspecified():
    metrics = MetricsCollector()
    metrics.record_refund("")
    assert metrics.refunds_by_reason == {"unspecified": 1}
    assert metrics.aborted_legs == 1


def test_aborted_legs_always_sums_refund_buckets():
    metrics = MetricsCollector()
    for reason in ("timeout", "", "no_escrow", "timeout", "coverage"):
        metrics.record_refund(reason)
    assert metrics.aborted_legs == sum(metrics.refunds_by_reason.values())


def test_summary_exposes_refunds_sorted_by_reason():
    metrics = MetricsCollector()
    for reason in ("zeta", "alpha", "midway", "alpha"):
        metrics.record_refund(reason)
    summary = metrics.summary()
    assert summary["aborted_legs"] == 4
    assert summary["refunds_by_reason"] == {"alpha": 2, "midway": 1, "zeta": 1}
    assert list(summary["refunds_by_reason"]) == ["alpha", "midway", "zeta"]


def test_summary_exposes_peak_queue_depth():
    metrics = MetricsCollector()
    metrics.peak_queue_depth = 37
    summary = metrics.summary()
    assert summary["peak_queue_depth"] == 37
    assert MetricsCollector().summary()["peak_queue_depth"] == 0
