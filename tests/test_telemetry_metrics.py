"""Unit tests for the log histogram and the stats built on it."""

from __future__ import annotations

import json
import math

import pytest

from repro.telemetry.metrics import (
    LogHistogram,
    SUBBUCKETS,
    _bucket_index,
    _bucket_midpoint,
)


# -- bucketing -----------------------------------------------------------------


def test_bucket_midpoint_brackets_value():
    for value in (1e-6, 0.4, 1.0, 3.7, 100.0, 1e9, 7.25e12):
        mid = _bucket_midpoint(_bucket_index(value))
        # Bucket width is ~2^(1/SUBBUCKETS), so the midpoint is within
        # one bucket of the recorded value.
        assert mid == pytest.approx(value, rel=2.0 / SUBBUCKETS)


def test_bucket_index_is_monotonic():
    values = [0.001 * (1.17 ** k) for k in range(120)]
    indexes = [_bucket_index(v) for v in values]
    assert indexes == sorted(indexes)


def test_power_of_two_boundaries_are_exact():
    # frexp-based bucketing has no float drift at binade boundaries.
    for exponent in range(-10, 11):
        value = math.ldexp(1.0, exponent)
        assert _bucket_index(value) != _bucket_index(value * 0.999)


# -- histogram -----------------------------------------------------------------


def test_empty_histogram_summary_is_strict_json():
    summary = LogHistogram().summary()
    json.dumps(summary, allow_nan=False)
    assert summary == {
        "count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
        "p50": 0.0, "p90": 0.0, "p99": 0.0,
    }


def test_quantiles_approximate_true_percentiles():
    hist = LogHistogram()
    values = [float(v) for v in range(1, 1001)]
    for v in values:
        hist.record(v)
    assert hist.count == 1000
    assert hist.minimum == 1.0
    assert hist.maximum == 1000.0
    assert hist.quantile(0.5) == pytest.approx(500.0, rel=0.10)
    assert hist.quantile(0.99) == pytest.approx(990.0, rel=0.10)
    assert hist.mean == pytest.approx(500.5)


def test_nonpositive_values_count_without_bucketing():
    hist = LogHistogram()
    hist.record(0.0)
    hist.record(-3.0)
    hist.record(2.0)
    assert hist.count == 3
    assert hist.zero_count == 2
    assert hist.minimum == -3.0
    # Nonpositive samples rank below every bucketed one.
    assert hist.quantile(0.5) == 0.0
    assert hist.quantile(0.99) > 0.0


def test_merge_is_order_invariant():
    samples = [0.5, 1.0, 2.5, 2.5, 40.0, 1e6, 0.0]
    one = LogHistogram()
    for v in samples:
        one.record(v)

    forward, backward = LogHistogram(), LogHistogram()
    a, b = LogHistogram(), LogHistogram()
    for v in samples[:3]:
        a.record(v)
    for v in samples[3:]:
        b.record(v)
    forward.merge(a)
    forward.merge(b)
    backward.merge(b)
    backward.merge(a)
    assert forward.summary() == backward.summary() == one.summary()


# -- collector integration -----------------------------------------------------


def test_latency_stats_empty_as_dict_is_strict_json():
    from repro.metrics.collector import LatencyStats

    stats = LatencyStats()
    block = stats.as_dict()
    # Regression: an empty stat used to carry minimum=inf, which breaks
    # strict JSON serialization downstream.
    json.dumps(block, allow_nan=False)
    assert block["count"] == 0
    assert block["min"] == 0.0


def test_latency_stats_percentiles_and_merge():
    from repro.metrics.collector import LatencyStats

    stats = LatencyStats()
    for v in (1.0, 2.0, 3.0, 10.0):
        stats.record(v)
    assert stats.percentile(0.5) == pytest.approx(2.0, rel=0.2)
    other = LatencyStats()
    other.record(100.0)
    stats.merge(other)
    assert stats.count == 5
    assert stats.as_dict()["max"] == 100.0
    assert stats.as_dict()["p99"] == pytest.approx(100.0, rel=0.1)
