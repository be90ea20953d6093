"""Metric collection for the evaluation harness."""

from repro.metrics.collector import LatencyStats, MetricsCollector

__all__ = ["LatencyStats", "MetricsCollector"]
