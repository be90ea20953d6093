"""Metric collectors for the six metrics of Section VI-A.

1. throughput (tx/s), 2. sidechain transaction latency, 3. mainchain
transaction latency, 4. payout latency, 5. gas cost, 6. main/side chain
growth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.metrics import LogHistogram


@dataclass
class LatencyStats:
    """Streaming latency accumulator (mean/min/max without storing all).

    Also feeds a log-scale histogram so percentiles are available
    without retaining samples; percentiles are deterministic across
    merge orders (bucket counts just add).
    """

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = 0.0
    histogram: LogHistogram = field(default_factory=LogHistogram, repr=False)

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"negative latency: {value}")
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        self.histogram.record(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Streaming quantile (``q`` in [0, 1]); 0.0 when empty."""
        return self.histogram.quantile(q)

    def merge(self, other: "LatencyStats") -> None:
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        self.histogram.merge(other.histogram)

    def as_dict(self) -> dict:
        """Strict-JSON-safe summary.

        An empty stat keeps ``minimum = inf`` internally (the identity
        for ``min`` under merge), but ``inf`` is not valid strict JSON
        and the artifact store serializes with ``allow_nan=False`` —
        so an empty stat reports ``min: 0.0`` here.
        """
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }


@dataclass
class MetricsCollector:
    """All measurements of one experiment run."""

    sidechain_latency: LatencyStats = field(default_factory=LatencyStats)
    payout_latency: LatencyStats = field(default_factory=LatencyStats)
    mainchain_latency: LatencyStats = field(default_factory=LatencyStats)
    processed_txs: int = 0
    rejected_txs: int = 0
    elapsed_seconds: float = 0.0
    #: Mainchain gas by itemisation label.
    gas_by_label: dict[str, int] = field(default_factory=dict)
    total_gas: int = 0
    mainchain_growth_bytes: int = 0
    sidechain_growth_bytes: int = 0
    sidechain_live_bytes: int = 0
    sidechain_pruned_bytes: int = 0
    num_syncs: int = 0
    num_deposits: int = 0
    #: Deepest the transaction queue ever got (post-ingest, pre-mining) —
    #: the congestion signal for bursty/diurnal arrival scenarios.
    peak_queue_depth: int = 0
    #: Cross-shard legs refunded at this (source) shard, bucketed by the
    #: typed abort reason the resolve carried.
    refunds_by_reason: dict[str, int] = field(default_factory=dict)
    #: Total aborted cross-shard legs (the sum over refunds_by_reason).
    aborted_legs: int = 0

    @property
    def throughput(self) -> float:
        """Processed transactions per second over the whole run."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.processed_txs / self.elapsed_seconds

    def record_gas(self, breakdown: dict[str, int]) -> None:
        for label, amount in breakdown.items():
            self.gas_by_label[label] = self.gas_by_label.get(label, 0) + amount
            self.total_gas += amount

    def record_refund(self, reason: str) -> None:
        """Count one aborted cross-shard leg refunded at this shard."""
        key = reason or "unspecified"
        self.refunds_by_reason[key] = self.refunds_by_reason.get(key, 0) + 1
        self.aborted_legs += 1

    def summary(self) -> dict:
        """Plain-dict summary convenient for benches and reports."""
        return {
            "throughput_tps": round(self.throughput, 2),
            "avg_sc_latency_s": round(self.sidechain_latency.mean, 2),
            "avg_payout_latency_s": round(self.payout_latency.mean, 2),
            "processed_txs": self.processed_txs,
            "rejected_txs": self.rejected_txs,
            "total_gas": self.total_gas,
            "mainchain_growth_bytes": self.mainchain_growth_bytes,
            "sidechain_growth_bytes": self.sidechain_growth_bytes,
            "sidechain_live_bytes": self.sidechain_live_bytes,
            "num_syncs": self.num_syncs,
            "peak_queue_depth": self.peak_queue_depth,
            "aborted_legs": self.aborted_legs,
            "refunds_by_reason": dict(sorted(self.refunds_by_reason.items())),
            "elapsed_seconds": round(self.elapsed_seconds, 1),
        }
