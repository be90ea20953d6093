"""Always-on serving layer: snapshot-isolated reads, admission-controlled writes.

The batch pipeline measures throughput; this package measures what users
feel.  A :class:`~repro.serving.gateway.QuoteGateway` answers quotes
against immutable copy-on-epoch :class:`~repro.amm.pool.PoolSnapshot`
views and admits swaps into a bounded queue drained by the epoch
pipeline; a deterministic closed-loop :class:`~repro.serving.clients.ClientFleet`
drives it so p50/p99 quote latency and swap-to-finality are reproducible
from a single seed.  See README.md in this directory for the isolation,
backpressure and determinism rules.
"""

from repro.serving.clients import ClientFleet, FleetConfig
from repro.serving.driver import ServingConfig, ServingReport, ServingRun
from repro.serving.gateway import (
    REASON_QUEUE_FULL,
    REASON_RATE_LIMITED,
    REASON_SHUTTING_DOWN,
    REASON_STALE_SNAPSHOT,
    GatewayConfig,
    GatewayStats,
    QuoteGateway,
    QuoteRequest,
    QuoteResponse,
    Reply,
    SwapReceipt,
    SwapSubmission,
    TokenBucket,
)
from repro.serving.phases import (
    GatewayBoundaryPhase,
    GatewayIngestPhase,
    serving_epoch_phases,
)
from repro.serving.stats import latency_summary, percentile

__all__ = [
    "REASON_QUEUE_FULL",
    "REASON_RATE_LIMITED",
    "REASON_SHUTTING_DOWN",
    "REASON_STALE_SNAPSHOT",
    "ClientFleet",
    "FleetConfig",
    "GatewayBoundaryPhase",
    "GatewayConfig",
    "GatewayIngestPhase",
    "GatewayStats",
    "QuoteGateway",
    "QuoteRequest",
    "QuoteResponse",
    "Reply",
    "ServingConfig",
    "ServingReport",
    "ServingRun",
    "SwapReceipt",
    "SwapSubmission",
    "TokenBucket",
    "latency_summary",
    "percentile",
    "serving_epoch_phases",
]
