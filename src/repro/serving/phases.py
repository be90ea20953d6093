"""Epoch-pipeline bridge for the serving gateway.

Two additions to the default pipeline wire the gateway into an
:class:`~repro.core.system.AmmBoostSystem`:

* :class:`GatewayIngestPhase` extends the stock workload-ingest phase so
  each epoch (and each round) also drains the gateway's admission queue
  into ``system.queue`` — gateway swaps ride the exact same meta-block
  packing, executor validation and ``peak_queue_depth`` accounting as
  generated traffic;
* :class:`GatewayBoundaryPhase` runs after prune/rotate: it settles
  swap-to-finality for in-flight submissions whose including epoch has
  synced, then notifies the gateway of the boundary so it can publish a
  fresh copy-on-epoch snapshot.
"""

from __future__ import annotations

from repro.core.phases import (
    EpochContext,
    EpochPhase,
    WorkloadIngestPhase,
    default_epoch_phases,
)
from repro.serving.gateway import QuoteGateway


class GatewayIngestPhase(WorkloadIngestPhase):
    """Workload ingest that also drains the gateway admission queue."""

    def __init__(self, gateway: QuoteGateway) -> None:
        self.gateway = gateway

    def run(self, system, ctx: EpochContext) -> None:
        super().run(system, ctx)
        # Swaps admitted during the serving window arrive at epoch start.
        self._drain(system, ctx.epoch_start)

    def ingest_round(self, system, ctx: EpochContext, round_start: float) -> None:
        super().ingest_round(system, ctx, round_start)
        self._drain(system, round_start)

    def _drain(self, system, submitted_at: float) -> None:
        txs = self.gateway.drain_admitted(submitted_at)
        if not txs:
            return
        system.queue.extend(txs)
        depth = len(system.queue)
        if depth > system.metrics.peak_queue_depth:
            system.metrics.peak_queue_depth = depth


class GatewayBoundaryPhase(EpochPhase):
    """Settle finality and roll the serving snapshot at the boundary."""

    def __init__(self, gateway: QuoteGateway) -> None:
        self.gateway = gateway

    def run(self, system, ctx: EpochContext) -> None:
        boundary = ctx.epoch + 1
        self.gateway.settle_finality(system, boundary_epoch=boundary)
        self.gateway.on_epoch_boundary(boundary)


def serving_epoch_phases(gateway: QuoteGateway) -> tuple[EpochPhase, ...]:
    """The default pipeline fed by the gateway, then its boundary phase."""
    return (
        *default_epoch_phases(GatewayIngestPhase(gateway)),
        GatewayBoundaryPhase(gateway),
    )
