"""Closed-loop serving runs: system + gateway + client fleet.

:class:`ServingRun` alternates serving windows with epoch execution —
the shape of an always-on deployment where the committee applies writes
epoch-serially while the gateway keeps answering reads off the frozen
boundary snapshot:

1. a warm-up epoch bootstraps liquidity;
2. each serving epoch runs ``ticks_per_epoch`` virtual-time ticks of
   client traffic, then one epoch of the pipeline, which drains the
   admission queue, syncs, settles finality and publishes a fresh
   snapshot;
3. shutdown drains the gateway gracefully, then extra inject-free
   epochs flush the backlog until every admitted swap reached finality.

Everything a :class:`ServingReport` exposes except the wall-clock quote
latencies is a pure function of the config — byte-identical across runs
and process fan-out.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro import constants
from repro.core.system import AmmBoostConfig, AmmBoostSystem
from repro.errors import ConfigurationError
from repro.serving.clients import ClientFleet, FleetConfig
from repro.serving.gateway import GatewayConfig, GatewayStats, QuoteGateway
from repro.serving.phases import serving_epoch_phases
from repro.serving.stats import histogram_summary, latency_summary


@dataclass(frozen=True)
class ServingConfig:
    """One closed-loop serving experiment."""

    num_clients: int = 200
    #: Serving epochs (a liquidity warm-up epoch runs before them).
    epochs: int = 3
    ticks_per_epoch: int = 8
    #: Seeds the system and the fleet alike; an int, so that two configs
    #: with different seeds never share a pool, traffic or committee.
    seed: int = 0
    submit_fraction: float = 0.4
    burst_factor: float = 3.0
    burst_fraction: float = 0.2
    amount_lo: int = 10**15
    amount_hi: int = 10**18
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    # System shape (kept small: serving load comes from the fleet).
    num_users: int = 32
    daily_volume: int = 200_000
    rounds_per_epoch: int = 6
    committee_size: int = 8
    miner_population: int = 16

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ConfigurationError(
                f"ServingConfig.seed must be an int, got {self.seed!r}"
            )


@dataclass
class ServingReport:
    """Deterministic results of one serving run (+ wall-clock extras)."""

    config: ServingConfig
    log: list[dict]
    stats: GatewayStats
    wall_quote_seconds: list[float]
    metrics_summary: dict

    def digest(self) -> str:
        """SHA-256 over the deterministic request log."""
        payload = "\n".join(
            json.dumps(entry, sort_keys=True) for entry in self.log
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def summary(self) -> dict:
        """The scenario/benchmark-facing block (deterministic fields)."""
        stats = self.stats
        return {
            "clients": self.config.num_clients,
            "requests_logged": len(self.log),
            "quotes_served": stats.quotes_served,
            "quote_latency_ticks": {
                # Exact nearest-rank block first (bit-stable columns),
                # then the streaming-histogram view under hist_* keys.
                **latency_summary(
                    [float(v) for v in stats.quote_latency_ticks]
                ),
                **histogram_summary(
                    [float(v) for v in stats.quote_latency_ticks]
                ),
            },
            "quote_rejections": dict(sorted(stats.quote_rejections.items())),
            "quote_errors": dict(sorted(stats.quote_errors.items())),
            "swaps_accepted": stats.submits_accepted,
            "swap_rejections": dict(sorted(stats.submit_rejections.items())),
            "executor_rejected": stats.executor_rejected,
            "swap_finality_epochs": latency_summary(
                [float(v) for v in stats.finality_epochs]
            ),
            "peak_admission_queue": stats.peak_admission_queue,
            "peak_queue_depth": self.metrics_summary["peak_queue_depth"],
            "processed_txs": self.metrics_summary["processed_txs"],
            "log_digest": self.digest(),
        }


class ServingRun:
    """Build and drive one closed-loop serving experiment."""

    def __init__(self, config: ServingConfig | None = None) -> None:
        self.config = config or ServingConfig()
        cfg = self.config
        self.system = AmmBoostSystem(
            AmmBoostConfig(
                committee_size=cfg.committee_size,
                miner_population=cfg.miner_population,
                num_users=cfg.num_users,
                daily_volume=cfg.daily_volume,
                rounds_per_epoch=cfg.rounds_per_epoch,
                seed=cfg.seed,
            )
        )
        self.gateway = QuoteGateway(self.system.pool, self.system.ids, cfg.gateway)
        self.system.epoch_phases = serving_epoch_phases(self.gateway)
        self.fleet = ClientFleet(
            self.gateway,
            users=list(self.system.population.addresses),
            config=FleetConfig(
                num_clients=cfg.num_clients,
                seed=cfg.seed,
                submit_fraction=cfg.submit_fraction,
                burst_factor=cfg.burst_factor,
                burst_fraction=cfg.burst_fraction,
                amount_lo=cfg.amount_lo,
                amount_hi=cfg.amount_hi,
            ),
        )

    def execute(self) -> ServingReport:
        cfg = self.config
        system = self.system
        gateway = self.gateway
        system.setup()

        # Warm-up: bootstrap LP + one epoch of generated load so the book
        # has depth before the first snapshot is published.
        system.run_epoch(0, inject=True)
        epoch = 0

        for _ in range(cfg.epochs):
            self.fleet.run_window(cfg.ticks_per_epoch)
            epoch += 1
            system.run_epoch(epoch, inject=False)

        gateway.shutdown(between_ticks=self.fleet.deliver_replies)
        self.fleet.close()

        # Flush: extra inject-free epochs until the backlog and every
        # in-flight swap settled (the boundary phase keeps scoring
        # finality as the remaining syncs confirm).
        drained = 0
        while system.queue or gateway.admitted_depth or gateway.inflight_count:
            if drained >= constants.MAX_DRAIN_EPOCHS:
                raise ConfigurationError(
                    "serving drain did not complete within "
                    f"{constants.MAX_DRAIN_EPOCHS} epochs"
                )
            epoch += 1
            drained += 1
            system.run_epoch(epoch, inject=False)
            if gateway.inflight_count and not system.queue:
                # Only the final sync is outstanding: let it land.
                system.settle_syncs()
                gateway.settle_finality(system, boundary_epoch=epoch + 1)

        system.finalize_metrics()
        return ServingReport(
            config=cfg,
            log=self.fleet.merged_log(),
            stats=gateway.stats,
            wall_quote_seconds=list(self.fleet.wall_quote_seconds),
            metrics_summary=system.metrics.summary(),
        )
