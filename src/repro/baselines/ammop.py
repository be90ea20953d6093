"""ammOP: the Optimism-inspired optimistic-rollup comparator (Section VI-D).

Models an AMM on an optimistic rollup: the sequencer packs 1.8 MB batches,
one every ~35 seconds (three Ethereum rounds); a transaction is "processed"
when its batch is built, but token payouts only finalise after the 7-day
contestation window plus mainchain confirmation.  Traffic arrival is
identical to the ammBoost runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro import constants
from repro.core.transactions import IdSpace
from repro.errors import ConfigurationError
from repro.metrics.collector import MetricsCollector
from repro.simulation.rng import DeterministicRng
from repro.workload.distribution import TrafficDistribution
from repro.workload.generator import TrafficGenerator, arrival_rate_per_round
from repro.workload.users import UserPopulation


@dataclass
class AmmOpConfig:
    """Rollup parameters (Optimism-inspired, Section VI-D)."""

    batch_size_bytes: int = constants.AMMOP_BATCH_SIZE
    batch_interval: float = constants.AMMOP_BATCH_INTERVAL_S
    contestation_period: float = constants.AMMOP_CONTESTATION_S
    #: Mainchain confirmation of the batch/withdrawal transaction.
    l1_confirmation: float = constants.LATENCY_SYNC_S
    daily_volume: int = constants.DEFAULT_DAILY_VOLUME
    num_users: int = constants.DEFAULT_NUM_USERS
    round_duration: float = constants.DEFAULT_ROUND_DURATION_S
    rounds_per_epoch: int = constants.DEFAULT_ROUNDS_PER_EPOCH
    seed: int = 0


class AmmOpRollup:
    """Time-stepped rollup simulation sharing the ammBoost workload."""

    def __init__(
        self,
        config: AmmOpConfig | None = None,
        distribution: TrafficDistribution | None = None,
    ) -> None:
        self.config = config or AmmOpConfig()
        self.distribution = distribution or TrafficDistribution.uniswap_2023()
        self.rng = DeterministicRng(self.config.seed)
        self.population = UserPopulation(self.config.num_users, seed=self.config.seed)
        self.generator = TrafficGenerator(
            population=self.population,
            distribution=self.distribution,
            rng=self.rng.child("traffic"),
            ids=IdSpace(),
        )
        self.metrics = MetricsCollector()
        self.queue: deque = deque()
        self.batches_built = 0

    def run(self, num_epochs: int = constants.DEFAULT_NUM_EPOCHS) -> MetricsCollector:
        """Inject traffic on the ammBoost round cadence; batch on the
        rollup cadence; drain; report."""
        cfg = self.config
        rho = arrival_rate_per_round(cfg.daily_volume, cfg.round_duration)
        traffic_end = num_epochs * cfg.rounds_per_epoch * cfg.round_duration

        now = 0.0
        next_round = 0.0
        next_batch = cfg.batch_interval
        drained = 0
        while True:
            # Inject all rounds due before the next batch.
            while next_round < next_batch and next_round < traffic_end:
                txs = self.generator.generate_round(rho, next_round)
                self.queue.extend(txs)
                next_round += cfg.round_duration
            now = next_batch
            self._build_batch(now)
            next_batch += cfg.batch_interval
            if next_round < traffic_end:
                continue
            if not self.queue:
                break
            drained += 1
            if drained > constants.MAX_DRAIN_EPOCHS:
                raise ConfigurationError(
                    "rollup drain did not complete within "
                    f"{constants.MAX_DRAIN_EPOCHS} batches"
                )

        self.metrics.elapsed_seconds = now
        return self.metrics

    def _build_batch(self, now: float) -> None:
        used = 0
        while self.queue:
            tx = self.queue[0]
            if used + tx.size_bytes > self.config.batch_size_bytes:
                break
            self.queue.popleft()
            used += tx.size_bytes
            tx.included_at = now
            self.metrics.processed_txs += 1
            # Transaction latency: submission -> appearing in a processed
            # (not yet finalised) rollup batch.
            self.metrics.sidechain_latency.record(now - tx.submitted_at)
            # Payout latency: the batch must survive the contestation
            # window before tokens can be withdrawn on L1.
            self.metrics.payout_latency.record(
                now
                - tx.submitted_at
                + self.config.contestation_period
                + self.config.l1_confirmation
            )
        self.batches_built += 1
        # The batch transcript lands on the mainchain (optimistic rollups
        # do not prune: verifiers need the data during contestation).
        self.metrics.mainchain_growth_bytes += used
