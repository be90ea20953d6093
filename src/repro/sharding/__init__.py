"""Horizontal sharding: multi-committee sidechains with cross-shard routing.

The paper's design runs one committee-operated sidechain boosting one
AMM; this package scales that design horizontally.  A
:class:`ShardedSystem` partitions pools across ``S`` independent
:class:`~repro.core.system.AmmBoostSystem` shards — each with its own
committee election, DKG, PBFT-timed rounds, token bank and epoch phases
— routes cross-shard trades through escrowed two-phase-commit transfers,
and fans per-shard epochs across worker processes with results
bit-identical to a serial run.

See ``src/repro/sharding/README.md`` for the escrow protocol, the
determinism rules, and the scheduler design.
"""

from repro.sharding.escrow import (
    CrossShardSwapTx,
    CrossShardTransferTx,
    EscrowLedger,
    Instruction,
    TransferRow,
    transfer_row,
)
from repro.sharding.placement import pools_of, round_robin
from repro.sharding.router import CrossShardRouter, TransferRegistry
from repro.sharding.scheduler import ShardScheduler
from repro.sharding.shard import (
    Shard,
    ShardEpochRecord,
    ShardExecutor,
    ShardFinal,
    ShardIngestPhase,
    ShardSpec,
)
from repro.sharding.system import (
    ShardedConfig,
    ShardedRunReport,
    ShardedSystem,
    shard_substream_seed,
)

__all__ = [
    "CrossShardRouter",
    "CrossShardSwapTx",
    "CrossShardTransferTx",
    "EscrowLedger",
    "Instruction",
    "Shard",
    "ShardEpochRecord",
    "ShardExecutor",
    "ShardFinal",
    "ShardIngestPhase",
    "ShardScheduler",
    "ShardSpec",
    "ShardedConfig",
    "ShardedRunReport",
    "ShardedSystem",
    "TransferRegistry",
    "TransferRow",
    "pools_of",
    "round_robin",
    "shard_substream_seed",
    "transfer_row",
]
