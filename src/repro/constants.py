"""Calibration constants taken directly from the ammBoost paper.

Every number here is traceable to a table or a sentence in the paper
(DSN 2025); the table/section is cited next to each constant.  Keeping them
in one module makes the provenance of every reproduced figure auditable.
"""

# --------------------------------------------------------------------------
# Ethereum-style gas schedule (Table II and EIP-196/197/EVM yellow paper)
# --------------------------------------------------------------------------

#: Gas to store one fresh 32-byte word (SSTORE on a zero slot).  Table II.
GAS_SSTORE_WORD = 22_100

#: Constant gas charged per payout entry dispensed by ``Sync``.  Table II.
GAS_PAYOUT_ENTRY = 15_771

#: Keccak256 base cost.  Table II ("30 + 6 x ceil(|sum|/256)" — the 256 there
#: is bits; the EVM charges per 32-byte word).
GAS_KECCAK_BASE = 30

#: Keccak256 per-word (32 bytes) cost.
GAS_KECCAK_PER_WORD = 6

#: EIP-196 scalar multiplication on alt_bn128 (used by hash-to-point).
GAS_ECMUL = 6_000

#: EIP-197 pairing check: base + per-pairing cost.  Two pairings are needed
#: for a BLS verification, giving the paper's 113,000.
GAS_PAIRING_BASE = 45_000
GAS_PAIRING_PER_POINT = 34_000
GAS_BLS_PAIRING_CHECK = GAS_PAIRING_BASE + 2 * GAS_PAIRING_PER_POINT  # 113,000

#: Total gas for a two-token deposit (two ERC20 approvals + transfers +
#: bookkeeping).  Table II.
GAS_DEPOSIT_TWO_TOKENS = 105_392

#: Intrinsic gas of any Ethereum transaction.
GAS_TX_INTRINSIC = 21_000

#: Gas per non-zero calldata byte (EIP-2028) — used by the ABI size model.
GAS_CALLDATA_BYTE = 16

#: Mainchain block gas limit (Ethereum mainnet value).
MAINCHAIN_BLOCK_GAS_LIMIT = 30_000_000

# --------------------------------------------------------------------------
# Baseline Uniswap per-operation gas (Table III)
# --------------------------------------------------------------------------

GAS_UNISWAP_SWAP = 160_601.45
GAS_UNISWAP_MINT = 435_609.86
GAS_UNISWAP_BURN = 158_473.43
GAS_UNISWAP_COLLECT = 163_743.04

#: Average mainchain confirmation latency per baseline op, seconds (Table III).
LATENCY_UNISWAP_SWAP_S = 31.34
LATENCY_UNISWAP_MINT_S = 42.24
LATENCY_UNISWAP_BURN_S = 12.72
LATENCY_UNISWAP_COLLECT_S = 13.45

#: Mainchain confirmation latency of ammBoost ops, seconds (Table II).
LATENCY_SYNC_S = 15.28
LATENCY_DEPOSIT_S = 54.60

# --------------------------------------------------------------------------
# Storage / encoding sizes in bytes (Table IV)
# --------------------------------------------------------------------------

#: ``Sync`` payout entry as ABI-encoded on the mainchain.
SIZE_PAYOUT_ENTRY_MAINCHAIN = 352
#: Payout entry with simple binary packing in a summary-block.
SIZE_PAYOUT_ENTRY_SIDECHAIN = 97
#: Liquidity position entry, ABI-encoded on the mainchain.
SIZE_POSITION_ENTRY_MAINCHAIN = 416
#: Position entry with simple binary packing in a summary-block.
SIZE_POSITION_ENTRY_SIDECHAIN = 215
#: BLS committee verification key (two G2 coordinates).
SIZE_VKC = 128
#: BLS signature (one G1 point).
SIZE_BLS_SIGNATURE = 64

#: Baseline Uniswap transaction sizes on Sepolia, bytes (Table IV).
SIZE_UNISWAP_SEPOLIA = {
    "swap": 365.27,
    "mint": 565.55,
    "burn": 280.21,
    "collect": 150.18,
}

#: Uniswap V3 transaction sizes on production Ethereum, bytes (Table VII).
SIZE_UNISWAP_ETHEREUM = {
    "swap": 1007.83,
    "mint": 814.49,
    "burn": 907.07,
    "collect": 921.80,
}

# --------------------------------------------------------------------------
# Uniswap 2023 traffic analysis (Table VII / Appendix D)
# --------------------------------------------------------------------------

#: Fraction of traffic per transaction type, 2023 (Table VII).
TRAFFIC_DISTRIBUTION = {
    "swap": 0.9319,
    "mint": 0.0214,
    "burn": 0.0238,
    "collect": 0.0227,
}

#: Average volume per 24 hours per type (Table VII).
TRAFFIC_DAILY_VOLUME = {
    "swap": 52_379,
    "mint": 1_204,
    "burn": 1_338,
    "collect": 1_275,
}

#: Uniswap's total daily volume the paper rounds to "1x" (≈56K → 50K used
#: as the 1x reference in Section VI).
UNISWAP_DAILY_VOLUME_1X = 50_000

# --------------------------------------------------------------------------
# Default ammBoost configuration (Section VI-A)
# --------------------------------------------------------------------------

#: Sidechain round duration, seconds.
DEFAULT_ROUND_DURATION_S = 7.0
#: Rounds per epoch.
DEFAULT_ROUNDS_PER_EPOCH = 30
#: Meta-block size, bytes.
DEFAULT_META_BLOCK_SIZE = 1_000_000
#: Sidechain committee size.
DEFAULT_COMMITTEE_SIZE = 500
#: Number of AMM users generating traffic.
DEFAULT_NUM_USERS = 100
#: Experiment length in epochs.
DEFAULT_NUM_EPOCHS = 11
#: Default daily transaction volume used in several experiments.
DEFAULT_DAILY_VOLUME = 25_000_000
#: Runaway guard for every driver: drain iterations (epochs, or a
#: baseline's block intervals / rollup batches) a run may spend on its
#: backlog after traffic stops before it fails with
#: ``ConfigurationError``.
MAX_DRAIN_EPOCHS = 2000

#: Mainchain (Sepolia-like) block interval, seconds.
MAINCHAIN_BLOCK_INTERVAL_S = 12.0

#: Blocks a two-token deposit needs (2 approvals then the deposit; Table II
#: discussion: "it takes around 4 blocks in our experiments").
DEPOSIT_CONFIRMATION_BLOCKS = 4
#: Blocks a Sync call needs ("confirmed within one block on average").
SYNC_CONFIRMATION_BLOCKS = 1

# --------------------------------------------------------------------------
# PBFT agreement-time calibration (Table XII)
# --------------------------------------------------------------------------

#: Measured agreement time (seconds) per committee size, Table XII.
AGREEMENT_TIME_BY_COMMITTEE = {
    100: 0.99,
    250: 2.95,
    500: 6.51,
    750: 14.32,
    1000: 22.24,
}

# --------------------------------------------------------------------------
# Optimism-style rollup comparator (Section VI-D)
# --------------------------------------------------------------------------

#: Bytes of transactions per rollup batch.
AMMOP_BATCH_SIZE = 1_800_000
#: Seconds to process one batch (~3 Ethereum rounds).
AMMOP_BATCH_INTERVAL_S = 35.0
#: Optimistic-rollup contestation period before payouts finalise (7 days).
AMMOP_CONTESTATION_S = 7 * 24 * 3600.0

# --------------------------------------------------------------------------
# PBFT threshold parameters (Section III)
# --------------------------------------------------------------------------


def committee_fault_tolerance(committee_size: int) -> int:
    """Return ``f`` for a committee of ``3f + 2`` members.

    The paper uses committees of size ``3f + 2`` with a quorum of ``2f + 2``.
    For sizes that are not exactly ``3f + 2`` we take the largest ``f`` that
    still satisfies the bound.
    """
    if committee_size < 2:
        raise ValueError(f"committee size must be >= 2, got {committee_size}")
    return (committee_size - 2) // 3


def committee_quorum(committee_size: int) -> int:
    """Votes needed to reach agreement: ``2f + 2``."""
    return 2 * committee_fault_tolerance(committee_size) + 2
