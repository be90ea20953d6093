"""Exception hierarchy for the ammBoost reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without catching programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A configuration value is missing, malformed, or inconsistent."""


# --------------------------------------------------------------------------
# Crypto
# --------------------------------------------------------------------------


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class SignatureError(CryptoError):
    """A signature failed to verify."""


class ThresholdError(CryptoError):
    """Not enough shares, or shares are inconsistent."""


class VRFError(CryptoError):
    """A VRF proof failed to verify."""


# --------------------------------------------------------------------------
# Mainchain
# --------------------------------------------------------------------------


class ChainError(ReproError):
    """Base class for blockchain-level failures."""


class OutOfGasError(ChainError):
    """A contract call exceeded its gas allowance."""


class RevertError(ChainError):
    """A contract call reverted.

    Mirrors the EVM ``revert`` semantics: state changes made by the call
    are rolled back and the reason string is surfaced to the caller.
    """

    def __init__(self, reason: str = "") -> None:
        super().__init__(reason or "execution reverted")
        self.reason = reason


class InsufficientBalanceError(RevertError):
    """An ERC20 transfer exceeded the sender's balance or allowance."""


class UnknownContractError(ChainError):
    """A call targeted an address with no deployed contract."""


class RollbackError(ChainError):
    """A requested rollback is deeper than the chain allows."""


# --------------------------------------------------------------------------
# AMM engine
# --------------------------------------------------------------------------


class AMMError(ReproError):
    """Base class for AMM engine failures."""


class TickError(AMMError):
    """A tick index or range is invalid."""


class LiquidityError(AMMError):
    """A mint/burn references more liquidity than exists."""


class SlippageError(AMMError):
    """A swap violated its slippage or price-limit protection."""


class NoLiquidityError(AMMError):
    """A swap or quote found no liquidity to trade against.

    Raised by the read paths (quoter, router) when a pool — e.g. a
    freshly opened pool on an empty shard — has no liquidity anywhere in
    the swap's direction, so the walk would exchange nothing and only
    crash the price to the extreme ratio.  Typed so callers can route
    the order elsewhere instead of unpicking a bare arithmetic error or
    a silently wedged pool.
    """


class DeadlineError(AMMError):
    """A transaction's deadline round has passed."""


class PositionError(AMMError):
    """A position does not exist or is not owned by the caller."""


class FlashLoanError(AMMError):
    """A flash loan was not repaid within the same block."""


# --------------------------------------------------------------------------
# Sidechain / consensus
# --------------------------------------------------------------------------


class ConsensusError(ReproError):
    """Base class for PBFT consensus failures."""


class ViewChangeError(ConsensusError):
    """A view change could not complete."""


class ElectionError(ConsensusError):
    """Committee election failed or a proof of election is invalid."""


class BlockValidationError(ConsensusError):
    """A proposed meta/summary block failed validation."""


# --------------------------------------------------------------------------
# ammBoost core
# --------------------------------------------------------------------------


class AmmBoostError(ReproError):
    """Base class for ammBoost protocol failures."""


class DepositError(AmmBoostError):
    """A sidechain transaction is not covered by the issuer's deposit."""


class SyncAuthError(AmmBoostError, RevertError):
    """A Sync call failed TSQC authentication.

    Also a :class:`RevertError`: on-chain, a failed TSQC check reverts
    the Sync transaction rather than halting the chain — which is what
    lets a sync signed against a fork-rewound committee key fail
    harmlessly and be recovered by the next epoch's mass-sync.
    """


class SyncValidationError(AmmBoostError):
    """Sync inputs are inconsistent with the summarised epoch."""


class PruningError(AmmBoostError):
    """Meta-blocks were pruned before their sync was confirmed."""


# --------------------------------------------------------------------------
# Sharding
# --------------------------------------------------------------------------


class ShardError(AmmBoostError):
    """Base class for sharded-deployment failures."""


class PlacementError(ShardError):
    """A pool-to-shard assignment is missing, duplicated, or out of range."""


class EscrowError(ShardError):
    """An escrow transfer was driven through an invalid state transition."""


class WorkerLostError(ShardError):
    """A scheduler worker died and stayed dead through its retry budget.

    Raised once respawn-with-replay is exhausted, after every worker is
    reaped: the run heals bit-identically or ends here.  ``concise``
    marks the message as complete on its own: front-ends (the
    experiments CLI) print it as a one-line failure instead of a
    traceback — the interesting state is the worker's, and that process
    is gone.
    """

    concise = True
