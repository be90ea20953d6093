"""Uniswap-V3-style AMM engine.

A faithful Python port of the Uniswap V3 core math and pool logic:
Q64.96 sqrt-price arithmetic, tick math, concentrated-liquidity positions
with fee-growth accounting, exact-input/exact-output swaps.

This engine is the "original AMM logic" of the paper — it is shared by the
baseline L1 deployment (:mod:`repro.uniswap`) and the ammBoost sidechain
executor (:mod:`repro.core.executor`), exactly as Section IV-B requires
("ammBoost does not change the logic based on which an AMM operates, it
just migrates that to the sidechain").
"""

# Math names are re-exported from the dispatch shim so they resolve to
# the backend selected by REPRO_BACKEND (pure by default; see backend.py).
from repro.amm.backend import (
    MAX_SQRT_RATIO,
    MAX_TICK,
    MIN_SQRT_RATIO,
    MIN_TICK,
    Q96,
    Q128,
    get_sqrt_ratio_at_tick,
    get_tick_at_sqrt_ratio,
    mul_div,
    mul_div_rounding_up,
)
from repro.amm.pool import Pool, PoolConfig, PoolSnapshot, Quote, SwapResult
from repro.amm.position import PositionKey
from repro.amm.router import Router, SwapQuote

__all__ = [
    "Q96",
    "Q128",
    "mul_div",
    "mul_div_rounding_up",
    "MIN_TICK",
    "MAX_TICK",
    "MIN_SQRT_RATIO",
    "MAX_SQRT_RATIO",
    "get_sqrt_ratio_at_tick",
    "get_tick_at_sqrt_ratio",
    "Pool",
    "PoolConfig",
    "PoolSnapshot",
    "Quote",
    "SwapResult",
    "PositionKey",
    "Router",
    "SwapQuote",
]
