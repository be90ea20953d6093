"""Backend dispatch for the AMM hot-path math.

``REPRO_BACKEND`` selects the implementation behind the fixed-point /
tick / swap math and the keccak256 part-hash:

- ``pure`` (the default): the interpreted reference implementations in
  :mod:`repro.amm.fixed_point`, :mod:`repro.amm.tick_math`,
  :mod:`repro.amm.sqrt_price_math` and :mod:`repro.amm.swap_math`.
- ``compiled``: the :mod:`repro._compiled` C extension (built via
  ``pip install -e .[compiled]`` or ``python setup.py build_ext
  --inplace``).  If the extension is not importable the backend falls
  back to ``pure`` with a single logged warning;
  :func:`backend_fell_back` reports that state so CI can fail on a
  silent fallback.

Every call site in the engine imports *this* module instead of the math
modules directly, so swapping backends never touches call sites.  The
compiled functions are property-tested equal to the pure ones
(``tests/test_backend_parity.py``), including exception types and
messages: the extension only takes its native fast path inside a guarded
domain and re-invokes the pure function (installed here via
``_install``) for every edge or error case.

Dispatch is resolved once at import time — hot loops bind the selected
functions directly, so per-call indirection costs nothing.  Switching
backends therefore requires a fresh interpreter (set the environment
variable before the first ``repro`` import); the benchmark harness
compares backends across subprocesses for exactly this reason.
"""

from __future__ import annotations

import logging
import os
from typing import Callable

from repro.amm import fixed_point, sqrt_price_math, swap_math, tick_math

_log = logging.getLogger(__name__)

ENV_VAR = "REPRO_BACKEND"
VALID_BACKENDS = ("pure", "compiled")

#: What the environment asked for (before any fallback).
requested_backend: str = (
    os.environ.get(ENV_VAR, "pure").strip().lower() or "pure"
)
if requested_backend not in VALID_BACKENDS:
    raise ValueError(
        f"{ENV_VAR} must be one of {VALID_BACKENDS}, "
        f"got {requested_backend!r}"
    )

_ext = None
if requested_backend == "compiled":
    try:
        from repro import _compiled as _ext  # type: ignore[no-redef]
    except ImportError:
        _log.warning(
            "REPRO_BACKEND=compiled but the repro._compiled extension is "
            "not built; falling back to the pure backend (build it with "
            "`pip install -e .[compiled]` or "
            "`python setup.py build_ext --inplace`)"
        )
    else:
        # The extension delegates every out-of-domain or error-path call
        # to these pure implementations, which keeps exception types and
        # messages identical by construction.
        _ext._install(
            {
                "mul_div": fixed_point.mul_div,
                "mul_div_rounding_up": fixed_point.mul_div_rounding_up,
                "div_rounding_up": fixed_point.div_rounding_up,
                "get_amount0_delta": sqrt_price_math.get_amount0_delta,
                "get_amount1_delta": sqrt_price_math.get_amount1_delta,
                "get_next_sqrt_price_from_input": (
                    sqrt_price_math.get_next_sqrt_price_from_input
                ),
                "get_next_sqrt_price_from_output": (
                    sqrt_price_math.get_next_sqrt_price_from_output
                ),
                "compute_swap_step_values": (
                    swap_math.compute_swap_step_values
                ),
                "get_sqrt_ratio_at_tick": tick_math.get_sqrt_ratio_at_tick,
                "get_tick_at_sqrt_ratio": tick_math.get_tick_at_sqrt_ratio,
            }
        )

#: The backend actually in effect after any fallback.
active_backend_name: str = "compiled" if _ext is not None else "pure"


def active_backend() -> str:
    """Return the backend in effect: ``"pure"`` or ``"compiled"``."""
    return active_backend_name


def backend_fell_back() -> bool:
    """True when ``compiled`` was requested but the extension is absent."""
    return requested_backend == "compiled" and _ext is None


# --------------------------------------------------------------------
# Backend-independent constants and helpers (always the pure objects).
# --------------------------------------------------------------------

Q96 = fixed_point.Q96
Q128 = fixed_point.Q128
MAX_UINT128 = fixed_point.MAX_UINT128
MAX_UINT160 = fixed_point.MAX_UINT160
MAX_UINT256 = fixed_point.MAX_UINT256
isqrt = fixed_point.isqrt
encode_price_sqrt = fixed_point.encode_price_sqrt

MIN_TICK = tick_math.MIN_TICK
MAX_TICK = tick_math.MAX_TICK
MIN_SQRT_RATIO = tick_math.MIN_SQRT_RATIO
MAX_SQRT_RATIO = tick_math.MAX_SQRT_RATIO
check_tick = tick_math.check_tick
check_tick_range = tick_math.check_tick_range

FEE_PIPS_DENOMINATOR = swap_math.FEE_PIPS_DENOMINATOR
SwapStep = swap_math.SwapStep

# --------------------------------------------------------------------
# Dispatched functions (bound once; hot loops alias these directly).
# --------------------------------------------------------------------

if _ext is not None:
    mul_div = _ext.mul_div
    mul_div_rounding_up = _ext.mul_div_rounding_up
    div_rounding_up = _ext.div_rounding_up
    get_amount0_delta = _ext.get_amount0_delta
    get_amount1_delta = _ext.get_amount1_delta
    get_next_sqrt_price_from_input = _ext.get_next_sqrt_price_from_input
    get_next_sqrt_price_from_output = _ext.get_next_sqrt_price_from_output
    compute_swap_step_values = _ext.compute_swap_step_values
    get_sqrt_ratio_at_tick = _ext.get_sqrt_ratio_at_tick
    get_tick_at_sqrt_ratio = _ext.get_tick_at_sqrt_ratio
    # The compiled forward function is cache-fronted and cheap enough to
    # serve as the "unchecked" variant too (its bounds check is native).
    sqrt_ratio_at_tick_unchecked = _ext.get_sqrt_ratio_at_tick
else:
    mul_div = fixed_point.mul_div
    mul_div_rounding_up = fixed_point.mul_div_rounding_up
    div_rounding_up = fixed_point.div_rounding_up
    get_amount0_delta = sqrt_price_math.get_amount0_delta
    get_amount1_delta = sqrt_price_math.get_amount1_delta
    get_next_sqrt_price_from_input = sqrt_price_math.get_next_sqrt_price_from_input
    get_next_sqrt_price_from_output = sqrt_price_math.get_next_sqrt_price_from_output
    compute_swap_step_values = swap_math.compute_swap_step_values
    get_sqrt_ratio_at_tick = tick_math.get_sqrt_ratio_at_tick
    get_tick_at_sqrt_ratio = tick_math.get_tick_at_sqrt_ratio
    sqrt_ratio_at_tick_unchecked = tick_math._sqrt_ratio_at_tick


def compute_swap_step(
    sqrt_price_current_x96: int,
    sqrt_price_target_x96: int,
    liquidity: int,
    amount_remaining: int,
    fee_pips: int,
) -> swap_math.SwapStep:
    """Dispatched :func:`repro.amm.swap_math.compute_swap_step`."""
    return swap_math.SwapStep(
        *compute_swap_step_values(
            sqrt_price_current_x96,
            sqrt_price_target_x96,
            liquidity,
            amount_remaining,
            fee_pips,
        )
    )


def get_amount0_delta_signed(
    sqrt_ratio_a_x96: int, sqrt_ratio_b_x96: int, liquidity: int
) -> int:
    """Signed token0 delta routed through the dispatched unsigned delta."""
    if liquidity < 0:
        return -get_amount0_delta(
            sqrt_ratio_a_x96, sqrt_ratio_b_x96, -liquidity, round_up=False
        )
    return get_amount0_delta(
        sqrt_ratio_a_x96, sqrt_ratio_b_x96, liquidity, round_up=True
    )


def get_amount1_delta_signed(
    sqrt_ratio_a_x96: int, sqrt_ratio_b_x96: int, liquidity: int
) -> int:
    """Signed token1 delta routed through the dispatched unsigned delta."""
    if liquidity < 0:
        return -get_amount1_delta(
            sqrt_ratio_a_x96, sqrt_ratio_b_x96, -liquidity, round_up=False
        )
    return get_amount1_delta(
        sqrt_ratio_a_x96, sqrt_ratio_b_x96, liquidity, round_up=True
    )


def resolve_keccak256(
    pure_keccak256: Callable[..., bytes],
    pure_to_bytes: Callable[[object], bytes],
) -> Callable[..., bytes]:
    """Return the dispatched keccak256 for :mod:`repro.crypto.hashing`.

    Called by ``hashing.py`` at its own import time (the crypto layer
    imports this module, so the keccak fallbacks cannot be installed in
    the module-level ``_install`` above without creating a cycle).
    """
    if _ext is None:
        return pure_keccak256
    _ext._install(
        {"keccak256": pure_keccak256, "to_bytes": pure_to_bytes}
    )
    return _ext.keccak256
