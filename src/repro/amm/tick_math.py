"""Tick math: conversions between tick indices and Q64.96 sqrt prices.

``get_sqrt_ratio_at_tick`` is a direct port of Uniswap V3's ``TickMath.sol``
(the magic-constant ladder computes ``sqrt(1.0001^tick) * 2^96`` exactly),
fronted by a bounded memo cache since swaps revisit the same tick
boundaries constantly.  ``get_tick_at_sqrt_ratio`` is the log₂
bit-twiddling port from the same library; ``tests/swap_oracle.py`` keeps
the binary search over the forward function — exact by construction — and
the test suite proves the two agree across the whole tick range.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import TickError

#: Tick bounds: price range ~ [2^-128, 2^128].
MIN_TICK = -887272
MAX_TICK = 887272

#: sqrt ratios at the tick bounds (uint160 Q64.96).
MIN_SQRT_RATIO = 4295128739
MAX_SQRT_RATIO = 1461446703485210103287273052203988822378723970342

_MAX_UINT256 = (1 << 256) - 1

# (bit, multiplier) ladder from TickMath.sol.  Each multiplier is
# sqrt(1.0001)^(-bit) in Q128.128.
_TICK_STEPS = (
    (0x2, 0xFFF97272373D413259A46990580E213A),
    (0x4, 0xFFF2E50F5F656932EF12357CF3C7FDCC),
    (0x8, 0xFFE5CACA7E10E4E61C3624EAA0941CD0),
    (0x10, 0xFFCB9843D60F6159C9DB58835C926644),
    (0x20, 0xFF973B41FA98C081472E6896DFB254C0),
    (0x40, 0xFF2EA16466C96A3843EC78B326B52861),
    (0x80, 0xFE5DEE046A99A2A811C461F1969C3053),
    (0x100, 0xFCBE86C7900A88AEDCFFC83B479AA3A4),
    (0x200, 0xF987A7253AC413176F2B074CF7815E54),
    (0x400, 0xF3392B0822B70005940C7A398E4B70F3),
    (0x800, 0xE7159475A2C29B7443B29C7FA6E889D9),
    (0x1000, 0xD097F3BDFD2022B8845AD8F792AA5825),
    (0x2000, 0xA9F746462D870FDF8A65DC1F90E061E5),
    (0x4000, 0x70D869A156D2A1B890BB3DF62BAF32F7),
    (0x8000, 0x31BE135F97D08FD981231505542FCFA6),
    (0x10000, 0x9AA508B5B7A84E1C677DE54F3E99BC9),
    (0x20000, 0x5D6AF8DEDB81196699C329225EE604),
    (0x40000, 0x2216E584F5FA1EA926041BEDFE98),
    (0x80000, 0x48A170391F7DC42444E8FA2),
)

#: log₂(sqrt(1.0001)) reciprocal scaling constant (Q128 fixed point) and the
#: error bounds around the computed log, from TickMath.getTickAtSqrtRatio.
_LOG_SQRT10001_FACTOR = 255738958999603826347141
_TICK_LOW_ERROR = 3402992956809132418596140100660247210
_TICK_HI_ERROR = 291339464771989622907027621153398088495


def check_tick(tick: int) -> None:
    """Raise :class:`TickError` if ``tick`` is out of bounds."""
    if not (MIN_TICK <= tick <= MAX_TICK):
        raise TickError(f"tick {tick} outside [{MIN_TICK}, {MAX_TICK}]")


def check_tick_range(tick_lower: int, tick_upper: int) -> None:
    """Validate a position's price range."""
    check_tick(tick_lower)
    check_tick(tick_upper)
    if tick_lower >= tick_upper:
        raise TickError(f"tick_lower {tick_lower} must be below tick_upper {tick_upper}")


@lru_cache(maxsize=65536)
def _sqrt_ratio_at_tick(tick: int) -> int:
    abs_tick = -tick if tick < 0 else tick
    if abs_tick & 0x1:
        ratio = 0xFFFCB933BD6FAD37AA2D162D1A594001
    else:
        ratio = 0x100000000000000000000000000000000
    for bit, multiplier in _TICK_STEPS:
        if abs_tick & bit:
            ratio = (ratio * multiplier) >> 128
    if tick > 0:
        ratio = _MAX_UINT256 // ratio
    # Q128.128 -> Q64.96, rounding up.
    return (ratio >> 32) + (1 if ratio & 0xFFFFFFFF else 0)


def get_sqrt_ratio_at_tick(tick: int) -> int:
    """``sqrt(1.0001^tick) * 2^96`` as a Q64.96 integer (exact port)."""
    check_tick(tick)
    return _sqrt_ratio_at_tick(tick)


def get_tick_at_sqrt_ratio(sqrt_price_x96: int) -> int:
    """The greatest tick whose sqrt ratio is <= ``sqrt_price_x96``.

    Matches TickMath.getTickAtSqrtRatio's contract exactly, including the
    requirement that the input lie in ``[MIN_SQRT_RATIO, MAX_SQRT_RATIO)``.
    Direct port of the Solidity log₂ fixed-point computation: normalise the
    ratio to [2^127, 2^128), square repeatedly to extract 14 fractional
    bits of log₂, rescale to log_{sqrt(1.0001)}, then disambiguate the
    ±1-tick error window with a single forward evaluation.
    """
    if not (MIN_SQRT_RATIO <= sqrt_price_x96 < MAX_SQRT_RATIO):
        raise TickError(f"sqrt price {sqrt_price_x96} out of range")

    ratio = sqrt_price_x96 << 32
    msb = ratio.bit_length() - 1
    if msb >= 128:
        r = ratio >> (msb - 127)
    else:
        r = ratio << (127 - msb)

    # Python's arbitrary-precision ints use two's-complement semantics for
    # ``|`` and arithmetic ``>>`` on negatives, matching int256 exactly.
    log_2 = (msb - 128) << 64
    for shift in range(63, 49, -1):
        r = (r * r) >> 127
        f = r >> 128
        log_2 |= f << shift
        r >>= f

    log_sqrt10001 = log_2 * _LOG_SQRT10001_FACTOR
    tick_low = (log_sqrt10001 - _TICK_LOW_ERROR) >> 128
    tick_hi = (log_sqrt10001 + _TICK_HI_ERROR) >> 128
    if tick_low == tick_hi:
        return tick_low
    return tick_hi if _sqrt_ratio_at_tick(tick_hi) <= sqrt_price_x96 else tick_low

