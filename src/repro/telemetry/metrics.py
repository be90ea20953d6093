"""Deterministic streaming percentiles.

:class:`LogHistogram` is a fixed-bucket log-scale histogram.  Bucket
edges are derived from the floating-point exponent and mantissa via
``math.frexp`` — exact bit operations, never ``math.log`` — so the same
value lands in the same bucket on every platform and libm.  Merging
histograms adds bucket counts, which is order-invariant: merging shard 0
then shard 1 equals the reverse, and ``--jobs 1`` equals ``--jobs 4``.
"""

from __future__ import annotations

import math

__all__ = ["LogHistogram", "SUBBUCKETS"]

#: Sub-buckets per power of two.  8 gives ~9% relative bucket width,
#: tight enough that p50/p99 land within a few percent of exact.
SUBBUCKETS = 8


def _bucket_index(value: float) -> int:
    """Map a positive value to its log-scale bucket (exact bit math)."""
    mantissa, exponent = math.frexp(value)  # value = m * 2**e, m in [0.5, 1)
    return exponent * SUBBUCKETS + int((mantissa - 0.5) * 2 * SUBBUCKETS)


def _bucket_midpoint(index: int) -> float:
    """Midpoint of the bucket's value range (inverse of _bucket_index)."""
    exponent, sub = divmod(index, SUBBUCKETS)
    lo = math.ldexp(0.5 + sub / (2 * SUBBUCKETS), exponent)
    hi = math.ldexp(0.5 + (sub + 1) / (2 * SUBBUCKETS), exponent)
    return (lo + hi) / 2.0


class LogHistogram:
    """Streaming histogram with deterministic, merge-stable quantiles."""

    __slots__ = ("buckets", "zero_count", "count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None

    def record(self, value: float) -> None:
        """Add one value; NaN and ±inf raise ``ValueError`` untouched."""
        self.record_run(value, 1)

    def record_run(self, value: float, n: int) -> None:
        """Add ``value`` ``n`` times: the same state, bit for bit, as ``n``
        calls to :meth:`record` (``total`` takes ``n`` separate additions,
        since ``n * value`` can round differently).

        A non-finite value raises ``ValueError`` before anything changes,
        so a refused value never reaches ``summary()``'s strict JSON.
        """
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"cannot record a non-finite value: {value}")
        if n <= 0:
            return
        self.count += n
        total = self.total
        for _ in range(n):
            total += value
        self.total = total
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        if value <= 0.0:
            self.zero_count += n
            return
        index = _bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + n

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile, reported at the bucket midpoint.

        Returns 0.0 for an empty histogram.  Deterministic across
        merge orders because it only reads the (summed) bucket counts.
        """
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        if rank <= self.zero_count:
            return 0.0
        seen = self.zero_count
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                return _bucket_midpoint(index)
        return self.maximum if self.maximum is not None else 0.0

    def merge(self, other: "LogHistogram") -> None:
        """Fold another histogram in (bucket-count addition; commutative)."""
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count
        self.zero_count += other.zero_count
        self.count += other.count
        self.total += other.total
        if other.minimum is not None and (
            self.minimum is None or other.minimum < self.minimum
        ):
            self.minimum = other.minimum
        if other.maximum is not None and (
            self.maximum is None or other.maximum > self.maximum
        ):
            self.maximum = other.maximum

    def summary(self) -> dict[str, float | int]:
        """JSON-safe summary (strict JSON: no NaN/Infinity values)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum if self.minimum is not None else 0.0,
            "max": self.maximum if self.maximum is not None else 0.0,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }
