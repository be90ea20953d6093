"""Shamir secret sharing over a prime field.

Used by the DKG to share the committee signing key with threshold
``2f + 2`` (Section IV-C's TSQC authentication).

Both directions are linear in the committee (see ``README.md`` in this
package for the operation counts): dealing draws the shares themselves
and interpolates the rest over consecutive nodes, and reconstruction —
in the field here, in the exponent in :mod:`repro.crypto.bls` — is a dot
product with the one vector :func:`lagrange_at_zero` returns.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import overload

from repro.errors import ThresholdError


@dataclass(frozen=True)
class Share:
    """One party's share: the evaluation ``(x, y)`` of the secret polynomial."""

    x: int
    y: int


def _batch_inverse(values: list[int], modulus: int) -> list[int]:
    """Invert every (non-zero) value with one modular inversion
    (Montgomery's trick: invert the running product, then peel it)."""
    prefix = [1] * (len(values) + 1)
    for i, value in enumerate(values):
        prefix[i + 1] = prefix[i] * value % modulus
    inverse = pow(prefix[-1], -1, modulus)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = prefix[i] * inverse % modulus
        inverse = inverse * values[i] % modulus
    return out


def _factorial_denominators(count: int, modulus: int) -> list[int]:
    """``Π_{k≠j} (j - k)`` for ``j, k`` in ``0..count-1``, i.e.
    ``(-1)^(count-1-j) · j! · (count-1-j)!`` — the Lagrange denominators
    of any run of ``count`` consecutive integers."""
    fact = [1] * count
    for k in range(1, count):
        fact[k] = fact[k - 1] * k % modulus
    return [
        (-1 if (count - 1 - j) & 1 else 1) * fact[j] * fact[count - 1 - j] % modulus
        for j in range(count)
    ]


@lru_cache(maxsize=8)
def _dealing_tables(
    threshold: int, num_shares: int, modulus: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """What value-form dealing needs that depends on the shape only.

    For the consecutive nodes ``0..t-1``: the barycentric weights
    ``w_j = 1 / Π_{k≠j} (j - k)`` in *descending* ``j`` (so they line up
    with an ascending slice of inverses), ``inverses[d] = 1/d`` for ``d``
    in ``1..n``, and ``ell[x - t] = Π_k (x - k)`` for ``x`` in ``t..n``:
    ``2n + 2`` field elements, < 100 KB at n = 500.
    """
    weights = _batch_inverse(_factorial_denominators(threshold, modulus), modulus)
    weights.reverse()
    inverses = [0] + _batch_inverse(list(range(1, num_shares + 1)), modulus)
    acc = 1
    for k in range(1, threshold + 1):
        acc = acc * k % modulus
    ell = [acc]
    for x in range(threshold + 1, num_shares + 1):
        # ell(x) = x! / (x - t)!, stepped from ell(x - 1).
        acc = acc * x % modulus * inverses[x - threshold] % modulus
        ell.append(acc)
    return tuple(weights), tuple(inverses), tuple(ell)


class DealtShares(Sequence[Share]):
    """The ``num_shares`` shares of one value-form dealing, each built on
    first read and then kept.

    Shares ``1..t-1`` are the draws themselves; share ``x >= t`` is the
    barycentric interpolation ``ell(x) · Σ_j y_j w_j / (x - j)`` over the
    nodes ``0..t-1`` — ``t`` multiplies and two reductions, paid only by
    the shares somebody reads.  A committee signs with its first ``t``
    members, so an epoch interpolates one share instead of ``n - t + 1``.
    Slices return lists.
    """

    __slots__ = ("_values", "_weighted", "_shares", "_modulus")

    def __init__(self, values: list[int], num_shares: int, modulus: int) -> None:
        threshold = len(values)
        weights, _, _ = _dealing_tables(threshold, num_shares, modulus)
        self._values = values
        self._weighted = [y * w % modulus for y, w in zip(reversed(values), weights)]
        self._shares: list[Share | None] = [None] * num_shares
        self._modulus = modulus

    def __len__(self) -> int:
        return len(self._shares)

    @overload
    def __getitem__(self, index: int) -> Share: ...

    @overload
    def __getitem__(self, index: slice) -> list[Share]: ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._shares)))]
        share = self._shares[index]
        if share is None:
            x = index % len(self._shares) + 1
            share = self._shares[x - 1] = Share(
                x=x, y=self._values[x] if x < len(self._values) else self._interpolate(x)
            )
        return share

    def _interpolate(self, x: int) -> int:
        """``f(x)`` for ``x >= t``; ``j`` descending is ``x - j`` ascending."""
        threshold, modulus = len(self._values), self._modulus
        _, inverses, ell = _dealing_tables(threshold, len(self._shares), modulus)
        total = sum(map(mul, self._weighted, inverses[x - threshold + 1 : x + 1]))
        return total % modulus * ell[x - threshold] % modulus


def split_secret(
    secret: int, threshold: int, num_shares: int, modulus: int, rng
) -> DealtShares:
    """Split ``secret`` into ``num_shares`` shares, any ``threshold`` of
    which reconstruct it.

    Dealt in value form: the ``threshold - 1`` draws from ``rng`` (a
    :class:`~repro.simulation.rng.DeterministicRng` in simulations) *are*
    shares ``1..threshold-1``; with the secret at 0 they fix a uniformly
    random polynomial of degree ``threshold - 1``, and shares
    ``threshold..num_shares`` are its barycentric interpolation over the
    nodes ``0..threshold-1``.  Same distribution as drawing coefficients,
    one multiply per (share, node) instead of a Horner step.

    Every draw happens here, in order; the interpolation does not: the
    returned :class:`DealtShares` computes a share when it is first read.
    """
    if not (1 <= threshold <= num_shares < modulus):
        raise ThresholdError(
            f"need 1 <= threshold <= num_shares < modulus, got {threshold}/{num_shares}"
        )
    if not (0 <= secret < modulus):
        raise ThresholdError("secret must lie in the field")
    values = [secret] + [rng.randint(0, modulus - 1) for _ in range(threshold - 1)]
    return DealtShares(values, num_shares, modulus)


@lru_cache(maxsize=8)
def lagrange_at_zero(xs: tuple[int, ...], modulus: int) -> tuple[int, ...]:
    """All Lagrange basis coefficients of the points ``xs`` evaluated at 0.

    ``Σ λ_i · f(x_i) = f(0)`` for every polynomial of degree below
    ``len(xs)``.  Numerators come from prefix/suffix products of ``-x_j``,
    denominators from the factorial closed form when ``xs`` is a run of
    consecutive integers (a committee's first ``t`` members hold
    ``1..t``) and from the pairwise products otherwise; one inversion
    either way.  Memoised: a committee signs with the same set every time.
    """
    count = len(xs)
    reduced = [x % modulus for x in xs]
    if 0 in reduced:
        raise ThresholdError("share index 0 (mod the field order) would expose the secret")
    if len(set(reduced)) != count:
        raise ThresholdError("duplicate share indices")
    if count == 0:
        return ()
    if xs == tuple(range(xs[0], xs[0] + count)):
        denominators = _factorial_denominators(count, modulus)
    else:
        denominators = []
        for xi in reduced:
            den = 1
            for xj in reduced:
                if xj != xi:
                    den = den * (xi - xj) % modulus
            denominators.append(den)
    # numerator_i = Π_{j≠i} (0 - x_j) = below_i · above_i
    above = [1] * count
    for i in range(count - 1, 0, -1):
        above[i - 1] = above[i] * -reduced[i] % modulus
    coefficients = []
    below = 1
    for i, inverse in enumerate(_batch_inverse(denominators, modulus)):
        coefficients.append(below * above[i] % modulus * inverse % modulus)
        below = below * -reduced[i] % modulus
    return tuple(coefficients)


def reconstruct_secret(shares: list[Share], modulus: int) -> int:
    """Reconstruct the secret from at least ``threshold`` distinct shares."""
    if not shares:
        raise ThresholdError("no shares supplied")
    coefficients = lagrange_at_zero(tuple(s.x for s in shares), modulus)
    return sum(map(mul, coefficients, [s.y for s in shares])) % modulus
