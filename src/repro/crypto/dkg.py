"""Distributed key generation for the epoch committee.

Section IV-C: committee ``e + 1`` runs a DKG during epoch ``e`` to produce a
shared verification key ``vk_c`` plus per-member signing shares with
threshold ``2f + 2``.  We implement a Pedersen-style DKG: every member
deals a Shamir sharing of a random contribution; each member's final share
is the sum of the dealt sub-shares; the group key is the product (sum in
the exponent) of the contributions.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass

from repro.crypto.groups import G2Element, PairingGroup
from repro.crypto.shamir import Share, split_secret
from repro.errors import ThresholdError


@dataclass
class DkgResult:
    """Outcome of a DKG run.

    ``group_vk`` is the committee verification key recorded on TokenBank;
    ``shares[i]`` is member ``i``'s signing share (1-indexed x coordinates)
    — from :func:`simulate_dkg` a lazy sequence that computes a share when
    it is first read.  The underlying group secret is never materialised
    by honest parties; ``_group_sk`` is retained only so tests can assert
    correctness.
    """

    group_vk: G2Element
    shares: Sequence[Share]
    threshold: int
    _group_sk: int

    @property
    def num_members(self) -> int:
        return len(self.shares)

    def member_shares(self, members: Sequence[str]) -> Mapping[str, Share]:
        """``{members[i]: shares[i]}``, each share read only when its
        member's is: a quorum's signatures never force the others."""
        return _MemberShares(members, self.shares)


class _MemberShares(Mapping[str, Share]):
    """Member → index → share, resolved on every read."""

    __slots__ = ("_index", "_shares")

    def __init__(self, members: Sequence[str], shares: Sequence[Share]) -> None:
        self._index = {member: i for i, member in enumerate(members)}
        self._shares = shares

    def __getitem__(self, member: str) -> Share:
        return self._shares[self._index[member]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


def run_dkg(num_members: int, threshold: int, rng) -> DkgResult:
    """Run a Pedersen-style DKG among ``num_members`` honest dealers.

    Byzantine members of the real protocol can at worst refuse to deal (they
    are excluded by complaint rounds); the resulting key is still uniformly
    random as long as one dealer is honest, so simulating the all-honest
    run preserves the protocol-visible outcome.
    """
    if not (1 <= threshold <= num_members):
        raise ThresholdError(
            f"need 1 <= threshold <= members, got {threshold}/{num_members}"
        )
    order = PairingGroup.ORDER
    accumulated = [0] * num_members
    group_sk = 0
    for _dealer in range(num_members):
        contribution = rng.randint(0, order - 1)
        group_sk = (group_sk + contribution) % order
        dealt = split_secret(contribution, threshold, num_members, order, rng)
        for i, sub_share in enumerate(dealt):
            accumulated[i] = (accumulated[i] + sub_share.y) % order
    shares = [Share(x=i + 1, y=y) for i, y in enumerate(accumulated)]
    group_vk = PairingGroup.G2 * group_sk
    return DkgResult(
        group_vk=group_vk, shares=shares, threshold=threshold, _group_sk=group_sk
    )


def simulate_dkg(num_members: int, threshold: int, rng) -> DkgResult:
    """Distribution-equivalent fast path for large committees.

    :func:`run_dkg` costs ``O(n^2 * t)`` field operations (every member
    deals a sharing), which is prohibitive for 500-member epoch committees
    simulated every epoch.  The *output* of the DKG, however, is exactly a
    uniformly random secret shared with a degree-``t-1`` polynomial — so we
    sample the secret and deal one sharing directly.  Tests assert the two
    paths produce interchangeable results.

    Costs the ``t`` draws and ``t`` multiplies: ``shares`` is the lazy
    :class:`~repro.crypto.shamir.DealtShares`, so a share past the draws
    is interpolated by whoever first reads it (the signing quorum reads
    exactly one, ``x = t``).
    """
    if not (1 <= threshold <= num_members):
        raise ThresholdError(
            f"need 1 <= threshold <= members, got {threshold}/{num_members}"
        )
    order = PairingGroup.ORDER
    group_sk = rng.randint(0, order - 1)
    shares = split_secret(group_sk, threshold, num_members, order, rng)
    return DkgResult(
        group_vk=PairingGroup.G2 * group_sk,
        shares=shares,
        threshold=threshold,
        _group_sk=group_sk,
    )
