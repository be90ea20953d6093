"""The AMM user population: clients and liquidity providers.

Users are identified by Schnorr-keypair addresses (Section III's
PartySetup).  The population tracks which liquidity positions each user
owns so burns and collects can target real positions, mirroring how the
paper's traffic generator drives a live deployment.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from repro.crypto.keys import KeyPair, generate_keypair


class PositionIds:
    """The ids of the positions one user owns, kept sorted.

    The generator draws burn, collect and top-up targets with
    ``rng.choice`` over the sorted ids, so keeping them sorted as they
    change replaces a sort per draw.  When the set gains its first id or
    loses its last, it tells its ``watcher`` (the population's owner
    list) ``owner_changed(key, owns)``.
    """

    __slots__ = ("_ids", "_watcher", "_key")

    def __init__(self, watcher: "UserPopulation | None" = None, key: int = 0) -> None:
        self._ids: list[str] = []
        self._watcher = watcher
        self._key = key

    def add(self, position_id: str) -> None:
        ids = self._ids
        i = bisect_left(ids, position_id)
        if i < len(ids) and ids[i] == position_id:
            return
        ids.insert(i, position_id)
        if len(ids) == 1 and self._watcher is not None:
            self._watcher.owner_changed(self._key, True)

    def discard(self, position_id: str) -> None:
        ids = self._ids
        i = bisect_left(ids, position_id)
        if i == len(ids) or ids[i] != position_id:
            return
        del ids[i]
        if not ids and self._watcher is not None:
            self._watcher.owner_changed(self._key, False)

    def __contains__(self, position_id: object) -> bool:
        ids = self._ids
        i = bisect_left(ids, position_id)
        return i < len(ids) and ids[i] == position_id

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index: int) -> str:
        return self._ids[index]

    def __repr__(self) -> str:
        return f"PositionIds({self._ids!r})"


@dataclass
class User:
    """One AMM participant (client and/or LP)."""

    name: str
    keypair: KeyPair
    positions: PositionIds = field(default_factory=PositionIds)

    @property
    def address(self) -> str:
        return self.keypair.address


class UserPopulation:
    """A fixed set of users generating the AMM's traffic."""

    def __init__(self, num_users: int, seed: int = 0) -> None:
        if num_users < 1:
            raise ValueError(f"need at least one user, got {num_users}")
        self.users: list[User] = []
        self._by_address: dict[str, User] = {}
        #: Users owning at least one position, in population order, and
        #: their indexes in ``users`` (kept by ``owner_changed``).
        self._owners: list[User] = []
        self._owner_indexes: list[int] = []
        for i in range(num_users):
            user = User(
                name=f"user{i}",
                keypair=generate_keypair(f"{seed}/user{i}"),
                positions=PositionIds(self, i),
            )
            self.users.append(user)
            self._by_address[user.address] = user

    def __len__(self) -> int:
        return len(self.users)

    @property
    def addresses(self) -> list[str]:
        return [u.address for u in self.users]

    def by_address(self, address: str) -> User:
        return self._by_address[address]

    def pick_lp_with_position(self, rng) -> User | None:
        """A user owning at least one position, or None if nobody does."""
        if not self._owners:
            return None
        return rng.choice(self._owners)

    def owner_changed(self, index: int, owns: bool) -> None:
        """``users[index]`` gained its first position or lost its last."""
        at = bisect_left(self._owner_indexes, index)
        if owns:
            self._owner_indexes.insert(at, index)
            self._owners.insert(at, self.users[index])
        else:
            del self._owner_indexes[at]
            del self._owners[at]

    # -- position ownership feedback from the executor ------------------------

    def on_position_created(self, address: str, position_id: str) -> None:
        user = self._by_address.get(address)
        if user is not None:
            user.positions.add(position_id)

    def on_position_deleted(self, address: str, position_id: str) -> None:
        user = self._by_address.get(address)
        if user is not None:
            user.positions.discard(position_id)
