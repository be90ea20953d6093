"""Seeded randomness helpers.

Every stochastic component takes a :class:`DeterministicRng` (or derives a
child from one) so whole experiments are reproducible from a single seed.
"""

from __future__ import annotations

import hashlib
import random
from _random import Random as _CRandom


class DeterministicRng:
    """A seeded wrapper around :class:`random.Random` with child derivation.

    ``child(label)`` derives an independent stream from the parent seed and
    a label, so components do not perturb each other's sequences when code
    paths change.
    """

    def __init__(self, seed: int | str = 0) -> None:
        self.seed = seed
        self._random = random.Random(self._mix(seed))

    @staticmethod
    def _mix(seed: int | str) -> int:
        digest = hashlib.sha256(str(seed).encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def child(self, label: str) -> "DeterministicRng":
        """Derive an independent RNG for a named sub-component."""
        return DeterministicRng(f"{self.seed}/{label}")

    @property
    def stream(self) -> random.Random:
        """The underlying :class:`random.Random`.

        For hot loops that bind its methods once; they draw exactly what
        the pass-throughs below draw.
        """
        return self._random

    # -- thin pass-throughs -------------------------------------------------

    def random(self) -> float:
        return self._random.random()

    def uniform(self, lo: float, hi: float) -> float:
        return self._random.uniform(lo, hi)

    def randint(self, lo: int, hi: int) -> int:
        return self._random.randint(lo, hi)

    def randbits(self, k: int) -> int:
        return self._random.getrandbits(k)

    def choice(self, seq):
        return self._random.choice(seq)

    def choices(self, population, weights=None, k=1):
        return self._random.choices(population, weights=weights, k=k)

    def sample(self, population, k):
        return self._random.sample(population, k)

    def shuffle(self, seq) -> None:
        self._random.shuffle(seq)

    def expovariate(self, lambd: float) -> float:
        return self._random.expovariate(lambd)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._random.gauss(mu, sigma)


#: The one generator :func:`first_random` reseeds on every call.
_SCRATCH = random.Random(0)


def first_random(seed: int | str) -> float:
    """``DeterministicRng(seed).random()`` without building the wrapper.

    For one-draw coins on hot paths.  It reseeds one module-level scratch
    generator with the same :meth:`DeterministicRng._mix` through the
    C-level ``seed``: for an int, :class:`random.Random`'s Python-level
    ``seed`` adds nothing that ``random()`` reads.  Every call reseeds,
    so no value depends on call order.  The scratch state is shared, so
    do not call this from concurrent threads.
    """
    _CRandom.seed(_SCRATCH, DeterministicRng._mix(seed))
    return _SCRATCH.random()
