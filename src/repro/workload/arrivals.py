"""Arrival processes: how many transactions arrive each round.

The paper's workload is a constant-rate process — ``rho`` transactions at
every round start (:func:`repro.workload.generator.arrival_rate_per_round`).
The scenario engine generalises this to pluggable *arrival processes* so
experiments can exercise traffic shapes the monolithic loop made awkward:

* :class:`ConstantArrivals` — the paper's process (the system default;
  behaviour is bit-identical to the pre-scenario-engine loop);
* :class:`BurstyArrivals` — an on/off process where a deterministic
  fraction of rounds carry a multiple of the base rate (mempool bursts,
  NFT-mint-style spikes) while quiet rounds are scaled down so the mean
  rate is conserved;
* :class:`DiurnalArrivals` — a sinusoidal day/night modulation of the
  base rate (Uniswap's real diurnal cycle).

Every process is a pure function of ``(base rate, round index, sim time)``
plus its own configuration, so runs are reproducible regardless of worker
process or evaluation order — the property the parallel
:class:`~repro.scenarios.runner.ScenarioRunner` relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.simulation.rng import first_random


class ArrivalProcess:
    """Interface: per-round transaction counts derived from a base rate."""

    def rate_for_round(self, base_rate: int, round_index: int, now: float) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantArrivals(ArrivalProcess):
    """The paper's constant-rate process: every round receives ``rho``."""

    def rate_for_round(self, base_rate: int, round_index: int, now: float) -> int:
        return base_rate


@dataclass(frozen=True)
class BurstyArrivals(ArrivalProcess):
    """On/off bursts: some rounds spike, the rest are quiet.

    A round bursts with probability ``burst_fraction`` (decided by a
    deterministic per-round coin derived from ``seed`` and the round
    index, so the pattern is stable across processes and runs).  Burst
    rounds carry ``burst_factor`` times the base rate; quiet rounds are
    scaled down so the long-run mean stays at the base rate whenever
    ``burst_fraction * burst_factor <= 1``.
    """

    burst_factor: float = 4.0
    burst_fraction: float = 0.2
    seed: int | str = 0

    def __post_init__(self) -> None:
        if self.burst_factor < 1.0:
            raise ConfigurationError("burst_factor must be >= 1")
        if not 0.0 < self.burst_fraction < 1.0:
            raise ConfigurationError("burst_fraction must be in (0, 1)")

    @property
    def quiet_factor(self) -> float:
        """Quiet-round multiplier conserving the mean rate (floored at 0)."""
        spare = 1.0 - self.burst_fraction * self.burst_factor
        return max(0.0, spare / (1.0 - self.burst_fraction))

    def is_burst_round(self, round_index: int) -> bool:
        return first_random(f"{self.seed}/burst/{round_index}") < self.burst_fraction

    def rate_for_round(self, base_rate: int, round_index: int, now: float) -> int:
        if base_rate <= 0:
            return 0
        if self.is_burst_round(round_index):
            return math.ceil(base_rate * self.burst_factor)
        return max(0, round(base_rate * self.quiet_factor))


@dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """Sinusoidal daily modulation: rate(t) = base * (1 + A sin(2πt/T)).

    ``amplitude`` in [0, 1] sets the peak-to-mean swing; ``period`` is a
    day of simulated time by default; ``phase`` shifts where the peak
    falls.  The integral over a whole period equals the constant process,
    so daily volume is conserved.
    """

    amplitude: float = 0.5
    period: float = 86_400.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.amplitude <= 1.0:
            raise ConfigurationError("amplitude must be in [0, 1]")
        if self.period <= 0:
            raise ConfigurationError("period must be positive")

    def rate_for_round(self, base_rate: int, round_index: int, now: float) -> int:
        if base_rate <= 0:
            return 0
        factor = 1.0 + self.amplitude * math.sin(
            2.0 * math.pi * (now - self.phase) / self.period
        )
        return max(0, round(base_rate * factor))
