"""Cross-fidelity calibration: message-level timings → timing model.

The default :class:`~repro.sidechain.timing.AgreementTimeModel` is fitted
to the paper's Table XII (measured on an 8-hypervisor cluster where CoSi
bandwidth contention dominates).  This module is the measurement
pipeline for the *message-level* engine instead: run real PBFT instances
across committee sizes, collect the simulated agreement times, and fit a
model to them.

The two models answer different questions — the paper-calibrated one
predicts the authors' testbed, the measured one characterises the
simulated network (whose delays do not include bandwidth contention, so
its absolute times are smaller and flatter).
``test_sidechain_calibration.py`` asserts both are monotone and that the
pipeline is deterministic; ``test_faults_pbft.py`` checks the epoch
layer's view-change charge against it where the sizes overlap.
"""

from __future__ import annotations

from repro import constants
from repro.crypto.keys import generate_keypair
from repro.sidechain.pbft import PbftConfig, PbftRound
from repro.sidechain.timing import AgreementTimeModel
from repro.simulation.events import EventScheduler
from repro.simulation.network import Network, NetworkConfig
from repro.simulation.rng import DeterministicRng

#: Modelled per-vote handling time at a receiver (signature verification
#: plus queueing), seconds.  With n-1 inbound votes per phase this gives
#: the O(n) per-node load that makes large committees slower, the effect
#: Table XII measures.
PER_VOTE_COST = 0.004


def measure_agreement_time(
    committee_size: int,
    seed: int = 0,
    runs: int = 3,
    per_vote_cost: float = PER_VOTE_COST,
) -> float:
    """Mean simulated seconds for one message-level agreement."""
    members = [f"m{i}" for i in range(committee_size)]
    keypairs = {m: generate_keypair(f"{seed}/{m}") for m in members}
    quorum = constants.committee_quorum(committee_size)
    total = 0.0
    for run in range(runs):
        scheduler = EventScheduler()
        rng = DeterministicRng(f"{seed}/{run}")
        load_delay = per_vote_cost * committee_size
        network = Network(
            scheduler,
            rng,
            NetworkConfig(
                base_delay=0.05,
                jitter=0.05,
                delta_bound=max(1.0, 2 * load_delay + 0.2),
            ),
        )
        # Vote fan-in: every message waits behind ~n/2 others at its
        # receiver on average.
        network.set_adversary_delay(lambda msg: load_delay / 2)
        pbft = PbftRound(
            PbftConfig(members=members, quorum=quorum, view_timeout=60.0),
            network,
            scheduler,
            keypairs,
            proposer_fn=lambda view: {"block": view},
            validator=lambda p: isinstance(p, dict),
        )
        outcome = pbft.run_to_completion(max_time=300.0)
        if not outcome.decided:
            raise RuntimeError(f"agreement failed at size {committee_size}")
        total += outcome.decided_at
    return total / runs


def calibrate_from_measurements(
    sizes: tuple[int, ...] = (5, 8, 11, 17, 23),
    seed: int = 0,
    runs: int = 2,
) -> AgreementTimeModel:
    """Fit an :class:`AgreementTimeModel` to message-level measurements."""
    points = {
        size: measure_agreement_time(size, seed=seed, runs=runs)
        for size in sizes
    }
    return AgreementTimeModel(calibration=points)
