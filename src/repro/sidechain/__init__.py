"""The ammBoost sidechain: PBFT consensus, sortition election, pruning.

Two fidelity levels share this package:

* the message-level PBFT engine (:mod:`repro.sidechain.pbft`) exercised by
  the test suite and small-committee timing runs, and
* the agreement-time model fitted to the paper's Table XII
  (:mod:`repro.sidechain.timing`) used by the epoch-level experiment
  harness for 500+-member committees.

``tests/pbft_calibration.py`` fits the same model to message-level runs,
so the two levels can be compared where committee sizes overlap.
"""

from repro.sidechain.blocks import MetaBlock, SummaryBlock
from repro.sidechain.chain import SidechainLedger
from repro.sidechain.election import Committee, ElectionProof, elect_committee
from repro.sidechain.pbft import ConsensusOutcome, PbftConfig, PbftRound
from repro.sidechain.timing import AgreementTimeModel

__all__ = [
    "MetaBlock",
    "SummaryBlock",
    "SidechainLedger",
    "Committee",
    "ElectionProof",
    "elect_committee",
    "ConsensusOutcome",
    "PbftConfig",
    "PbftRound",
    "AgreementTimeModel",
]
