"""Experiment runners — one per table/figure of the paper's evaluation.

Each ``run_*`` function executes the (optionally volume-scaled) experiment
and returns an :class:`ExperimentResult` whose rows mirror the paper's
table.  The scenario registry (``python -m repro.experiments``) runs
them and ``tests/golden/`` pins the rows the paper reports.
"""

from repro.experiments.common import ExperimentResult, scaled_ammboost_config
from repro.experiments.comparison import (
    run_figure5,
    run_table2_itemized_gas,
    run_table3_uniswap_gas,
    run_table4_storage,
)
from repro.experiments.scalability import run_table5_scalability, run_table6_rollup
from repro.experiments.parameters import (
    run_table8_block_size,
    run_table9_round_duration,
    run_table10_epoch_length,
    run_table11_traffic_mix,
    run_table12_committee_size,
)
from repro.experiments.traffic import run_table7_traffic_analysis

__all__ = [
    "ExperimentResult",
    "scaled_ammboost_config",
    "run_table2_itemized_gas",
    "run_table3_uniswap_gas",
    "run_table4_storage",
    "run_figure5",
    "run_table5_scalability",
    "run_table6_rollup",
    "run_table7_traffic_analysis",
    "run_table8_block_size",
    "run_table9_round_duration",
    "run_table10_epoch_length",
    "run_table11_traffic_mix",
    "run_table12_committee_size",
]
