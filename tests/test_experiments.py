"""Smoke + shape tests for every paper scenario (one per table/figure).

Shape assertions encode the paper's qualitative claims: who wins, by
roughly what factor, and where the crossovers fall.  Runs are scaled down
so the whole module stays fast.
"""

import pytest

from repro import constants
from repro.scenarios import ScenarioRunner
from repro.scenarios.paper import (
    figure5_spec,
    table2_spec,
    table3_spec,
    table4_spec,
    table5_spec,
    table6_spec,
    table7_spec,
    table8_spec,
    table9_spec,
    table10_spec,
    table11_spec,
    table12_spec,
)


def test_table2_constants_match_paper():
    result = ScenarioRunner().run(table2_spec())
    rows = result.row_dict()
    assert rows["Sync payout (per entry)"][1] == 15_771
    assert rows["Deposit (2 tokens, pipeline)"][1] == 105_392
    assert rows["Auth: pairing verify"][1] == 113_000
    # Deposits take multiple blocks; syncs confirm within ~one block.
    assert rows["MC latency: Deposit (s)"][1] > rows["MC latency: Sync (s)"][1]


def test_table3_gas_and_latency_shape():
    result = ScenarioRunner().run(table3_spec())
    rows = result.row_dict()
    assert rows["Mint"][1] == round(constants.GAS_UNISWAP_MINT)
    # Mint needs two approvals, swap one, burn/collect none.
    assert rows["Mint"][3] > rows["Swap"][3] > rows["Collect"][3]


def test_table4_sizes():
    result = ScenarioRunner().run(table4_spec())
    rows = result.row_dict()
    assert rows["Payout entry"][1:] == [352, 97]
    assert rows["Position entry"][1:] == [416, 215]
    assert rows["vk_c"][1] == 128
    assert rows["Signature"][1] == 64


def test_figure5_reductions():
    result = ScenarioRunner().run(
        figure5_spec(num_epochs=4, num_users=50, committee_size=20)
    )
    rows = result.row_dict()
    assert rows["Gas reduction %"][1] > 90
    assert rows["MC growth reduction % (vs Sepolia)"][1] > 85
    assert rows["MC growth reduction % (vs Ethereum)"][1] > 93


def test_table5_scalability_shape():
    result = ScenarioRunner().run(
        table5_spec(volumes=(50_000, 25_000_000), num_epochs=3)
    )
    rows = result.rows
    low, high = rows[0], rows[1]
    # Low volume: throughput tracks arrival; latency quasi-instant.
    assert low[1] < 1.0
    assert low[3] < 10
    # 500x volume: throughput near the 1MB/7s capacity bound; congestion.
    assert 100 < high[1] < 160
    assert high[3] > 50


def test_table6_rollup_comparison_shape():
    result = ScenarioRunner().run(table6_spec(num_epochs=3))
    rows = result.row_dict()
    op, amm = rows["ammOP"], rows["ammBoost"]
    assert amm[1] > 2 * op[1]  # ~2.7x throughput
    assert amm[3] < op[3]  # lower tx latency
    # >99.9% payout-finality reduction (the 7-day contestation).
    assert amm[5] < op[5] * 0.001


def test_table7_traffic_analysis():
    result = ScenarioRunner().run(table7_spec(sample_size=30_000))
    rows = result.row_dict()
    assert abs(rows["swap"][1] - 93.19) < 1.0
    assert abs(rows["mint"][1] - 2.14) < 0.6
    assert rows["swap"][4] == pytest.approx(1008, abs=1)


def test_table8_block_size_shape():
    result = ScenarioRunner().run(
        table8_spec(block_sizes=(500_000, 2_000_000), num_epochs=2)
    )
    rows = result.rows
    small, large = rows[0], rows[1]
    # Throughput scales ~linearly with block size (4x here).
    assert large[1] == pytest.approx(4 * small[1], rel=0.15)
    # Latency falls sharply with block size.
    assert small[3] > 2 * large[3]


def test_table9_round_duration_shape():
    result = ScenarioRunner().run(table9_spec(durations=(7, 21), num_epochs=2))
    rows = result.rows
    fast, slow = rows[0], rows[1]
    # Longer rounds: lower throughput, higher latency.
    assert fast[1] > 2 * slow[1]
    assert slow[3] > fast[3]


def test_table10_epoch_length_shape():
    result = ScenarioRunner().run(table10_spec(epoch_lengths=(5, 30)))
    rows = result.rows
    short, default = rows[0], rows[1]
    # Short epochs lose a summary round in five: ~80% of throughput.
    assert short[1] == pytest.approx(default[1] * (4 / 5) / (29 / 30), rel=0.1)
    # Longer epochs make payouts wait longer relative to sc latency.
    short_payout_overhead = short[5] - short[3]
    default_payout_overhead = default[5] - default[3]
    assert default_payout_overhead > short_payout_overhead


def test_table11_traffic_mix_stability():
    result = ScenarioRunner().run(
        table11_spec(mixes=((60, 20, 10, 10), (80, 5, 5, 10)), num_epochs=2)
    )
    rows = result.rows
    # Metrics stay within ~15% across mixes (paper: "remain similar").
    assert rows[0][1] == pytest.approx(rows[1][1], rel=0.15)


def test_table12_committee_size():
    result = ScenarioRunner().run(table12_spec())
    rows = result.row_dict()
    for size, paper in constants.AGREEMENT_TIME_BY_COMMITTEE.items():
        assert rows[size][1] == pytest.approx(paper, rel=0.25)
    # Monotone growth.
    values = [rows[s][1] for s in (100, 250, 500, 750, 1000)]
    assert values == sorted(values)


def test_result_rendering():
    result = ScenarioRunner().run(table4_spec())
    text = result.render()
    assert "Table IV" in text
    assert "Payout entry" in text
