"""Tests for traffic distributions, arrival process and generation."""

import pytest

from repro import constants
from repro.core.transactions import BurnTx, CollectTx, IdSpace, MintTx, SwapTx
from repro.errors import ConfigurationError
from repro.simulation.rng import DeterministicRng
from repro.workload.distribution import TABLE_XI_MIXES, TrafficDistribution
from repro.workload.generator import AmountModel, TrafficGenerator, arrival_rate_per_round
from repro.workload.users import UserPopulation


# -- distribution ----------------------------------------------------------------


def test_default_distribution_normalised():
    d = TrafficDistribution.uniswap_2023()
    assert abs(d.swap + d.mint + d.burn + d.collect - 1.0) < 1e-12
    assert abs(d.swap - 0.9319) < 0.001


def test_from_percentages():
    d = TrafficDistribution.from_percentages(60, 20, 10, 10)
    assert d.swap == 0.6
    assert d.mint == 0.2


def test_invalid_distribution_rejected():
    with pytest.raises(ConfigurationError):
        TrafficDistribution(swap=0.5, mint=0.2, burn=0.2, collect=0.2)
    with pytest.raises(ConfigurationError):
        TrafficDistribution(swap=1.2, mint=-0.2, burn=0.0, collect=0.0)


def test_table_xi_mixes_all_valid():
    for mix in TABLE_XI_MIXES:
        d = TrafficDistribution.from_percentages(*mix)
        assert abs(sum(d.as_weights()[1]) - 1.0) < 1e-12


def test_mean_tx_size_close_to_1kb():
    """The workload-weighted mean size drives the 138 tx/s capacity."""
    d = TrafficDistribution.uniswap_2023()
    assert 995 <= d.mean_tx_size <= 1005


# -- arrival ----------------------------------------------------------------------


def test_arrival_rate_formula():
    # rho = ceil(V_D * bt / 86400), Section VI-A.
    assert arrival_rate_per_round(25_000_000, 7.0) == 2026
    assert arrival_rate_per_round(50_000, 7.0) == 5
    assert arrival_rate_per_round(500_000, 7.0) == 41


def test_arrival_rate_rounds_up():
    assert arrival_rate_per_round(1, 7.0) == 1


def test_arrival_rate_validation():
    with pytest.raises(ValueError):
        arrival_rate_per_round(-1, 7.0)
    with pytest.raises(ValueError):
        arrival_rate_per_round(100, 0)


# -- generation -----------------------------------------------------------------------


@pytest.fixture
def generator():
    population = UserPopulation(20, seed=3)
    return TrafficGenerator(
        population=population,
        distribution=TrafficDistribution.uniswap_2023(),
        rng=DeterministicRng(3),
        ids=IdSpace(),
    )


def test_generates_requested_count(generator):
    txs = generator.generate_round(100, submitted_at=5.0)
    assert len(txs) == 100
    assert all(tx.submitted_at == 5.0 for tx in txs)


def test_type_frequencies_converge(generator):
    # Seed positions so burns/collects are not substituted by swaps.
    for user in generator.population.users:
        user.positions.add("seed-pos")
    txs = generator.generate_round(20_000, submitted_at=0.0)
    swaps = sum(isinstance(tx, SwapTx) for tx in txs)
    assert 0.90 < swaps / len(txs) < 0.96


def test_burns_substituted_when_no_positions(generator):
    """Without any positions, burns/collects degrade to swaps."""
    txs = generator.generate_round(5000, submitted_at=0.0)
    assert not any(isinstance(tx, (BurnTx, CollectTx)) for tx in txs)


def test_burns_generated_once_positions_exist(generator):
    for user in generator.population.users:
        user.positions.add("seed-pos")
    txs = generator.generate_round(5000, submitted_at=0.0)
    assert any(isinstance(tx, BurnTx) for tx in txs)
    assert any(isinstance(tx, CollectTx) for tx in txs)


def test_mint_ranges_aligned_to_spacing(generator):
    txs = [t for t in generator.generate_round(5000, 0.0, current_tick=1234)
           if isinstance(t, MintTx)]
    assert txs
    for tx in txs:
        assert tx.tick_lower % 60 == 0
        assert tx.tick_upper % 60 == 0
        assert tx.tick_lower < tx.tick_upper


def test_amounts_within_model(generator):
    model = AmountModel()
    txs = generator.generate_round(2000, 0.0)
    for tx in txs:
        if isinstance(tx, SwapTx):
            assert model.swap_min <= tx.amount <= model.swap_max


def test_deterministic_generation():
    def build():
        population = UserPopulation(10, seed=9)
        gen = TrafficGenerator(
            population=population,
            distribution=TrafficDistribution.uniswap_2023(),
            rng=DeterministicRng(9),
            ids=IdSpace(),
        )
        return [(type(t).__name__, t.user) for t in gen.generate_round(200, 0.0)]

    assert build() == build()


def test_tx_sizes_follow_table_vii(generator):
    txs = generator.generate_round(2000, 0.0)
    for tx in txs:
        name = type(tx).txtype.value
        assert tx.size_bytes == round(constants.SIZE_UNISWAP_ETHEREUM[name])


# -- users --------------------------------------------------------------------------------


def test_population_unique_addresses():
    population = UserPopulation(50, seed=0)
    assert len(set(population.addresses)) == 50


def test_position_ownership_tracking():
    population = UserPopulation(3, seed=0)
    user = population.users[0]
    population.on_position_created(user.address, "pos1")
    assert "pos1" in user.positions
    population.on_position_deleted(user.address, "pos1")
    assert "pos1" not in user.positions


def test_unknown_address_ignored():
    population = UserPopulation(3, seed=0)
    population.on_position_created("0xghost", "pos1")  # must not raise


def test_pick_lp_with_position():
    population = UserPopulation(3, seed=0)
    rng = DeterministicRng(0)
    assert population.pick_lp_with_position(rng) is None
    population.users[1].positions.add("p")
    assert population.pick_lp_with_position(rng) is population.users[1]


def test_empty_population_rejected():
    with pytest.raises(ValueError):
        UserPopulation(0)
