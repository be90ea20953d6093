"""Tests for the tick table (tick state + initialized-tick index)."""

import pytest

from repro.amm.tick import TickTable
from repro.errors import TickError
from tests.swap_oracle import next_initialized_tick


@pytest.fixture
def table():
    return TickTable(tick_spacing=60)


def test_update_initializes_tick(table):
    flipped = table.update(60, 0, 1000, 0, 0, upper=False)
    assert flipped
    assert 60 in table
    assert table.get(60).liquidity_gross == 1000


def test_update_existing_does_not_flip(table):
    table.update(60, 0, 1000, 0, 0, upper=False)
    flipped = table.update(60, 0, 500, 0, 0, upper=False)
    assert not flipped
    assert table.get(60).liquidity_gross == 1500


def test_liquidity_net_signs(table):
    table.update(-60, 0, 1000, 0, 0, upper=False)
    table.update(60, 0, 1000, 0, 0, upper=True)
    assert table.get(-60).liquidity_net == 1000
    assert table.get(60).liquidity_net == -1000


def test_removing_all_liquidity_flips_and_deindexes(table):
    table.update(60, 0, 1000, 0, 0, upper=False)
    flipped = table.update(60, 0, -1000, 0, 0, upper=False)
    assert flipped
    # De-indexed for swaps, but record retained until clear().
    assert next_initialized_tick(table, 100, lte=True) == (None, False)
    table.clear(60)
    assert 60 not in table.ticks


def test_underflow_rejected(table):
    table.update(60, 0, 1000, 0, 0, upper=False)
    with pytest.raises(TickError):
        table.update(60, 0, -2000, 0, 0, upper=False)


def test_fee_growth_outside_set_below_current(table):
    # Tick initialized at or below the current tick inherits fee growth.
    table.update(-60, 0, 1000, 55, 66, upper=False)
    info = table.get(-60)
    assert info.fee_growth_outside0_x128 == 55
    assert info.fee_growth_outside1_x128 == 66


def test_fee_growth_outside_zero_above_current(table):
    table.update(60, 0, 1000, 55, 66, upper=False)
    info = table.get(60)
    assert info.fee_growth_outside0_x128 == 0


def test_next_initialized_tick_downward(table):
    for tick in (-120, 0, 180):
        table.update(tick, 0, 1, 0, 0, upper=False)
    assert next_initialized_tick(table, 200, lte=True) == (180, True)
    assert next_initialized_tick(table, 180, lte=True) == (180, True)
    assert next_initialized_tick(table, 179, lte=True) == (0, True)
    assert next_initialized_tick(table, -121, lte=True) == (None, False)


def test_next_initialized_tick_upward(table):
    for tick in (-120, 0, 180):
        table.update(tick, 0, 1, 0, 0, upper=False)
    assert next_initialized_tick(table, -200, lte=False) == (-120, True)
    assert next_initialized_tick(table, -120, lte=False) == (0, True)
    assert next_initialized_tick(table, 180, lte=False) == (None, False)


def test_cross_flips_fee_growth_outside(table):
    table.update(0, 10, 1000, 100, 200, upper=False)
    net = table.cross(0, 150, 260)
    assert net == 1000
    info = table.get(0)
    assert info.fee_growth_outside0_x128 == 150 - 100
    assert info.fee_growth_outside1_x128 == 260 - 200


def test_double_cross_restores(table):
    table.update(0, 10, 1000, 100, 200, upper=False)
    table.cross(0, 150, 260)
    table.cross(0, 150, 260)
    info = table.get(0)
    assert info.fee_growth_outside0_x128 == 100
    assert info.fee_growth_outside1_x128 == 200


def test_fee_growth_inside_range_containing_current(table):
    table.update(-60, 0, 1, 0, 0, upper=False)
    table.update(60, 0, 1, 0, 0, upper=True)
    inside0, inside1 = table.fee_growth_inside(-60, 60, 0, 500, 700)
    assert inside0 == 500
    assert inside1 == 700


def test_fee_growth_inside_range_above_current(table):
    table.update(60, 0, 1, 333, 0, upper=False)
    table.update(120, 0, 1, 333, 0, upper=True)
    inside0, _ = table.fee_growth_inside(60, 120, 0, 333, 0)
    assert inside0 == 0


def test_spacing_validation(table):
    with pytest.raises(TickError):
        table.check_spacing(61)
    table.check_spacing(120)


def test_bad_spacing_rejected():
    with pytest.raises(TickError):
        TickTable(tick_spacing=0)


def test_peek_does_not_create_records(table):
    info = table.peek(60)
    assert info.liquidity_gross == 0
    assert not info.initialized
    assert table.ticks == {}


def test_peek_returns_live_record(table):
    table.update(60, 0, 1000, 0, 0, upper=False)
    assert table.peek(60) is table.get(60)


def test_fee_growth_inside_does_not_create_records(table):
    # Regression: read paths previously materialised phantom TickInfo
    # records for uninitialized ticks, growing the table under query load.
    table.fee_growth_inside(-60, 60, 0, 500, 700)
    assert table.ticks == {}


def test_cross_absent_tick_is_noop(table):
    assert table.cross(60, 100, 200) == 0
    assert table.ticks == {}


def test_next_initialized_tick_cache_invalidation(table):
    table.update(60, 0, 1, 0, 0, upper=False)
    assert next_initialized_tick(table, 100, lte=True) == (60, True)
    # The answer must follow the index as mint/burn paths change it.
    table.update(90, 0, 1, 0, 0, upper=False)
    assert next_initialized_tick(table, 100, lte=True) == (90, True)
    table.update(90, 0, -1, 0, 0, upper=False)
    table.clear(90)
    assert next_initialized_tick(table, 100, lte=True) == (60, True)
