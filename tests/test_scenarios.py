"""Scenario engine tests: registry completeness, runner determinism,
parallel/serial parity, and the extra scenarios."""

import pytest

import repro.scenarios as scenarios
from repro.errors import ConfigurationError
from repro.scenarios.extra import (
    adversarial_spec,
    arrivals_spec,
    multipool_spec,
    pbft_adversary_spec,
)
from repro.scenarios.paper import table5_spec, table9_spec, table12_spec
from repro.scenarios.registry import register
from repro.scenarios.runner import (
    ScenarioError,
    ScenarioRunner,
    point_substream_seed,
)
from repro.scenarios.spec import ScenarioSpec


# -- registry ------------------------------------------------------------------


def test_registry_covers_all_paper_artifacts():
    expected = {f"table{i}" for i in range(2, 13)} | {"figure5"}
    assert set(scenarios.names("paper")) == expected


def test_every_cli_name_resolves_to_a_registered_spec():
    from repro.experiments.__main__ import _expand_names

    for name in scenarios.names("paper"):
        assert scenarios.is_registered(name), name
    for name in _expand_names(["all", "extras"]):
        spec = scenarios.get(name)
        assert spec.name == name
        assert callable(spec.point)
        assert spec.grid


def test_every_registered_scenario_has_a_description():
    all_names = scenarios.names()
    assert "serving_latency" in all_names
    assert "serving_overload" in all_names
    for spec in scenarios.specs():
        assert spec.description and spec.description.strip(), (
            f"scenario {spec.name!r} is missing a list-facing description"
        )


def test_register_rejects_duplicates():
    spec = table12_spec()
    with pytest.raises(ConfigurationError):
        register(spec)


def test_empty_grid_rejected():
    with pytest.raises(ConfigurationError):
        ScenarioSpec(
            name="broken", experiment_id="X", title="t", headers=("a",),
            grid=(), point=lambda params: {"rows": []},
        )


# -- runner determinism and parallel parity ------------------------------------


def _fast_table5():
    """A scaled-down table5: a real multi-point system sweep that runs fast."""
    return table5_spec(volumes=(50_000, 100_000, 150_000, 200_000), num_epochs=2)


def test_jobs1_and_jobs4_rows_bit_identical():
    spec = _fast_table5()
    serial = ScenarioRunner(jobs=1).run(spec)
    parallel = ScenarioRunner(jobs=4).run(spec)
    assert serial.rows == parallel.rows
    assert serial.headers == parallel.headers
    assert serial.notes == parallel.notes


def test_same_seed_same_rows_across_runs():
    spec = _fast_table5()
    first = ScenarioRunner().run(spec)
    second = ScenarioRunner().run(spec)
    assert first.rows == second.rows


def test_point_order_is_grid_order():
    spec = _fast_table5()
    result = ScenarioRunner(jobs=2).run(spec)
    assert [row[0] for row in result.rows] == [
        "50,000", "100,000", "150,000", "200,000"
    ]


def test_point_substream_seeds_stable_and_distinct():
    a = point_substream_seed(0, "multipool", 0)
    b = point_substream_seed(0, "multipool", 1)
    c = point_substream_seed(0, "adversarial", 0)
    assert a == point_substream_seed(0, "multipool", 0)
    assert len({a, b, c}) == 3


def test_runner_isolates_points_from_prior_process_state():
    """A point's rows must not depend on what ran earlier in-process."""
    import repro.core.transactions as ct

    spec = table9_spec(durations=(7,), daily_volume=200_000, num_epochs=2)
    baseline = ScenarioRunner().run(spec).rows
    # Burn through a pile of transaction ids, then re-run.
    for _ in range(5_000):
        ct.SidechainTx(user="noise")
    assert ScenarioRunner().run(spec).rows == baseline


def test_serial_run_leaves_caller_ids_untouched():
    """An in-process (jobs=1) run moves neither a caller's live
    deployment's id space nor the hand-built ids.

    Position ids hash the transaction id, so a run that rewound either
    could make the caller's system mint a position id it already holds.
    """
    import repro.core.transactions as ct
    import repro.mainchain.transactions as mt
    from tests.conftest import small_system

    system = small_system()
    system.run(num_epochs=1)
    live_next = system.ids()
    hand_core = ct.SidechainTx(user="probe").tx_id
    hand_main = mt.MainchainTransaction(sender="p", contract="c", function="f").tx_id
    ScenarioRunner().run(table9_spec(durations=(7,), daily_volume=200_000, num_epochs=2))
    assert system.ids() == live_next + 1
    assert ct.SidechainTx(user="probe").tx_id == hand_core - 1
    assert (
        mt.MainchainTransaction(sender="p", contract="c", function="f").tx_id
        == hand_main - 1
    )


def test_unregister_removes_scenario():
    spec = ScenarioSpec(
        name="ephemeral_test_spec", experiment_id="X", title="t", headers=("a",),
        grid=({},), point=lambda params: {"rows": []}, group="extra",
    )
    scenarios.register(spec)
    assert scenarios.is_registered("ephemeral_test_spec")
    scenarios.unregister("ephemeral_test_spec")
    assert not scenarios.is_registered("ephemeral_test_spec")


def test_failing_point_raises_scenario_error():
    def bad_point(params):
        raise RuntimeError("boom")

    spec = ScenarioSpec(
        name="exploding", experiment_id="X", title="t", headers=("a",),
        grid=({},), point=bad_point,
    )
    with pytest.raises(ScenarioError) as excinfo:
        ScenarioRunner().run(spec)
    assert "exploding" in str(excinfo.value)
    assert "boom" in excinfo.value.details


def test_run_many_contains_failures_without_aborting_batch():
    def bad_point(params):
        raise RuntimeError("boom")

    good = table12_spec()
    bad = ScenarioSpec(
        name="exploding2", experiment_id="X", title="t", headers=("a",),
        grid=({},), point=bad_point,
    )
    outcomes = ScenarioRunner().run_many([bad, good])
    assert isinstance(outcomes[0], ScenarioError)
    assert outcomes[1].rows


def test_scale_injected_only_when_accepted():
    runner = ScenarioRunner(scale=17)
    scaled = runner._point_params(_fast_table5(), 0, {"volume": 1})
    assert scaled["scale"] == 17
    unscaled = runner._point_params(table12_spec(), 0, {"sizes": (100,)})
    assert "scale" not in unscaled


# -- extra scenarios -----------------------------------------------------------


def test_multipool_scenario_conserves_tokens():
    spec = multipool_spec(pool_counts=(1, 2), rounds=5, txs_per_round=10)
    result = ScenarioRunner(jobs=2).run(spec)
    assert len(result.rows) == 2
    for row in result.rows:
        assert row[-1] == "yes", row


def test_adversarial_scenario_always_recovers():
    result = ScenarioRunner().run(adversarial_spec())
    assert len(result.rows) == 4
    for row in result.rows:
        assert row[-1] == "yes", row


def test_pbft_adversary_scenario_always_decides():
    result = ScenarioRunner().run(pbft_adversary_spec())
    by_mode = result.row_dict()
    for row in result.rows:
        assert row[1] == "yes", row
    # Bad leaders force view changes; an honest committee needs none.
    assert by_mode["honest"][2] == 0
    assert by_mode["two_bad_leaders"][2] >= 2


def test_arrivals_scenario_registered_and_runs():
    spec = arrivals_spec()
    assert scenarios.is_registered("arrivals")
    result = ScenarioRunner().run(spec)
    assert len(result.rows) == len(spec.grid)
    for row in result.rows:
        assert row[1] > 0  # processed transactions
