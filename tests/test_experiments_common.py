"""Tests for the experiment scaling machinery."""

import pytest

from repro.scenarios import (
    ExperimentResult,
    default_scale,
    scaled_ammboost_config,
)
from repro.workload.generator import arrival_rate_per_round


def test_default_scale_keeps_small_volumes_unscaled():
    assert default_scale(50_000) == 1
    assert default_scale(500_000) == 1


def test_default_scale_targets_about_1m():
    assert default_scale(25_000_000) == 25
    assert default_scale(50_000_000) == 50


def test_scaling_preserves_arrival_to_capacity_ratio():
    """The property that makes scaled latencies faithful."""
    full_rho = arrival_rate_per_round(25_000_000, 7.0)
    full_capacity = 1_000_000 / 1000  # 1 MB / ~1 KB txs

    config, scale = scaled_ammboost_config(25_000_000)
    scaled_rho = arrival_rate_per_round(config.daily_volume, 7.0)
    scaled_capacity = config.meta_block_size / 1000

    full_ratio = full_rho / full_capacity
    scaled_ratio = scaled_rho / scaled_capacity
    assert scaled_ratio == pytest.approx(full_ratio, rel=0.05)


def test_explicit_scale_override():
    config, scale = scaled_ammboost_config(10_000_000, scale=10)
    assert scale == 10
    assert config.daily_volume == 1_000_000
    assert config.meta_block_size == 100_000


def test_scale_floors():
    config, scale = scaled_ammboost_config(100, scale=1000)
    assert config.daily_volume >= 1
    assert config.meta_block_size >= 2_000


def test_result_row_dict():
    result = ExperimentResult(
        experiment_id="T", title="t", headers=["k", "v"],
        rows=[["a", 1], ["b", 2]],
    )
    assert result.row_dict()["b"] == ["b", 2]


def test_result_render_contains_everything():
    result = ExperimentResult(
        experiment_id="Table Z", title="demo", headers=["x"], rows=[[42]],
    )
    text = result.render()
    assert "Table Z" in text and "demo" in text and "42" in text
