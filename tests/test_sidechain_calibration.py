"""Tests for the message-level timing calibration pipeline."""

import pytest

from tests.pbft_calibration import (
    calibrate_from_measurements,
    measure_agreement_time,
)


def test_measurement_deterministic():
    a = measure_agreement_time(5, seed=3, runs=2)
    b = measure_agreement_time(5, seed=3, runs=2)
    assert a == b


def test_larger_committees_take_longer():
    small = measure_agreement_time(5, runs=2)
    large = measure_agreement_time(17, runs=2)
    assert large > small


def test_agreement_time_reasonable():
    t = measure_agreement_time(8, runs=2)
    # Three message hops + per-vote load; well under a 7s round.
    assert 0.1 < t < 7.0


def test_calibrated_model_monotone():
    model = calibrate_from_measurements(sizes=(5, 8, 11), runs=1)
    times = [model.agreement_time(s) for s in (10, 50, 100, 500)]
    assert times == sorted(times)
    assert times[0] > 0


def test_calibrated_model_interpolates_measurements():
    model = calibrate_from_measurements(sizes=(5, 8, 11), runs=1)
    for size, measured in model.calibration.items():
        assert model.agreement_time(size) == pytest.approx(measured, rel=0.5)
