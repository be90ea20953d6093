"""Tests for the agreement-time model (Table XII calibration)."""

from fractions import Fraction

import pytest

from repro import constants
from repro.sidechain.timing import AgreementTimeModel


@pytest.fixture
def model():
    return AgreementTimeModel()


def test_fit_close_to_calibration_points(model):
    for size, measured in constants.AGREEMENT_TIME_BY_COMMITTEE.items():
        predicted = model.agreement_time(size)
        assert abs(predicted - measured) / measured < 0.25, (size, predicted)


def test_monotonically_increasing(model):
    previous = 0.0
    for size in (50, 100, 200, 400, 800, 1600):
        t = model.agreement_time(size)
        assert t > previous
        previous = t


def test_superlinear_growth(model):
    """Doubling the committee should more than double agreement time."""
    assert model.agreement_time(1000) > 2 * model.agreement_time(500)


def test_min_round_duration_exceeds_agreement(model):
    for size in (100, 500, 1000):
        assert model.min_round_duration(size) > model.agreement_time(size)


def test_thousand_node_round_of_23s(model):
    """The paper: 'with Sc = 1000 a round should last at least ~23 s'."""
    assert 20 <= model.min_round_duration(1000) <= 26


def test_nonpositive_size_rejected(model):
    with pytest.raises(ValueError):
        model.agreement_time(0)


def test_custom_calibration():
    model = AgreementTimeModel({10: 1.0, 20: 4.0, 40: 16.0})
    # Pure quadratic data: the fit should be nearly exact.
    assert abs(model.agreement_time(40) - 16.0) < 0.5


# The default fit, pinned bit for bit: the correctly rounded least-squares
# optimum through Table XII's five points.
PINNED_A = float.fromhex("0x1.0aa5b1be4e485p-16")
PINNED_B = float.fromhex("0x1.a8edbfe219d5ep-8")


def _exact_fit(points):
    """Least squares of ``t = a·c² + b·c`` by Gaussian elimination on the
    normal equations ``XᵀX·[a, b] = Xᵀt``, over exact rationals."""
    rows = [(Fraction(c) ** 2, Fraction(c), Fraction(t)) for c, t in points.items()]
    (p, q), (r, s) = [
        [sum(row[i] * row[j] for row in rows) for j in (0, 1)] for i in (0, 1)
    ]
    u, v = (sum(row[i] * row[2] for row in rows) for i in (0, 1))
    factor = r / p
    b = (v - factor * u) / (s - factor * q)
    a = (u - q * b) / p
    return a, b


def test_default_coefficients_are_pinned(model):
    assert (model.a.hex(), model.b.hex()) == (PINNED_A.hex(), PINNED_B.hex())


def test_default_fit_is_the_exact_optimum_rounded_once(model):
    a, b = _exact_fit(constants.AGREEMENT_TIME_BY_COMMITTEE)
    assert a > 0 and b > 0
    assert (model.a, model.b) == (float(a), float(b))


def test_concave_data_falls_back_to_a_linear_fit():
    points = {100: 1.0, 200: 1.9, 300: 2.6, 400: 3.1}
    a, _ = _exact_fit(points)
    assert a < 0  # the full fit would bend down to zero
    model = AgreementTimeModel(points)
    slope = sum(Fraction(c) * Fraction(t) for c, t in points.items()) / sum(
        Fraction(c) ** 2 for c in points
    )
    assert (model.a, model.b) == (0.0, float(slope))


def test_convex_data_with_negative_slope_falls_back_to_a_quadratic_fit():
    points = {10: 0.5, 20: 3.0, 30: 7.5}  # t = c²/100 - c/20
    _, b = _exact_fit(points)
    assert b < 0  # the full fit would go negative for small committees
    model = AgreementTimeModel(points)
    curvature = sum(Fraction(c) ** 2 * Fraction(t) for c, t in points.items()) / sum(
        Fraction(c) ** 4 for c in points
    )
    assert (model.a, model.b) == (float(curvature), 0.0)
    assert model.agreement_time(1) > 0
