"""Tests for Shamir secret sharing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.groups import PairingGroup
from repro.crypto.shamir import (
    DealtShares,
    Share,
    lagrange_at_zero,
    reconstruct_secret,
    split_secret,
)
from repro.errors import ThresholdError
from repro.simulation.rng import DeterministicRng
from tests.shamir_reference import (
    interpolate_at,
    lagrange_coefficient,
    split_secret_eager,
    split_secret_horner,
)

PRIME = 2**127 - 1  # a Mersenne prime
ORDER = PairingGroup.ORDER
SMALL_PRIME = 1009


def test_reconstruct_with_exact_threshold():
    rng = DeterministicRng(0)
    shares = split_secret(12345, threshold=3, num_shares=5, modulus=PRIME, rng=rng)
    assert reconstruct_secret(shares[:3], PRIME) == 12345


def test_reconstruct_with_any_subset():
    rng = DeterministicRng(1)
    shares = split_secret(999, threshold=3, num_shares=6, modulus=PRIME, rng=rng)
    assert reconstruct_secret([shares[0], shares[2], shares[5]], PRIME) == 999
    assert reconstruct_secret([shares[5], shares[1], shares[3]], PRIME) == 999


def test_reconstruct_with_more_than_threshold():
    rng = DeterministicRng(2)
    shares = split_secret(7, threshold=2, num_shares=5, modulus=PRIME, rng=rng)
    assert reconstruct_secret(shares, PRIME) == 7


def test_below_threshold_reveals_nothing_useful():
    rng = DeterministicRng(3)
    shares = split_secret(42, threshold=3, num_shares=5, modulus=PRIME, rng=rng)
    # With fewer shares Lagrange at zero gives a different (wrong) value
    # for almost all polynomials; assert it is not accidentally correct.
    wrong = reconstruct_secret(shares[:2], PRIME)
    assert wrong != 42


def test_threshold_one_is_a_constant_share():
    rng = DeterministicRng(4)
    shares = split_secret(55, threshold=1, num_shares=3, modulus=PRIME, rng=rng)
    assert all(s.y == 55 for s in shares)


def test_duplicate_share_indices_rejected():
    rng = DeterministicRng(5)
    shares = split_secret(1, threshold=2, num_shares=3, modulus=PRIME, rng=rng)
    with pytest.raises(ThresholdError):
        reconstruct_secret([shares[0], shares[0]], PRIME)


def test_empty_share_list_rejected():
    with pytest.raises(ThresholdError):
        reconstruct_secret([], PRIME)


def test_invalid_threshold_rejected():
    rng = DeterministicRng(6)
    with pytest.raises(ThresholdError):
        split_secret(1, threshold=0, num_shares=3, modulus=PRIME, rng=rng)
    with pytest.raises(ThresholdError):
        split_secret(1, threshold=4, num_shares=3, modulus=PRIME, rng=rng)


def test_secret_outside_field_rejected():
    rng = DeterministicRng(7)
    with pytest.raises(ThresholdError):
        split_secret(PRIME, threshold=2, num_shares=3, modulus=PRIME, rng=rng)


@settings(max_examples=50, deadline=None)
@given(
    secret=st.integers(min_value=0, max_value=PRIME - 1),
    threshold=st.integers(min_value=1, max_value=6),
    extra=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_roundtrip_property(secret, threshold, extra, seed):
    rng = DeterministicRng(seed)
    num_shares = threshold + extra
    shares = split_secret(secret, threshold, num_shares, PRIME, rng)
    assert reconstruct_secret(shares[:threshold], PRIME) == secret


# -- value-form dealing --------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    secret=st.integers(min_value=0, max_value=SMALL_PRIME - 1),
    threshold=st.integers(min_value=1, max_value=9),
    extra=st.integers(min_value=0, max_value=12),
    modulus=st.sampled_from([ORDER, PRIME, SMALL_PRIME]),
    seed=st.integers(min_value=0, max_value=10**6),
    data=st.data(),
)
def test_any_threshold_subset_reconstructs(secret, threshold, extra, modulus, seed, data):
    num_shares = threshold + extra
    shares = split_secret(secret, threshold, num_shares, modulus, DeterministicRng(seed))
    assert [s.x for s in shares] == list(range(1, num_shares + 1))
    subset = data.draw(
        st.lists(st.sampled_from(shares), min_size=threshold, unique_by=lambda s: s.x)
    )
    assert reconstruct_secret(subset, modulus) == secret


@settings(max_examples=40, deadline=None)
@given(
    threshold=st.integers(min_value=1, max_value=9),
    extra=st.integers(min_value=0, max_value=12),
    modulus=st.sampled_from([ORDER, SMALL_PRIME]),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_shares_lie_on_one_polynomial_through_the_secret(threshold, extra, modulus, seed):
    """Every dealt share is the degree-(t-1) interpolation of the secret
    at 0 and the first t-1 shares — checked with the textbook formula."""
    secret = 77
    num_shares = threshold + extra
    shares = split_secret(secret, threshold, num_shares, modulus, DeterministicRng(seed))
    nodes = [Share(0, secret)] + shares[: threshold - 1]
    for share in shares:
        assert share.y == interpolate_at(nodes, share.x, modulus)


def test_fewer_than_threshold_shares_are_independent_of_the_secret():
    """Value form makes the t-1 bound exact: shares 1..t-1 are the raw
    draws, so two secrets dealt from the same stream agree on them."""
    a = split_secret(1, 5, 9, ORDER, DeterministicRng(8))
    b = split_secret(ORDER - 2, 5, 9, ORDER, DeterministicRng(8))
    assert a[:4] == b[:4]
    assert all(x.y != y.y for x, y in zip(a[4:], b[4:]))
    assert reconstruct_secret(a[:4], ORDER) != 1


@pytest.mark.parametrize("threshold", [1, 2, 7, 334])
def test_dealing_leaves_the_rng_where_coefficient_form_did(threshold):
    fast, slow = DeterministicRng(9), DeterministicRng(9)
    dealt = split_secret(5, threshold, 500, ORDER, fast)
    reference = split_secret_horner(5, threshold, 500, ORDER, slow)
    assert fast._random.getstate() == slow._random.getstate()
    # Different polynomials for the same draws, the same secret under both.
    assert reconstruct_secret(dealt[-threshold:], ORDER) == 5
    assert reconstruct_secret(reference[-threshold:], ORDER) == 5


# -- lazy dealing ---------------------------------------------------------------


def _read_orders(count: int, seed: int) -> list[list[int]]:
    """Ascending, reverse, random and repeated (with negative) indices."""
    shuffled = list(range(count))
    DeterministicRng(seed).shuffle(shuffled)
    repeated = [i for i in shuffled[: count // 2 + 1] for _ in range(2)]
    return [
        list(range(count)),
        list(range(count - 1, -1, -1)),
        shuffled,
        repeated + [i - count for i in shuffled],
    ]


@pytest.mark.parametrize("order", range(4))
def test_lazy_dealing_equals_the_eager_reference_at_paper_scale(order):
    lazy_rng, eager_rng = DeterministicRng(31), DeterministicRng(31)
    dealt = split_secret(5, 334, 500, ORDER, lazy_rng)
    reference = split_secret_eager(5, 334, 500, ORDER, eager_rng)
    # Every draw happens at dealing time, before any share is read.
    assert lazy_rng._random.getstate() == eager_rng._random.getstate()
    assert len(dealt) == 500
    for index in _read_orders(500, order)[order]:
        assert dealt[index] == reference[index]
    assert list(dealt) == reference


@settings(max_examples=60, deadline=None)
@given(
    secret=st.integers(min_value=0, max_value=SMALL_PRIME - 1),
    threshold=st.integers(min_value=1, max_value=12),
    extra=st.integers(min_value=0, max_value=20),
    modulus=st.sampled_from([ORDER, PRIME, SMALL_PRIME]),
    seed=st.integers(min_value=0, max_value=10**6),
    order=st.integers(min_value=0, max_value=3),
)
def test_lazy_dealing_equals_the_eager_reference(secret, threshold, extra, modulus, seed, order):
    num_shares = threshold + extra
    dealt = split_secret(secret, threshold, num_shares, modulus, DeterministicRng(seed))
    reference = split_secret_eager(secret, threshold, num_shares, modulus, DeterministicRng(seed))
    for index in _read_orders(num_shares, seed)[order]:
        assert dealt[index] == reference[index]
    assert dealt[::-1] == reference[::-1]
    assert dealt[1:-1:2] == reference[1:-1:2]


def test_a_share_is_interpolated_once_and_only_when_read(monkeypatch):
    interpolated = []
    interpolate = DealtShares._interpolate

    def counting(self, x):
        interpolated.append(x)
        return interpolate(self, x)

    monkeypatch.setattr(DealtShares, "_interpolate", counting)
    dealt = split_secret(5, 334, 500, ORDER, DeterministicRng(2))
    assert interpolated == []
    first_quorum = dealt[:334]
    assert interpolated == [334]
    assert dealt[:334] == first_quorum and dealt[333] is first_quorum[-1]
    assert dealt[-1].x == 500
    assert interpolated == [334, 500]


def test_out_of_range_share_index_raises():
    dealt = split_secret(5, 3, 5, PRIME, DeterministicRng(0))
    for index in (5, -6):
        with pytest.raises(IndexError):
            dealt[index]


def test_more_shares_than_field_elements_rejected():
    with pytest.raises(ThresholdError):
        split_secret(1, threshold=2, num_shares=7, modulus=7, rng=DeterministicRng(0))


# -- the Lagrange vector -------------------------------------------------------

_consecutive = st.builds(
    lambda start, count: tuple(range(start, start + count)),
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=40),
)


def _scattered(modulus):
    return st.lists(
        st.integers(min_value=1, max_value=modulus - 1),
        min_size=1,
        max_size=25,
        unique=True,
    ).map(tuple)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), modulus=st.sampled_from([ORDER, SMALL_PRIME]))
def test_lagrange_vector_matches_per_index_reference(data, modulus):
    xs = data.draw(st.one_of(_consecutive, _scattered(modulus)))
    expected = tuple(lagrange_coefficient(list(xs), i, modulus) for i in range(len(xs)))
    assert lagrange_at_zero(xs, modulus) == expected


def test_lagrange_vector_of_a_shuffled_run_takes_the_general_path():
    xs = (3, 1, 2, 5, 4)
    expected = tuple(lagrange_coefficient(list(xs), i, ORDER) for i in range(5))
    assert lagrange_at_zero(xs, ORDER) == expected


def test_share_index_zero_mod_the_field_rejected():
    with pytest.raises(ThresholdError):
        lagrange_at_zero((1, SMALL_PRIME, 3), SMALL_PRIME)
    with pytest.raises(ThresholdError):
        reconstruct_secret([Share(0, 5), Share(1, 6)], SMALL_PRIME)


def test_share_indices_congruent_mod_the_field_rejected():
    with pytest.raises(ThresholdError):
        lagrange_at_zero((1, 2, SMALL_PRIME + 1), SMALL_PRIME)
    with pytest.raises(ThresholdError):
        reconstruct_secret([Share(2, 5), Share(SMALL_PRIME + 2, 5)], SMALL_PRIME)
