"""Tests for hashing helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.hashing import hash_to_scalar, keccak256, keccak256_int


def test_digest_is_32_bytes():
    assert len(keccak256(b"hello")) == 32


def test_deterministic():
    assert keccak256(b"x", 5, "y") == keccak256(b"x", 5, "y")


def test_different_inputs_differ():
    assert keccak256(b"a") != keccak256(b"b")


def test_length_prefixing_prevents_ambiguity():
    # Without length prefixes these two would collide.
    assert keccak256(b"ab", b"c") != keccak256(b"a", b"bc")


def test_int_and_negative_int_hash_differently():
    assert keccak256(5) != keccak256(-5)


def test_int_output():
    value = keccak256_int(b"data")
    assert isinstance(value, int)
    assert 0 <= value < 2**256


def test_unsupported_type_raises():
    with pytest.raises(TypeError):
        keccak256(3.14)


def test_hash_to_scalar_in_range():
    modulus = 997
    for i in range(100):
        s = hash_to_scalar(modulus, b"seed", i)
        assert 1 <= s <= modulus - 1


def test_hash_to_scalar_never_zero():
    modulus = 7
    values = {hash_to_scalar(modulus, i) for i in range(200)}
    assert 0 not in values


def test_hash_to_scalar_small_modulus_rejected():
    with pytest.raises(ValueError):
        hash_to_scalar(2, b"x")


@given(st.integers(min_value=-(2**64), max_value=2**64))
def test_any_int_hashes(value):
    assert len(keccak256(value)) == 32


@given(st.binary(max_size=200), st.binary(max_size=200))
def test_collision_resistance_on_samples(a, b):
    if a != b:
        assert keccak256(a) != keccak256(b)


@given(st.integers(0, 2**256 - 1))
def test_word_fast_path_is_the_part_encoding(value):
    from repro.crypto.hashing import WORD_BOUND, WORD_PART_HEAD, encode_part

    assert value < WORD_BOUND
    assert WORD_PART_HEAD + value.to_bytes(32, "big") == encode_part(value)


def test_word_fast_path_bounds():
    from repro.crypto.hashing import WORD_BOUND, WORD_PART_HEAD, encode_part

    assert encode_part(WORD_BOUND - 1) == WORD_PART_HEAD + (WORD_BOUND - 1).to_bytes(32, "big")
    # Outside [0, 2**256) the general encoding differs: wider or signed.
    assert not encode_part(WORD_BOUND).startswith(WORD_PART_HEAD)
    assert not encode_part(-1).startswith(WORD_PART_HEAD)
