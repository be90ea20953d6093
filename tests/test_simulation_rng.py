"""Tests for deterministic randomness."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.rng import DeterministicRng, first_random


def test_same_seed_same_sequence():
    a = DeterministicRng(42)
    b = DeterministicRng(42)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_seeds_differ():
    a = DeterministicRng(1)
    b = DeterministicRng(2)
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_child_streams_independent_of_parent_consumption():
    parent1 = DeterministicRng(42)
    parent2 = DeterministicRng(42)
    parent2.random()  # consuming the parent must not change children
    child1 = parent1.child("traffic")
    child2 = parent2.child("traffic")
    assert [child1.random() for _ in range(5)] == [child2.random() for _ in range(5)]


def test_children_with_different_labels_differ():
    parent = DeterministicRng(42)
    a = parent.child("a")
    b = parent.child("b")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_string_seeds_supported():
    rng = DeterministicRng("hello")
    assert 0 <= rng.random() < 1


def test_randint_within_bounds():
    rng = DeterministicRng(0)
    for _ in range(100):
        assert 1 <= rng.randint(1, 6) <= 6


def test_choices_respects_weights():
    rng = DeterministicRng(0)
    picks = rng.choices(["a", "b"], weights=[0.99, 0.01], k=1000)
    assert picks.count("a") > 900


def test_sample_without_replacement():
    rng = DeterministicRng(0)
    population = list(range(100))
    sample = rng.sample(population, 10)
    assert len(set(sample)) == 10


def test_shuffle_is_permutation():
    rng = DeterministicRng(0)
    items = list(range(20))
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items


@settings(max_examples=200, deadline=None)
@given(seed=st.one_of(st.integers(), st.text()))
def test_first_random_is_the_first_draw_of_a_fresh_rng(seed):
    assert first_random(seed) == DeterministicRng(seed).random()
