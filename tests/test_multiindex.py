from __future__ import annotations

import itertools
import math
import random

import pytest

from jetstress.multiindex import (
    PERMUTATION_CAP,
    CardinalityIndex,
    MultiIndex,
    Permutation,
    apply_permutation,
    as_cardinality,
    cardinality,
    class_multiplicities,
    dense_classes,
    enumerate_nondecreasing,
    epsilon_abs,
    kron_delta,
    mi_factorial,
    multiplicity,
    permutations_of,
    rank,
    sym_dim,
    unrank,
)

from conftest import built_records


def test_cardinality_counts_axis_occurrences():
    card = cardinality(MultiIndex((1, 2, 2), 3))
    assert card == CardinalityIndex((1, 2, 0))
    assert card.degree == 3
    assert card.n == 3


def test_factorial_and_multiplicity():
    card = CardinalityIndex((1, 2, 0))
    assert mi_factorial(card) == 2
    assert multiplicity(card) == 3
    assert multiplicity(CardinalityIndex.zero(4)) == 1
    assert mi_factorial(CardinalityIndex((3, 0, 1))) == 6


def test_canonical_is_nondecreasing():
    index = CardinalityIndex((1, 2, 0)).canonical()
    assert index == MultiIndex((1, 2, 2), 3)
    assert index.is_nondecreasing()
    assert not MultiIndex((2, 1, 2), 3).is_nondecreasing()
    assert MultiIndex((2, 1, 2), 3).sorted() == index


def test_multiindex_validates_axis_range():
    with pytest.raises(ValueError):
        MultiIndex((0, 1), 2)
    with pytest.raises(ValueError):
        MultiIndex((1, 3), 2)
    with pytest.raises(ValueError):
        CardinalityIndex((1, -1))


def test_apply_permutation_example():
    p = Permutation((3, 1, 2))
    index = MultiIndex((1, 2, 2), 3)
    assert apply_permutation(p, index) == MultiIndex((2, 1, 2), 3)
    assert str(apply_permutation(p, index)) == "2,1,2" and str(MultiIndex((), 3)) == ""
    assert [p(r) for r in (1, 2, 3)] == [3, 1, 2]
    for position in (0, 4):
        with pytest.raises(ValueError, match=rf"position {position} out of range 1\.\.3"):
            p(position)
    with pytest.raises(ValueError):
        apply_permutation(p, MultiIndex((1, 2), 3))


def test_permutation_action_composes_contravariantly():
    rng = random.Random(11)
    for _ in range(50):
        l = rng.randint(1, 5)
        n = rng.randint(1, 4)
        p1 = Permutation(tuple(rng.sample(range(1, l + 1), l)))
        p2 = Permutation(tuple(rng.sample(range(1, l + 1), l)))
        index = MultiIndex(tuple(rng.randint(1, n) for _ in range(l)), n)
        twice = apply_permutation(p2, apply_permutation(p1, index))
        assert twice == apply_permutation(p1.compose(p2), index)


def test_permutation_inverse_and_identity():
    rng = random.Random(12)
    for _ in range(20):
        l = rng.randint(1, 6)
        p = Permutation(tuple(rng.sample(range(1, l + 1), l)))
        assert p.compose(p.inverse()) == Permutation.identity(l)
        assert p.inverse().compose(p) == Permutation.identity(l)
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_kron_delta_and_epsilon_examples():
    i = MultiIndex((1, 2, 2), 3)
    assert kron_delta(i, MultiIndex((1, 2, 2), 3)) == 1
    assert kron_delta(i, MultiIndex((2, 1, 2), 3)) == 0
    with pytest.raises(ValueError):
        kron_delta(i, MultiIndex((1, 2), 3))
    assert epsilon_abs(i, MultiIndex((2, 1, 2), 3)) == 1
    assert epsilon_abs(i, MultiIndex((1, 1, 2), 3)) == 0
    assert epsilon_abs(i, MultiIndex((1, 2), 3)) == 0


def test_delta_sum_over_permutations_equals_factorial_times_epsilon():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 4)
        l = rng.randint(1, 4)
        left = MultiIndex(tuple(rng.randint(1, n) for _ in range(l)), n)
        right = MultiIndex(tuple(rng.randint(1, n) for _ in range(l)), n)
        total = sum(kron_delta(left, apply_permutation(p, right)) for p in permutations_of(l))
        assert total == mi_factorial(cardinality(left)) * epsilon_abs(left, right)


def test_epsilon_invariant_under_permutation():
    rng = random.Random(14)
    for _ in range(60):
        n = rng.randint(1, 4)
        l = rng.randint(1, 5)
        left = MultiIndex(tuple(rng.randint(1, n) for _ in range(l)), n)
        right = MultiIndex(tuple(rng.randint(1, n) for _ in range(l)), n)
        p = Permutation(tuple(rng.sample(range(1, l + 1), l)))
        assert epsilon_abs(apply_permutation(p, left), right) == epsilon_abs(left, right)
        assert epsilon_abs(left, apply_permutation(p, right)) == epsilon_abs(left, right)


def test_permutation_cap_is_enforced():
    assert len(list(permutations_of(3))) == 6
    with pytest.raises(ValueError):
        list(permutations_of(PERMUTATION_CAP + 1))


def test_colex_order_n3_l2():
    got = [card.canonical().entries for card in enumerate_nondecreasing(3, 2)]
    assert got == [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)]


def test_colex_order_is_reversed_counts_order():
    """Every count vector of degree l, sorted by its counts read from the last axis down."""
    for n in range(1, 6):
        for l in range(0, 10):
            vectors = [c for c in itertools.product(range(l + 1), repeat=n) if sum(c) == l]
            expected = [CardinalityIndex(c) for c in sorted(vectors, key=lambda c: c[::-1])]
            cards = enumerate_nondecreasing(n, l)
            assert cards == expected
            for pos, card in enumerate(cards):
                assert rank(card) == pos
                assert unrank(n, l, pos) == card


def test_enumeration_builds_no_multi_index(monkeypatch):
    built = built_records(monkeypatch, MultiIndex)
    assert len(enumerate_nondecreasing(4, 6)) == sym_dim(4, 6)
    assert unrank(4, 6, 17) == enumerate_nondecreasing(4, 6)[17]
    assert built == []


def test_multiplicity_of_one_axis_at_a_high_degree():
    assert multiplicity(CardinalityIndex((10**6,))) == 1
    assert class_multiplicities(1, 10**5) == (1,)


def test_rank_examples_n2_l2():
    assert rank(as_cardinality((1, 1), 2)) == 0
    assert rank(as_cardinality((1, 2), 2)) == 1
    assert rank(as_cardinality((2, 2), 2)) == 2


def test_rank_matches_enumeration_position():
    for n in range(1, 6):
        for l in range(0, 7):
            cards = enumerate_nondecreasing(n, l)
            assert len(cards) == sym_dim(n, l)
            for pos, card in enumerate(cards):
                assert rank(card) == pos
                assert unrank(n, l, pos) == card


def test_class_tables_match_brute_force():
    for n in range(1, 5):
        for l in range(0, 7):
            classes, firsts = dense_classes(n, l)
            mults = class_multiplicities(n, l)
            cards = enumerate_nondecreasing(n, l)
            ordered = [MultiIndex(e, n) for e in itertools.product(range(1, n + 1), repeat=l)]
            assert len(classes) == n**l
            assert len(firsts) == len(mults) == len(cards)
            for offset, index in enumerate(ordered):
                assert classes[offset] == rank(cardinality(index.sorted()))
            for r, card in enumerate(cards):
                assert mults[r] == multiplicity(card)
                assert ordered[firsts[r]] == card.canonical()
                assert classes.index(r) == firsts[r]


def sorted_tuple_classes(n: int, l: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``dense_classes`` by its definition: each dense offset's sorted axes, looked up by rank."""
    canonical = [card.canonical().entries for card in enumerate_nondecreasing(n, l)]
    ranks = {axes: r for r, axes in enumerate(canonical)}
    ordered = list(itertools.product(range(1, n + 1), repeat=l))
    classes = tuple(ranks[tuple(sorted(entries))] for entries in ordered)
    offsets = {axes: offset for offset, axes in enumerate(ordered)}
    return classes, tuple(offsets[axes] for axes in canonical)


def test_dense_classes_match_the_sorted_tuple_definition():
    # Every shape of at most 10**4 offsets up to n = 12 and l = 13, and wide shapes at l = 0, 1, 2
    # (listing the classes of n = 10**4 alone takes tens of seconds).
    shapes = [(n, l) for n in range(1, 13) for l in range(14) if n**l <= 10**4]
    for n, l in shapes + [(100, 2), (1000, 1), (1000, 0)]:
        assert dense_classes.__wrapped__(n, l) == sorted_tuple_classes(n, l)


def test_unrank_rejects_out_of_range():
    with pytest.raises(ValueError):
        unrank(3, 2, 6)
    with pytest.raises(ValueError):
        unrank(3, 2, -1)


def test_sym_dim_and_multiplicity_sum():
    assert sym_dim(3, 2) == 6
    assert sym_dim(2, 3) == 4
    for n in range(1, 5):
        for l in range(0, 5):
            assert sym_dim(n, l) == math.comb(n + l - 1, l)
            total = sum(multiplicity(card) for card in enumerate_nondecreasing(n, l))
            assert total == n**l


def test_cardinality_arithmetic_and_order():
    a = CardinalityIndex((1, 2, 0))
    b = CardinalityIndex((0, 1, 1))
    assert a + b == CardinalityIndex((1, 3, 1))
    assert (a + b) - b == a
    assert CardinalityIndex((0, 1, 0)) <= a
    assert not CardinalityIndex((2, 0, 0)) <= a
    with pytest.raises(ValueError):
        a - CardinalityIndex((2, 0, 0))
    with pytest.raises(ValueError):
        a + CardinalityIndex((1, 1))


def test_unit_and_zero_constructors():
    assert CardinalityIndex.unit(3, 2) == CardinalityIndex((0, 1, 0))
    assert CardinalityIndex.zero(3).degree == 0
    with pytest.raises(ValueError):
        CardinalityIndex.unit(3, 4)


def test_as_cardinality_accepts_all_spellings():
    card = CardinalityIndex((1, 2, 0))
    assert as_cardinality(card, 3) == card
    assert as_cardinality(MultiIndex((2, 1, 2), 3), 3) == card
    assert as_cardinality((1, 2, 2), 3) == card
    assert as_cardinality((), 3) == CardinalityIndex.zero(3)
    with pytest.raises(ValueError):
        as_cardinality(card, 2)


def test_concat_merges_degrees():
    left = MultiIndex((1, 3), 3)
    right = MultiIndex((2,), 3)
    assert left.concat(right) == MultiIndex((1, 3, 2), 3)
    assert cardinality(left.concat(right)) == cardinality(left) + cardinality(right)
