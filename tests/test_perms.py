import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from cfckit import classify, perms, words
from cfckit.errors import DegreeMismatch, NotAPermutation

from oracles import (
    cayley_lengths,
    conjugacy_orbit,
    from_cycles,
    iter_321_avoiding,
    naive_find_321,
    naive_find_3412,
    word_from_permutation_by_restart,
)


def test_to_permutation_examples():
    assert perms.to_permutation((1, 2, 3, 4, 2), 4) == (2, 4, 3, 5, 1)
    assert perms.cycles((2, 4, 3, 5, 1)) == ((1, 2, 4, 5),)
    assert perms.to_permutation((2, 1, 3, 2), 3) == (3, 4, 1, 2)
    # image fixed by the right-to-left composition convention
    assert perms.to_permutation((3, 2, 1, 3), 3) == (4, 1, 3, 2)
    assert perms.cycles((4, 1, 3, 2)) == ((1, 4, 2),)
    assert perms.to_permutation((2, 3, 4, 5, 1, 3), 5) == (3, 1, 5, 4, 6, 2)


def test_composition_is_right_to_left():
    # the image of a concatenation composes with the right factor acting first
    u, v = (1,), (2,)
    pu = perms.to_permutation(u, 2)
    pv = perms.to_permutation(v, 2)
    assert perms.to_permutation(u + v, 2) == perms.compose(pu, pv) == (2, 3, 1)
    assert perms.to_permutation(u + v, 2) != perms.compose(pv, pu)


@given(
    st.integers(min_value=2, max_value=5).flatmap(
        lambda rank: st.tuples(
            st.just(rank),
            st.lists(st.integers(1, rank), max_size=8),
            st.lists(st.integers(1, rank), max_size=8),
        )
    )
)
def test_to_permutation_is_a_monoid_homomorphism(data):
    rank, u, v = data
    u, v = tuple(u), tuple(v)
    lhs = perms.to_permutation(u + v, rank)
    rhs = perms.compose(perms.to_permutation(u, rank), perms.to_permutation(v, rank))
    assert lhs == rhs


def test_inversions_examples():
    assert perms.inversions((2, 4, 3, 5, 1)) == 5
    assert perms.inversions((1, 2, 3, 4, 5, 6)) == 0
    # cross-checked against the Cayley-graph BFS oracle below
    assert perms.inversions((3, 1, 5, 4, 6, 2)) == 6


def test_inversions_example_against_cayley_oracle():
    dist = cayley_lengths(6)
    assert dist[(3, 1, 5, 4, 6, 2)] == 6
    # hence the length-6 expression mapping onto it is reduced
    assert words.is_reduced((2, 3, 4, 5, 1, 3), 5)


def test_cycles_examples_and_round_trip():
    assert perms.cycles((3, 1, 5, 4, 6, 2)) == ((1, 3, 5, 6, 2),)
    assert perms.cycles((1, 2, 3, 4)) == ()
    for p in itertools.permutations(range(1, 6)):
        assert from_cycles(perms.cycles(p), 5) == p


def test_pattern_examples():
    assert perms.find_321((3, 1, 5, 4, 6, 2)) is not None
    assert perms.find_321((2, 4, 1, 3)) is None
    assert perms.find_321((2, 4, 3, 1)) is not None
    assert perms.find_3412((3, 4, 1, 2)) is not None
    assert perms.find_3412((2, 4, 1, 3)) is None
    assert perms.find_3412((1, 2, 3, 4)) is None


def test_pattern_witnesses_are_real():
    hit = perms.find_321((3, 1, 5, 4, 6, 2))
    i, j, k = hit
    p = (3, 1, 5, 4, 6, 2)
    assert i < j < k and p[i - 1] > p[j - 1] > p[k - 1]
    hit = perms.find_3412((3, 4, 1, 2))
    i, j, k, l = hit
    p = (3, 4, 1, 2)
    assert p[k - 1] < p[l - 1] < p[i - 1] < p[j - 1]


def _holds_321(p):
    # a 321 exists iff some entry has a larger one before it and a smaller one after it
    before = list(itertools.accumulate(p, max))
    after = list(itertools.accumulate(reversed(p), min))[::-1]
    return any(before[j - 1] > p[j] > after[j + 1] for j in range(1, len(p) - 1))


@pytest.mark.parametrize("degree", range(1, 13))
def test_321_avoiders_are_generated_once_each_in_order(degree):
    out = list(iter_321_avoiding(degree))
    assert len(out) == math.comb(2 * degree, degree) // (degree + 1)
    assert all(a < b for a, b in zip(out, out[1:]))
    if degree <= 10:
        # with the count and the order, this makes out every 321-avoider
        assert all(perms.is_one_line(p) and not _holds_321(p) for p in out)


def _fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@pytest.mark.parametrize("degree", range(2, 11))
def test_interval_word_images_are_the_cfc_321_avoiders_once_each(degree):
    rank = degree - 1
    out = [perms.to_permutation(w, rank) for w in classify._run_words(rank, classify._cfc_follows)]
    assert len(out) == len(set(out)) == _fibonacci(2 * degree - 1)
    expected = {p for p in iter_321_avoiding(degree) if classify.cfc_pattern(p) is None}
    assert set(out) == expected


@pytest.mark.parametrize("degree", range(1, 8))
def test_patterns_agree_with_naive_scans(degree):
    # the CLI prints the positions, so any faster scan must return the
    # lexicographically first occurrence, as the first-match scans do
    for p in itertools.permutations(range(1, degree + 1)):
        assert perms.find_321(p) == naive_find_321(p)
        assert perms.find_3412(p) == naive_find_3412(p)


@st.composite
def _scan_inputs(draw):
    # uniform permutations hold both patterns early; the images of short
    # words stay near the identity, so their first occurrence comes late
    degree = draw(st.integers(8, 14))
    if draw(st.booleans()):
        return tuple(draw(st.permutations(range(1, degree + 1))))
    word = draw(st.lists(st.integers(1, degree - 1), max_size=degree))
    return perms.to_permutation(tuple(word), degree - 1)


@given(_scan_inputs())
def test_pattern_witnesses_are_the_first_occurrences_at_larger_degrees(p):
    assert perms.find_321(p) == naive_find_321(p)
    assert perms.find_3412(p) == naive_find_3412(p)


def test_conjugate_examples():
    one = perms.to_permutation((1,), 2)
    x = perms.to_permutation((1, 2), 2)
    assert perms.conjugate(one, x) == perms.to_permutation((2,), 2)
    p = (2, 4, 3, 5, 1)
    assert perms.conjugate(p, (1, 2, 3, 4, 5)) == p
    w = perms.to_permutation((3, 4, 5, 6), 7)
    x = perms.to_permutation((3, 4, 5, 6, 7), 7)
    assert perms.conjugate(w, x) == perms.to_permutation((4, 5, 6, 7), 7)


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        perms.conjugate((1, 2), (1, 2, 3))
    with pytest.raises(DegreeMismatch):
        perms.same_cycle_type((1, 2), (1, 2, 3))


def test_same_cycle_type_examples():
    a = perms.to_permutation((1, 2, 3), 4)
    b = perms.to_permutation((2, 3, 4), 4)
    assert perms.same_cycle_type(a, b)
    a = perms.to_permutation((1, 2), 3)
    b = perms.to_permutation((1, 3), 3)
    assert not perms.same_cycle_type(a, b)
    assert perms.same_cycle_type(a, a)


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_cycle_type_decides_conjugacy_exhaustively(degree):
    elems = list(itertools.permutations(range(1, degree + 1)))
    orbits = {p: conjugacy_orbit(p) for p in elems}
    for p in elems:
        for q in elems:
            assert perms.same_cycle_type(p, q) == (q in orbits[p])


def test_cycle_type_decides_conjugacy_degree_six():
    elems = list(itertools.permutations(range(1, 7)))
    by_type = {}
    for p in elems:
        by_type.setdefault(perms.cycle_type(p), set()).add(p)
    # each cycle-type block is exactly one conjugation orbit
    for block in by_type.values():
        assert conjugacy_orbit(next(iter(block))) == block


def test_word_from_permutation_round_trip_and_lex_minimality():
    for p in itertools.permutations(range(1, 6)):
        w = perms.word_from_permutation(p)
        assert perms.to_permutation(w, 4) == p
        assert len(w) == perms.inversions(p)
    for p in itertools.permutations(range(1, 5)):
        w = perms.word_from_permutation(p)
        assert w == min(words.reduced_expressions(w, 3))


@pytest.mark.parametrize("line", [(2, 2, 1), (0, 1), (1, 3), (5,)])
def test_word_from_permutation_rejects_a_non_permutation(line):
    with pytest.raises(NotAPermutation) as info:
        perms.word_from_permutation(line)
    assert info.value.code == "not_a_permutation"
    assert str(info.value) == f"{list(line)} is not a permutation of 1..{len(line)}"


@pytest.mark.parametrize("line", [(2, 2, 1), (0, 1), (1, 3), (5,), (1, 0), (2, 2)])
def test_cycle_walk_rejects_a_non_permutation(line):
    # the walk reads every entry, so a repeated, missing or outside value
    # gets the same answer from each reader of cycles
    message = f"{list(line)} is not a permutation of 1..{len(line)}"
    for read in (perms.cycles, perms.cycle_type, lambda p: perms.same_cycle_type(p, p)):
        with pytest.raises(NotAPermutation) as info:
            read(line)
        assert info.value.code == "not_a_permutation"
        assert str(info.value) == message


@pytest.mark.parametrize("degree", range(1, 9))
def test_resuming_lift_matches_the_restart_oracle(degree):
    for p in itertools.permutations(range(1, degree + 1)):
        assert perms.word_from_permutation(p) == word_from_permutation_by_restart(p)


def test_resuming_lift_matches_the_restart_oracle_at_degree_201():
    rng = random.Random(201)
    for _ in range(200):
        line = list(range(1, 202))
        rng.shuffle(line)
        p = tuple(line)
        assert perms.word_from_permutation(p) == word_from_permutation_by_restart(p)
