import itertools
import random
import tracemalloc

import pytest

from cfckit import classify, heaps, perms, words
from cfckit.errors import ClosureTooLarge, InvalidGenerator, NotReduced

from oracles import (
    cayley_lengths,
    commutation_class_by_walk,
    definition,
    distinct_letter_classes_by_walk,
    single_commutation_class,
    stembridge_scan,
    word_image,
)


def test_m_value_table():
    assert words.m_value(2, 2, 4) == 1
    assert words.m_value(1, 3, 4) == 2
    assert words.m_value(3, 4, 4) == 3
    assert words.m_value(4, 3, 4) == 3


def test_m_value_rejects_out_of_range():
    with pytest.raises(InvalidGenerator):
        words.m_value(0, 1, 3)
    with pytest.raises(InvalidGenerator):
        words.m_value(1, 4, 3)


def test_cyclic_shift():
    assert words.cyclic_shift((3, 1, 2, 4, 5)) == (1, 2, 4, 5, 3)
    assert words.cyclic_shift(()) == ()
    assert words.cyclic_shift((1, 2, 4)) == (2, 4, 1)


def test_support():
    assert words.support((1, 2, 4, 5, 2, 6, 5)) == frozenset({1, 2, 4, 5, 6})
    assert words.support(()) == frozenset()
    assert words.support((1, 2, 3, 4)) == frozenset({1, 2, 3, 4})


def test_is_reduced_examples():
    assert not words.is_reduced((1, 2, 4, 5, 2, 6, 5), 6)
    assert words.is_reduced((1, 4, 5, 6, 5), 6)
    assert words.is_reduced((), 3)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_length_oracle_agrees_with_cayley_bfs(rank):
    dist = cayley_lengths(rank + 1)
    for p, d in dist.items():
        assert perms.inversions(p) == d
    # every word up to a length comfortably past the longest element
    max_len = rank * (rank + 1) // 2 + 1
    for length in range(max_len + 1):
        for word in itertools.product(range(1, rank + 1), repeat=length):
            expected = dist[perms.to_permutation(word, rank)] == length
            assert words.is_reduced(word, rank) == expected


def test_reduce_word_examples():
    got = words.canonical_word((1, 2, 4, 5, 2, 6, 5), 6)
    assert len(got) == 5
    assert perms.to_permutation(got, 6) == perms.to_permutation((1, 4, 5, 6, 5), 6)
    assert words.canonical_word((1, 1), 2) == ()
    got = words.canonical_word((1, 2, 1, 2), 3)
    assert len(got) == 2
    assert perms.to_permutation(got, 3) == perms.to_permutation((2, 1), 3)


def test_reduce_preserves_image_and_is_idempotent_on_reduced_words():
    for word in [(2, 1, 2, 1), (3, 3), (1, 2, 3, 1, 2, 1), (2, 3, 2, 3)]:
        got = words.canonical_word(word, 3)
        assert words.is_reduced(got, 3)
        assert perms.to_permutation(got, 3) == perms.to_permutation(word, 3)
        again = words.canonical_word(got, 3)
        assert len(again) == len(got)
        assert perms.to_permutation(again, 3) == perms.to_permutation(got, 3)


def test_reduced_expressions_examples():
    assert words.reduced_expressions((1, 2, 3, 4, 2), 4) == frozenset(
        {(1, 2, 3, 4, 2), (1, 2, 3, 2, 4), (1, 3, 2, 3, 4), (3, 1, 2, 3, 4)}
    )
    assert words.reduced_expressions((1,), 2) == frozenset({(1,)})
    assert words.reduced_expressions((2, 1, 3, 2), 3) == frozenset(
        {(2, 1, 3, 2), (2, 3, 1, 2)}
    )


def test_reduced_expressions_requires_reduced():
    with pytest.raises(NotReduced):
        words.reduced_expressions((1, 1), 2)


def test_reduced_expressions_closure_properties():
    # Matsumoto soundness and closedness under both move kinds
    for word, rank in [((1, 2, 3, 4, 2), 4), ((2, 1, 3, 2), 3), ((1, 2, 1), 2)]:
        closure = words.reduced_expressions(word, rank)
        image = perms.to_permutation(word, rank)
        sup = words.support(word)
        for u in closure:
            assert len(u) == len(word)
            assert perms.to_permutation(u, rank) == image
            assert words.support(u) == sup
            for v in words.commutation_moves(u):
                assert v in closure
            for v in words.braid_moves(u):
                assert v in closure


def test_ascii_int_reads_ascii_digits_only():
    assert words.ascii_int("12") == 12
    assert words.ascii_int(" 007\n") == 7
    for text in ("", " ", "-1", "+1", "1_0", "1.0", "\u0661", "\uff11", "1 2", "0x1"):
        with pytest.raises(ValueError):
            words.ascii_int(text)


def test_closure_cap_env_override(monkeypatch):
    monkeypatch.setenv(words.CLOSURE_CAP_ENV, "2")
    with pytest.raises(ClosureTooLarge):
        words.reduced_expressions((1, 2, 3, 4, 2), 4)


WALKED = (1, 3, 5, 2, 4)  # CFC and cyclically reduced
# operation -> (call, words its largest walk holds): 16 reduced expressions,
# all in one commutation class, and 120 words in the cyclic orbit
CLOSURE_WALKS = {
    "reduced_expressions": (lambda: words.reduced_expressions(WALKED, 5), 16),
    "commutation_class": (lambda: words.commutation_class(WALKED, 5), 16),
    "commutation_classes": (lambda: words.commutation_classes(WALKED, 5), 16),
    "cyclic_orbit": (lambda: heaps.cyclic_orbit(WALKED, 5), 120),
    "is_fc(stembridge_scan)": (lambda: stembridge_scan(WALKED, 5), 16),
    "is_fc(single_commutation_class)": (lambda: single_commutation_class(WALKED, 5), 16),
    "is_cfc(definition)": (lambda: definition(WALKED, 5), 16),
    "is_cyclically_reduced": (lambda: classify.is_cyclically_reduced(WALKED, 5), 16),
}


@pytest.mark.parametrize("operation", sorted(CLOSURE_WALKS))
def test_every_closure_stops_at_the_cap_and_names_its_operation(monkeypatch, operation):
    call, size = CLOSURE_WALKS[operation]
    monkeypatch.setenv(words.CLOSURE_CAP_ENV, str(size - 1))
    with pytest.raises(ClosureTooLarge) as info:
        call()
    assert str(info.value) == (
        f"{operation}: visited {size} reduced words, past the cap of {size - 1}"
    )
    monkeypatch.setenv(words.CLOSURE_CAP_ENV, str(size))
    call()


def test_commutation_class_builder_stops_at_the_cap(monkeypatch):
    order = list(range(1, 41))
    random.Random(40).shuffle(order)
    monkeypatch.setenv(words.CLOSURE_CAP_ENV, "1000")
    tracemalloc.start()
    try:
        with pytest.raises(ClosureTooLarge) as info:
            words.commutation_class(order, 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == "commutation_class: visited 1001 reduced words, past the cap of 1000"
    assert peak < 5 * 2**20


@pytest.mark.parametrize("rank, distinct, fibonacci", [
    (1, 2, 2), (2, 5, 5), (3, 16, 13), (4, 65, 34), (5, 326, 89), (6, 1957, 233),
    (7, 13700, 610), (8, 109601, 1597),
])
def test_distinct_letter_classes_are_the_sorted_commutation_classes(rank, distinct, fibonacci):
    # the leaves of a class table: F(2*rank+1) heaps, one per CFC element
    leaves = words.distinct_letter_classes(rank)
    listed = [w for leaf in leaves for w in leaf]
    letters = range(1, rank + 1)
    every = {w for k in range(rank + 1) for w in itertools.permutations(letters, k)}
    assert len(listed) == len(set(listed)) == len(every) == distinct
    assert set(listed) == every
    assert len(leaves) == fibonacci
    for leaf in leaves:
        assert all(u < v for u, v in zip(leaf, leaf[1:]))
        assert leaf == tuple(sorted(words.linear_extensions(leaf[0], "demo")))


@pytest.mark.parametrize("rank", range(1, 9))
def test_distinct_letter_classes_match_the_walk(rank):
    # leaf for leaf, each the identical sorted tuple; the two list them in
    # different orders, so compare them sorted
    assert sorted(words.distinct_letter_classes(rank)) == sorted(distinct_letter_classes_by_walk(rank))


@pytest.mark.parametrize("rank", range(3, 7))
def test_distinct_letter_classes_stop_at_the_cap_of_the_walk(monkeypatch, rank):
    largest = max(map(len, distinct_letter_classes_by_walk(rank)))
    monkeypatch.setenv(words.CLOSURE_CAP_ENV, str(largest - 1))
    messages = []
    for build in (words.distinct_letter_classes, distinct_letter_classes_by_walk):
        with pytest.raises(ClosureTooLarge) as info:
            build(rank)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == (
        f"commutation_class: visited {largest} reduced words, past the cap of {largest - 1}"
    )
    monkeypatch.setenv(words.CLOSURE_CAP_ENV, str(largest))
    assert sorted(words.distinct_letter_classes(rank)) == sorted(distinct_letter_classes_by_walk(rank))


def reduced_words(rank, max_length):
    """Every reduced word of length at most max_length, by length."""
    level = [()]
    while level:
        yield from level
        if len(level[0]) == max_length:
            return
        level = [
            w + (g,) for w in level for g in range(1, rank + 1) if words.is_reduced(w + (g,), rank)
        ]


@pytest.mark.parametrize("rank, max_length", [(1, 1), (2, 3), (3, 6), (4, 10), (5, 7)])
def test_commutation_class_matches_the_walk(rank, max_length):
    for w in reduced_words(rank, max_length):
        assert words.commutation_class(w, rank) == commutation_class_by_walk(w)


def test_commutation_classes_examples():
    got = words.commutation_classes((1, 2, 3, 2, 4), 4)
    assert [sorted(c) for c in got] == [
        [(1, 2, 3, 2, 4), (1, 2, 3, 4, 2)],
        [(1, 3, 2, 3, 4), (3, 1, 2, 3, 4)],
    ]
    got = words.commutation_classes((2, 1, 3, 2), 3)
    assert len(got) == 1 and len(got[0]) == 2
    assert words.commutation_classes((), 3) == (frozenset({()}),)


def test_commutation_classes_partition_reduced_expressions():
    for word, rank in [((1, 2, 3, 4, 2), 4), ((3, 2, 1, 3), 3)]:
        closure = words.reduced_expressions(word, rank)
        blocks = words.commutation_classes(word, rank)
        union = set()
        for block in blocks:
            assert not (union & block)
            union |= block
        assert union == closure


def test_canonical_word_is_lex_least_reduced_expression():
    for p in itertools.permutations(range(1, 5)):
        w = perms.word_from_permutation(p)
        assert words.canonical_word(w, 3) == min(words.reduced_expressions(w, 3))


def test_word_image_matches_independent_map():
    for rank in (2, 3, 4):
        for length in range(5):
            for word in itertools.product(range(1, rank + 1), repeat=length):
                assert perms.to_permutation(word, rank) == word_image(word, rank + 1)
