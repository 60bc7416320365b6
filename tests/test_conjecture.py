import itertools

import pytest

from cfckit import classify, conjecture, perms
from cfckit.errors import NotAPermutation, RankTooLarge

from oracles import (
    conjecture_predicate_by_cycles,
    conjecture_report_by_sweep,
    conjecture_report_by_two_passes,
    coxeter_words_by_orientation,
    from_cycles,
    iter_predicate_permutations,
    predicate_permutations_by_cycle_lists,
)


def test_direction_changes_examples():
    assert conjecture.direction_changes((1, 2, 4, 3, 5)) == frozenset({3, 4})
    assert conjecture.direction_changes((1, 3, 5)) == frozenset()
    assert conjecture.direction_changes((1, 4, 3, 5, 2)) == frozenset({3, 4, 5})
    assert conjecture.direction_changes(()) == frozenset()


def test_direction_changes_normalizes_rotation():
    assert conjecture.direction_changes((4, 3, 5, 1, 2)) == frozenset({3, 4})


def test_direction_changes_never_report_the_minimum():
    for degree in (4, 5, 6):
        for p in itertools.permutations(range(1, degree + 1)):
            for cycle in perms.cycles(p):
                changes = conjecture.direction_changes(cycle)
                assert changes <= set(cycle) - {min(cycle)}


def test_has_connected_support_examples():
    assert not conjecture.has_connected_support((1, 3, 5, 7))
    assert conjecture.has_connected_support((2, 3, 4))
    assert conjecture.has_connected_support((6, 7))
    assert conjecture.has_connected_support(())


def test_conjecture_predicate_examples():
    assert conjecture.conjecture_predicate(perms.to_permutation((1, 2, 3, 4), 4))
    assert not conjecture.conjecture_predicate(from_cycles([(1, 4, 3, 5, 2)], 5))
    assert conjecture.conjecture_predicate((1, 2, 3, 4, 5))


def test_conjecture_predicate_rejects_a_non_permutation():
    # a value hit twice never closes its cycle: the walk stops at the degree
    with pytest.raises(NotAPermutation, match="not a permutation"):
        conjecture.conjecture_predicate((2, 2))


@pytest.mark.parametrize("line", [(0, 1), (3, 1), (2, 2, 1), (1, 3, 3), (2, 3, 2)])
def test_conjecture_predicate_walk_rejects_what_it_reads(line):
    # an entry below the cycle's least entry or past the degree, or a walk
    # that does not close, is not a permutation
    with pytest.raises(NotAPermutation) as info:
        conjecture.conjecture_predicate(line)
    assert str(info.value) == f"{list(line)} is not a permutation of 1..{len(line)}"


def test_conjecture_predicate_raises_exactly_for_non_permutations():
    # every sequence of length 1-5 with entries 0..length+1: a False exit
    # stops before it reads every entry, so it must still reject what it did
    # not read, such as (3, 2, 1, 1) and (3, 0, 1)
    for length in range(1, 6):
        for line in itertools.product(range(length + 2), repeat=length):
            if perms.is_one_line(line):
                assert conjecture.conjecture_predicate(line) == conjecture_predicate_by_cycles(line)
            else:
                with pytest.raises(NotAPermutation):
                    conjecture.conjecture_predicate(line)


@pytest.mark.parametrize("degree", range(1, 9))
def test_one_pass_predicate_matches_the_cycle_by_cycle_oracle(degree):
    for p in itertools.permutations(range(1, degree + 1)):
        assert conjecture.conjecture_predicate(p) == conjecture_predicate_by_cycles(p), p


def test_predicate_on_all_shift_images_of_a_coxeter_element():
    # every cyclic shift of 1234 stays within the predicate
    word = (1, 2, 3, 4)
    for _ in range(4):
        word = word[1:] + word[:1]
        assert conjecture.conjecture_predicate(perms.to_permutation(word, 4))


@pytest.mark.parametrize("rank,size", [(1, 2), (2, 6), (3, 24), (4, 120)])
def test_check_conjecture_small_ranks(rank, size):
    report = conjecture.check_conjecture(rank)
    assert report.agree
    assert report.elements_checked == size
    assert report.counterexamples == ()


def test_check_conjecture_matches_direct_comparison():
    report = conjecture.check_conjecture(3)
    for p in itertools.permutations(range(1, 5)):
        expected = classify.is_cfc(perms.word_from_permutation(p), 3).is_cfc
        assert conjecture.conjecture_predicate(p) == expected
    assert report.agree


def test_check_conjecture_rank_cap():
    with pytest.raises(RankTooLarge):
        conjecture.check_conjecture(18)
    with pytest.raises(RankTooLarge):
        conjecture.check_conjecture(3, max_rank=2)


@pytest.mark.parametrize("rank", range(1, 8))
def test_check_conjecture_matches_the_full_sweep(rank):
    assert conjecture.check_conjecture(rank) == conjecture_report_by_sweep(rank)


@pytest.mark.parametrize("rank", range(1, 11))
def test_check_conjecture_matches_the_two_pass_oracle(rank):
    # the oracle builds its predicate side from cycle lists and its CFC side
    # under the CFC rule, so no mutant of _cycle_blocks or of the Coxeter
    # rule reaches it
    assert conjecture.check_conjecture(rank) == conjecture_report_by_two_passes(rank)


@pytest.mark.parametrize("k", range(2, 17))
def test_coxeter_images_are_the_unimodal_cycles(k):
    # the per-interval fact the check rests on, without _cycle_blocks: the
    # 2^(k-2) Coxeter elements of S_k have distinct images, each a single
    # k-cycle that satisfies the predicate read cycle by cycle
    coxeter = classify.enumerate_coxeter(k - 1, max_rank=k - 1)
    images = {perms.to_permutation(w, k - 1) for w in coxeter}
    assert len(images) == len(coxeter) == 2 ** (k - 2)
    for p in images:
        assert [len(c) for c in perms.cycles(p)] == [k]
        assert conjecture_predicate_by_cycles(p), p


def _shape(block, start):
    """A block read back onto 1..len(block) from the interval at start."""
    return tuple(v - start + 1 for v in block)


@pytest.mark.parametrize("rank", range(2, 8))
def test_a_dropped_cycle_block_is_reported_wherever_it_occurs(monkeypatch, rank):
    # the counterexamples are exactly the predicate permutations that hold
    # the dropped block on some interval, CFC and reported to fail the predicate
    blocks = conjecture._cycle_blocks
    dropped = list(blocks(1, 3))[1]
    monkeypatch.setattr(
        conjecture, "_cycle_blocks", lambda a, b: [x for x in blocks(a, b) if _shape(x, a) != dropped]
    )
    degree = rank + 1
    holding = [
        p
        for p in predicate_permutations_by_cycle_lists(degree)
        if any(_shape(p[i : i + 3], i + 1) == dropped for i in range(degree - 2))
    ]
    report = conjecture.check_conjecture(rank)
    assert not report.agree
    expected = [(perms.word_from_permutation(p), p, False, True) for p in sorted(holding)]
    assert holding and report.counterexamples == tuple(expected)


@pytest.mark.parametrize("rank", range(3, 8))
def test_a_cycle_block_with_two_entries_swapped_is_reported(monkeypatch, rank):
    # (2, 3, 4, 1) becomes (3, 2, 4, 1): the Coxeter side keeps a block the
    # cycle side lost, and the cycle side gains one that is not CFC
    blocks = conjecture._cycle_blocks

    def swapped(a, b):
        found = list(blocks(a, b))
        if b - a == 3:
            first = found[0]
            found[0] = (first[1], first[0], *first[2:])
        return found

    monkeypatch.setattr(conjecture, "_cycle_blocks", swapped)
    report = conjecture.check_conjecture(rank)
    assert not report.agree
    assert {c[2:] for c in report.counterexamples} == {(False, True), (True, False)}


@pytest.mark.parametrize("rank", range(2, 8))
def test_a_coxeter_rule_that_drops_one_orientation_is_reported(monkeypatch, rank):
    # no run may follow the run (1,): the Coxeter words in which 1 comes
    # before 2 are lost, and the counterexamples are exactly the predicate
    # permutations that hold one of their images on some interval, reported
    # to satisfy the predicate without being CFC
    rule = classify._coxeter_follows
    monkeypatch.setattr(
        classify,
        "_coxeter_follows",
        lambda a, last_a, last_b: rule(a, last_a, last_b) and (last_a, last_b) != (1, 1),
    )
    degree = rank + 1
    lost = {
        perms.to_permutation(w, k - 1)
        for k in range(3, degree + 1)
        for w in coxeter_words_by_orientation(k - 1)
        if w.index(1) < w.index(2)
    }
    holding = [
        p
        for p in predicate_permutations_by_cycle_lists(degree)
        if any(_shape(p[i:j], i + 1) in lost for i in range(degree) for j in range(i + 3, degree + 1))
    ]
    report = conjecture.check_conjecture(rank)
    assert not report.agree
    expected = [(perms.word_from_permutation(p), p, True, False) for p in sorted(holding)]
    assert holding and report.counterexamples == tuple(expected)


@pytest.mark.parametrize(
    "degree, size",
    [(1, 1), (2, 2), (3, 5), (4, 13), (5, 34), (6, 89), (7, 233), (8, 610), (9, 1597)],
)
def test_predicate_permutations_are_exactly_the_predicate_set(degree, size):
    built = list(iter_predicate_permutations(degree))
    everything = itertools.permutations(range(1, degree + 1))
    expected = {p for p in everything if conjecture.conjecture_predicate(p)}
    assert len(built) == len(set(built)) == size
    assert set(built) == expected


@pytest.mark.parametrize("degree", range(10))
def test_predicate_permutations_keep_the_cycle_list_order(degree):
    # the interval blocks give the recursive cycle lists' permutations, in their order
    built = list(iter_predicate_permutations(degree))
    assert built == list(predicate_permutations_by_cycle_lists(degree))


def test_check_conjecture_past_the_default_cap():
    report = conjecture.check_conjecture(9, max_rank=9)
    assert report.elements_checked == 3628800
    assert report.agree


def test_candidate_generators_are_lazy():
    # F(59) permutations each: only a lazy generator gets past its first two
    swap = (*range(1, 29), 30, 29)
    cfc_words = classify._run_words(29, classify._cfc_follows)
    cfc_images = (perms.to_permutation(w, 29) for w in cfc_words)
    for generated in (cfc_images, iter_predicate_permutations(30)):
        assert list(itertools.islice(generated, 2)) == [tuple(range(1, 31)), swap]
