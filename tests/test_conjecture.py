import itertools

import pytest

from cfckit import classify, conjecture, perms
from cfckit.errors import RankTooLarge

from oracles import conjecture_report_by_sweep


def test_direction_changes_examples():
    assert conjecture.direction_changes((1, 2, 4, 3, 5)) == frozenset({3, 4})
    assert conjecture.direction_changes((1, 3, 5)) == frozenset()
    assert conjecture.direction_changes((1, 4, 3, 5, 2)) == frozenset({3, 4, 5})


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


def test_conjecture_predicate_examples():
    assert conjecture.conjecture_predicate(perms.to_permutation((1, 2, 3, 4), 4))
    assert not conjecture.conjecture_predicate(perms.from_cycles([(1, 4, 3, 5, 2)], 5))
    assert conjecture.conjecture_predicate(perms.identity(5))


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
        conjecture.check_conjecture(9)
    with pytest.raises(RankTooLarge):
        conjecture.check_conjecture(3, max_rank=2)


@pytest.mark.parametrize("rank", range(1, 8))
def test_check_conjecture_matches_the_full_sweep(rank):
    assert conjecture.check_conjecture(rank) == conjecture_report_by_sweep(rank)


@pytest.mark.parametrize(
    "degree, size",
    [(1, 1), (2, 2), (3, 5), (4, 13), (5, 34), (6, 89), (7, 233), (8, 610), (9, 1597)],
)
def test_predicate_permutations_are_exactly_the_predicate_set(degree, size):
    built = list(conjecture.iter_predicate_permutations(degree))
    everything = itertools.permutations(range(1, degree + 1))
    expected = {p for p in everything if conjecture.conjecture_predicate(p)}
    assert len(built) == len(set(built)) == size
    assert set(built) == expected


def test_check_conjecture_past_the_default_cap():
    report = conjecture.check_conjecture(9, max_rank=9)
    assert report.elements_checked == 3628800
    assert report.agree


def test_candidate_generators_are_lazy():
    # F(59) permutations each: only a lazy generator gets past its first two
    swap = (*range(1, 29), 30, 29)
    for generated in (perms.iter_cfc_permutations(30), conjecture.iter_predicate_permutations(30)):
        assert list(itertools.islice(generated, 2)) == [tuple(range(1, 31)), swap]
