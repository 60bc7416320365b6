import inspect
import itertools

import pytest

from cfckit import classify, perms, words
from cfckit.errors import ClosureTooLarge, NotReduced, RankTooLarge

from oracles import (
    CFC_ROUTES,
    FC_ROUTES,
    cfc_words_by_orientation,
    coxeter_words_by_orientation,
    definition,
    fc_words_by_321_avoiders,
    fc_words_by_sweep,
    single_commutation_class,
    stembridge_scan,
    support_once,
)


def all_elements(rank):
    for p in itertools.permutations(range(1, rank + 2)):
        yield perms.word_from_permutation(p)


@pytest.mark.parametrize("method", FC_ROUTES)
def test_is_fc_examples(method):
    is_fc = FC_ROUTES[method]
    assert is_fc((2, 1, 3, 2), 3).is_fc
    verdict = is_fc((1, 4, 3, 5, 2, 1, 3, 4), 5)
    assert not verdict.is_fc
    assert verdict.witness is not None
    assert verdict.method == method
    assert not is_fc((3, 2, 1, 3), 3).is_fc


def test_fc_witness_payloads():
    v = stembridge_scan((3, 2, 1, 3), 3)
    word, pos = tuple(v.witness["word"]), v.witness["position"]
    a, b, c = word[pos : pos + 3]
    assert a == c and abs(a - b) == 1
    assert word in words.reduced_expressions((3, 2, 1, 3), 3)

    v = single_commutation_class((3, 2, 1, 3), 3)
    other = tuple(v.witness["word"])
    assert other in words.reduced_expressions((3, 2, 1, 3), 3)
    assert other not in words.commutation_class((3, 2, 1, 3), 3)

    v = classify.is_fc((3, 2, 1, 3), 3)
    i, j, k = v.witness["positions"]
    p = perms.to_permutation((3, 2, 1, 3), 3)
    assert p[i - 1] > p[j - 1] > p[k - 1]


def test_each_verdict_has_one_route():
    # the word-level routes are oracles the tests compare against, not options
    for decide in (classify.is_fc, classify.is_cfc):
        assert list(inspect.signature(decide).parameters) == ["word", "rank"]


def test_is_fc_requires_reduced():
    with pytest.raises(NotReduced):
        classify.is_fc((1, 1), 2)


def test_is_cyclically_reduced_examples():
    assert classify.is_cyclically_reduced((3, 1, 2, 4, 5), 5)
    assert not classify.is_cyclically_reduced((3, 4, 2, 1, 3, 2), 4)
    assert classify.is_cyclically_reduced((), 2)


def test_reduced_expression_walks_stop_at_the_closure_cap(monkeypatch):
    word = (1, 3, 5, 2, 4)  # cyclically reduced, with 16 reduced expressions
    assert len(words.reduced_expressions(word, 5)) == 16
    monkeypatch.setenv(words.CLOSURE_CAP_ENV, "16")
    assert classify.is_cyclically_reduced(word, 5)
    assert definition(word, 5).is_cfc
    monkeypatch.setenv(words.CLOSURE_CAP_ENV, "5")
    with pytest.raises(ClosureTooLarge, match="is_cyclically_reduced: visited 6 "):
        classify.is_cyclically_reduced(word, 5)
    with pytest.raises(ClosureTooLarge, match="visited 6 reduced words"):
        definition(word, 5)


@pytest.mark.parametrize("method", CFC_ROUTES)
def test_is_cfc_examples(method):
    is_cfc = CFC_ROUTES[method]
    assert is_cfc((1, 2, 4, 3), 4).is_cfc
    assert not is_cfc((2, 1, 3, 2, 4), 4).is_cfc
    verdict = is_cfc((2, 1, 3, 2), 3)
    assert not verdict.is_cfc
    assert verdict.witness is not None
    assert verdict.method == method


def test_cfc_witness_payloads():
    v = support_once((2, 1, 3, 2), 3)
    assert v.witness["generator"] == 2
    p1, p2 = v.witness["positions"]
    assert ((2, 1, 3, 2)[p1], (2, 1, 3, 2)[p2]) == (2, 2)

    v = definition((2, 1, 3, 2), 3)
    shifted = tuple(v.witness["word"])
    expression = tuple(v.witness["expression"])
    k = v.witness["shifts"]
    rebuilt = expression
    for _ in range(k):
        rebuilt = words.cyclic_shift(rebuilt)
    assert rebuilt == shifted
    assert not words.is_reduced(shifted, 3) or not classify.is_fc(shifted, 3).is_fc

    v = classify.is_cfc((2, 1, 3, 2), 3)
    assert v.witness["kind"] in ("321", "3412")


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_three_way_agreement(rank):
    for w in all_elements(rank):
        fc = {m: route(w, rank).is_fc for m, route in FC_ROUTES.items()}
        assert len(set(fc.values())) == 1, (w, fc)
        cfc = {m: route(w, rank).is_cfc for m, route in CFC_ROUTES.items()}
        assert len(set(cfc.values())) == 1, (w, cfc)


def test_negative_verdicts_always_carry_witnesses():
    for rank in (2, 3):
        for w in all_elements(rank):
            for route in FC_ROUTES.values():
                v = route(w, rank)
                assert v.is_fc or v.witness is not None
            for route in CFC_ROUTES.values():
                v = route(w, rank)
                assert v.is_cfc or v.witness is not None


def test_enumerate_fc_counts_and_small_sets():
    assert classify.enumerate_fc(1) == frozenset({(), (1,)})
    assert [len(classify.enumerate_fc(n)) for n in (1, 2, 3, 4)] == [2, 5, 14, 42]


@pytest.mark.parametrize("rank", range(1, 9))
def test_enumerate_fc_matches_the_full_sweep(rank):
    assert classify.enumerate_fc(rank) == fc_words_by_sweep(rank)


@pytest.mark.parametrize("rank", range(1, 10))
def test_enumerate_fc_matches_the_lifted_321_avoiders(rank):
    assert classify.enumerate_fc(rank) == fc_words_by_321_avoiders(rank)


@pytest.mark.parametrize("rank", range(1, 10))
def test_cfc_words_are_the_fc_words_without_a_repeated_letter(rank):
    fc = classify.enumerate_fc(rank)
    assert classify.enumerate_cfc(rank) == {w for w in fc if len(set(w)) == len(w)}


def test_enumerate_fc_matches_pattern_filter():
    for rank in (2, 3, 4):
        expected = {
            perms.word_from_permutation(p)
            for p in itertools.permutations(range(1, rank + 2))
            if not perms.contains_321(p)
        }
        assert classify.enumerate_fc(rank) == expected


def test_enumerate_cfc_thirteen_elements_of_rank_three():
    expected = {
        (), (1,), (2,), (3,),
        (1, 3), (1, 2), (2, 1), (2, 3), (3, 2),
        (1, 2, 3), (3, 2, 1), (1, 3, 2), (2, 1, 3),
    }
    assert classify.enumerate_cfc(3) == expected


def test_enumerate_cfc_matches_pattern_filter():
    for rank in (1, 2, 3, 4, 5):
        expected = {
            perms.word_from_permutation(p)
            for p in itertools.permutations(range(1, rank + 2))
            if not perms.contains_321(p) and not perms.contains_3412(p)
        }
        assert classify.enumerate_cfc(rank) == expected


@pytest.mark.parametrize("rank", range(1, 10))
def test_interval_words_match_the_orientation_oracle(rank):
    assert classify.enumerate_cfc(rank) == cfc_words_by_orientation(rank)
    assert classify.enumerate_coxeter(rank) == coxeter_words_by_orientation(rank)


def test_interval_word_counts_and_lifts():
    fib = [0, 1]
    while len(fib) < 26:
        fib.append(fib[-1] + fib[-2])
    for rank in range(1, 13):
        assert len(classify.enumerate_cfc(rank, max_rank=12)) == fib[2 * rank + 1]
        assert len(classify.enumerate_coxeter(rank, max_rank=12)) == 2 ** (rank - 1)
    for rank in range(1, 10):
        for w in classify.enumerate_cfc(rank):
            assert perms.word_from_permutation(perms.to_permutation(w, rank)) == w


def test_enumerate_coxeter():
    assert classify.enumerate_coxeter(1) == frozenset({(1,)})
    assert classify.enumerate_coxeter(2) == frozenset({(1, 2), (2, 1)})
    cox4 = classify.enumerate_coxeter(4)
    assert len(cox4) == 8
    expressions = set()
    for w in cox4:
        expressions |= words.reduced_expressions(w, 4)
    assert len(expressions) == 24


def test_cfc_subset_of_fc_and_coxeter_subset_of_cfc():
    for rank in range(1, 6):
        cfc = classify.enumerate_cfc(rank)
        assert cfc <= classify.enumerate_fc(rank)
        for w in classify.enumerate_coxeter(rank):
            assert w in cfc


def test_subexpressions_of_coxeter_elements_are_cfc():
    for rank in range(1, 6):
        for w in classify.enumerate_coxeter(rank):
            for size in range(len(w) + 1):
                for sub in itertools.combinations(w, size):
                    assert classify.is_cfc(sub, rank).is_cfc, (w, sub)


def test_rank_cap_guard():
    with pytest.raises(RankTooLarge):
        classify.enumerate_fc(10)
    with pytest.raises(RankTooLarge):
        classify.enumerate_cfc(4, max_rank=3)
