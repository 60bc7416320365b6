import inspect
import itertools
import math
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from cfckit import classify, perms, words
from cfckit.errors import ClosureTooLarge, InvalidGenerator, NotReduced, RankTooLarge

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
            if perms.find_321(p) is None
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
            if perms.find_321(p) is None and perms.find_3412(p) is None
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


@pytest.mark.parametrize("rank", range(1, 10))
def test_closed_form_counts_match_the_enumerators(rank):
    assert classify.count_fc(rank) == len(classify.enumerate_fc(rank))
    assert classify.count_cfc(rank) == len(classify.enumerate_cfc(rank))
    assert classify.count_coxeter(rank) == len(classify.enumerate_coxeter(rank))
    # the walk writes each word once: a frozenset would hide a repeat
    fc = list(classify._run_words(rank, classify._fc_follows))
    cfc = list(classify._run_words(rank, classify._cfc_follows))
    coxeter = [w for w in classify._run_words(rank, classify._coxeter_follows) if len(w) == rank]
    assert len(fc) == len(set(fc)) == classify.count_fc(rank)
    assert len(cfc) == len(set(cfc)) == classify.count_cfc(rank)
    assert len(coxeter) == len(set(coxeter)) == classify.count_coxeter(rank)


def _fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@pytest.mark.parametrize(
    "count, formula, last",
    [
        (classify.count_fc, lambda r: math.comb(2 * r + 2, r + 1) // (r + 2), 1069),
        (classify.count_cfc, lambda r: _fibonacci(2 * r + 1), 1531),
        (classify.count_coxeter, lambda r: 2 ** (r - 1), 2127),
    ],
)
def test_closed_form_counts_answer_up_to_the_printable_size(count, formula, last):
    # at the least digit limit Python allows, 640, each count answers exactly
    # up to the last rank whose decimal form fits, and is a rank error past it
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        expected = {r: formula(r) for r in range(last - 3, last + 4)}
        assert [len(str(v)) <= 640 for v in expected.values()] == [True] * 4 + [False] * 3
        sys.set_int_max_str_digits(640)
        for r, value in expected.items():
            if r <= last:
                assert count(r) == value
            else:
                with pytest.raises(RankTooLarge, match="more than 640 digits"):
                    count(r)
    finally:
        sys.set_int_max_str_digits(limit)


def test_closed_form_counts_reject_rank_zero():
    for count in (classify.count_fc, classify.count_cfc, classify.count_coxeter):
        with pytest.raises(InvalidGenerator):
            count(0)


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


# Property tests above the exhaustive ranks, at degrees 11-30: each verdict
# against a fact about the element's canonical word (its lex-least reduced
# word), which shares no code with the pattern scans.


@st.composite
def _distinct_letter_words(draw):
    rank = draw(st.integers(10, 29))
    return tuple(draw(st.lists(st.integers(1, rank), unique=True, max_size=rank))), rank


@st.composite
def _words_with_one_repeat(draw):
    word, rank = draw(_distinct_letter_words().filter(lambda drawn: drawn[0]))
    i = draw(st.integers(0, len(word)))
    word = (*word[:i], draw(st.sampled_from(word)), *word[i:])
    assume(words.is_reduced(word, rank))
    return word, rank


ELEMENTS = {
    "distinct-letters": _distinct_letter_words().map(lambda drawn: perms.to_permutation(*drawn)),
    "one-repeat": _words_with_one_repeat().map(lambda drawn: perms.to_permutation(*drawn)),
    "uniform": st.integers(11, 30).flatmap(lambda d: st.permutations(range(1, d + 1))).map(tuple),
}


def _rising_decreasing_runs(word) -> bool:
    """True iff the maximal runs b, b-1, ..., a of word have strictly
    increasing starts b and strictly increasing ends a."""
    runs = []
    for g in word:
        if runs and runs[-1][-1] == g + 1:
            runs[-1].append(g)
        else:
            runs.append([g])
    return all(r[0] < s[0] and r[-1] < s[-1] for r, s in zip(runs, runs[1:]))


@pytest.mark.parametrize("draw", sorted(ELEMENTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_is_cfc_iff_the_canonical_word_repeats_no_letter(draw, data):
    # Boothby et al. 2012
    p = data.draw(ELEMENTS[draw])
    word = perms.word_from_permutation(p)
    assert classify.is_cfc(word, len(p) - 1).is_cfc == (len(set(word)) == len(word))


@pytest.mark.parametrize("draw", sorted(ELEMENTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_is_fc_iff_the_canonical_word_is_rising_decreasing_runs(draw, data):
    # Billey-Jockusch-Stanley 1993
    p = data.draw(ELEMENTS[draw])
    word = perms.word_from_permutation(p)
    assert classify.is_fc(word, len(p) - 1).is_fc == _rising_decreasing_runs(word)
