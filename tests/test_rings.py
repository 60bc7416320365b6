import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from cfckit import classify, heaps, perms, rings, serialize
from cfckit.errors import ChunkAtBoundary, NotCFC, OutOfRange, PatternMismatch
from cfckit.rings import Ring

from oracles import chunks_by_union_find, conjugacy_orbit, diagonalize_steps_bfs


def test_rings_of_examples():
    assert rings.rings_of((1, 2, 3, 5, 6), 6) == (Ring(1, 3), Ring(5, 2))
    assert rings.rings_of((1, 2, 4, 5, 6, 7), 9) == (Ring(1, 2), Ring(4, 4))
    assert rings.rings_of((1,), 2) == (Ring(1, 1),)
    assert rings.rings_of((), 2) == ()


def test_rings_of_matches_heap_chunks():
    for rank in range(1, 8):
        for w in classify.enumerate_cfc(rank):
            literal = tuple(
                Ring(c.start, len(c.block_ids))
                for c in chunks_by_union_find(heaps.build_heap(w, rank))
            )
            assert rings.rings_of(w, rank) == literal, (rank, w)


def test_greedy_diagonalisation_matches_bfs():
    for k in range(1, 10):
        for bits in itertools.product((True, False), repeat=k - 1):
            assert rings._diagonalize_steps(2, bits) == diagonalize_steps_bfs(2, bits), bits


def test_rings_of_requires_cfc():
    with pytest.raises(NotCFC):
        rings.rings_of((2, 1, 3, 2), 3)


def test_slide_equivalent_examples():
    assert rings.slide_equivalent((1, 2, 4, 5, 6, 7), (2, 3, 6, 7, 8, 9), 9)
    w = (1, 2, 3, 5, 6)
    assert rings.slide_equivalent(w, w, 9)
    assert not rings.slide_equivalent((1, 2, 3, 5, 6), (3, 4, 7, 8, 9), 9)
    assert rings.ring_equivalent((1, 2, 3, 5, 6), (3, 4, 7, 8, 9), 9)


def test_ring_equivalent_examples():
    assert rings.ring_equivalent((1, 2, 3), (2, 3, 4), 4)
    assert not rings.ring_equivalent((1, 2), (1, 3), 3)
    assert rings.ring_equivalent is rings.is_conjugate_cfc


def test_is_conjugate_cfc_examples():
    assert rings.is_conjugate_cfc((3, 4, 5, 6), (4, 5, 6, 7), 7)
    assert rings.is_conjugate_cfc((1, 2, 3, 5, 6), (1, 2, 4, 5, 6), 6)
    assert rings.is_conjugate_cfc((1,), (2,), 2)


def test_slide_conjugator_words_and_action():
    assert rings.slide_conjugator(3, 6, 7) == (3, 4, 5, 6, 7)
    assert rings.slide_conjugator(1, 1, 2) == (1, 2)
    assert rings.slide_conjugator(2, 3, 4) == (2, 3, 4)
    # conjugating the diagonal chunk word k..k' yields (k+1)..(k'+1)
    for k, k_prime, rank in [(3, 6, 7), (1, 1, 2), (2, 3, 4)]:
        x = perms.to_permutation(rings.slide_conjugator(k, k_prime, rank), rank)
        w = perms.to_permutation(tuple(range(k, k_prime + 1)), rank)
        y = perms.to_permutation(tuple(range(k + 1, k_prime + 2)), rank)
        assert perms.conjugate(w, x) == y


def test_slide_conjugator_boundary():
    with pytest.raises(ChunkAtBoundary):
        rings.slide_conjugator(3, 7, 7)


def test_swap_conjugator_words():
    assert rings.swap_conjugator(3, 2, 6) == (3, 4, 5, 6, 2, 3, 4, 5, 1, 2, 3, 4)
    assert rings.swap_conjugator(2, 2, 5) == ()
    assert rings.swap_conjugator(2, 1, 4) == (2, 3, 4, 1, 2, 3)
    with pytest.raises(OutOfRange):
        rings.swap_conjugator(3, 3, 6)


def simple_two_chunk(k, m):
    return tuple(range(1, k + 1)) + tuple(range(k + 2, k + m + 2))


@pytest.mark.parametrize("k,m,rank", [(3, 2, 6), (2, 1, 4), (1, 2, 4), (2, 3, 6), (1, 3, 5)])
def test_swap_conjugator_action(k, m, rank):
    x = perms.to_permutation(rings.swap_conjugator(k, m, rank), rank)
    w = perms.to_permutation(simple_two_chunk(k, m), rank)
    y = perms.to_permutation(simple_two_chunk(m, k), rank)
    assert perms.conjugate(w, x) == y


def test_boomerang_rewrite_examples():
    assert rings.boomerang_rewrite((1, 2, 3, 2, 1), 0) == (3, 2, 1, 2, 3)
    assert rings.boomerang_rewrite((1, 2, 1), 0) == (2, 1, 2)
    assert rings.boomerang_rewrite((5, 2, 3, 4, 3, 2, 9), 1) == (5, 4, 3, 2, 3, 4, 9)
    with pytest.raises(PatternMismatch):
        rings.boomerang_rewrite((1, 2, 3), 0)
    with pytest.raises(PatternMismatch):
        rings.boomerang_rewrite((1, 2, 3, 2, 2), 0)


def test_stst_rewrite_examples():
    assert rings.stst_rewrite((1, 2, 1, 2), 0) == (2, 1)
    assert rings.stst_rewrite((3, 4, 3, 4), 0) == (4, 3)
    assert rings.stst_rewrite((5, 4, 5, 4), 0) == (4, 5)
    with pytest.raises(PatternMismatch):
        rings.stst_rewrite((1, 3, 1, 3), 0)
    with pytest.raises(PatternMismatch):
        rings.stst_rewrite((1, 2, 1), 0)
    word = (5, 1, 2, 1, 2, 3)
    for pos in (-5, -1, len(word)):
        with pytest.raises(PatternMismatch, match=f"position {pos} outside word of length 6"):
            rings.stst_rewrite(word, pos)


@given(
    st.integers(1, 4).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.integers(k, 5),
            st.lists(st.integers(1, 9), max_size=4),
            st.lists(st.integers(1, 9), max_size=4),
        )
    )
)
def test_boomerang_preserves_image(data):
    k, k_prime, prefix, suffix = data
    factor = tuple(range(k, k_prime + 2)) + tuple(range(k_prime, k - 1, -1))
    word = tuple(prefix) + factor + tuple(suffix)
    rewritten = rings.boomerang_rewrite(word, len(prefix))
    assert perms.to_permutation(rewritten, 9) == perms.to_permutation(word, 9)


@given(
    st.integers(1, 8),
    st.booleans(),
    st.lists(st.integers(1, 9), max_size=4),
    st.lists(st.integers(1, 9), max_size=4),
)
def test_stst_preserves_image(i, up, prefix, suffix):
    j = i + 1 if up or i == 1 else i - 1
    word = tuple(prefix) + (i, j, i, j) + tuple(suffix)
    rewritten = rings.stst_rewrite(word, len(prefix))
    assert len(rewritten) == len(word) - 2
    assert perms.to_permutation(rewritten, 9) == perms.to_permutation(word, 9)


def test_conjugacy_witness_paper_pairs():
    cert = rings.conjugacy_witness((3, 4, 5, 6), (4, 5, 6, 7), 7)
    assert cert.verified
    assert perms.to_permutation(cert.conjugator, 7) == perms.to_permutation((3, 4, 5, 6, 7), 7)
    assert cert.source == (3, 4, 5, 6)
    assert cert.target == (4, 5, 6, 7)

    cert = rings.conjugacy_witness((1, 2, 3, 5, 6), (1, 2, 4, 5, 6), 6)
    assert cert.verified
    x = perms.to_permutation(cert.conjugator, 6)
    assert perms.conjugate(perms.to_permutation((1, 2, 3, 5, 6), 6), x) == perms.to_permutation(
        (1, 2, 4, 5, 6), 6
    )


def _at(offset, word):
    """A conjugator for chunks packed from column 1, moved to start at ``offset``."""
    return tuple(g + offset - 1 for g in word)


def _composite_cases():
    """(w, y, rank, X_w^-1, X_y^-1): each X^-1 spelled out from the public
    pieces, in the order the normal form takes them: the diagonalizing
    shifts, the slides packing the rings left, then the adjacent swaps
    sorting their sizes descending."""
    slide, swap = rings.slide_conjugator, rings.swap_conjugator
    # two rings: y slides its pair two columns left and swaps it past the
    # singleton; w shifts 2 to diagonalize its pair and slides the singleton
    yield pytest.param(
        (2, 1, 5),
        (1, 5, 6),
        6,
        (2,) + slide(4, 4, 6),
        slide(4, 5, 6) + slide(3, 4, 6) + swap(2, 1, 6),
        id="two-rings",
    )
    # three rings of sizes 3, 2, 1: y needs a shift, two slides and three
    # swaps, one of them away from column 1
    yield pytest.param(
        (3, 2, 1, 5, 6, 9),
        (5, 4, 1, 7, 8, 9),
        9,
        (3, 2, 3) + slide(8, 8, 9),
        (5,)
        + slide(3, 4, 9)
        + slide(6, 8, 9)
        + swap(2, 1, 9)
        + _at(4, swap(3, 1, 9))
        + swap(3, 2, 9),
        id="three-rings",
    )


@pytest.mark.parametrize("w, y, rank, inverse_w, inverse_y", _composite_cases())
def test_composite_conjugator_is_built_from_the_public_pieces(w, y, rank, inverse_w, inverse_y):
    # X_w carries w to the common simple form and X_y^-1 carries it on to y
    cert = rings.conjugacy_witness(w, y, rank)
    assert cert.conjugator == inverse_y + tuple(reversed(inverse_w))
    p = perms.to_permutation(w, rank)
    x = perms.to_permutation(cert.conjugator, rank)
    assert perms.conjugate(p, x) == perms.to_permutation(y, rank)


def test_conjugacy_witness_rejects_non_conjugate():
    assert rings.conjugacy_witness((1, 2), (1, 3), 3) is None
    # confirmed by exhaustive search
    orbit = conjugacy_orbit(perms.to_permutation((1, 2), 3))
    assert perms.to_permutation((1, 3), 3) not in orbit


def test_decision_matches_cycle_type_and_brute_force():
    for rank in range(2, 6):
        elems = sorted(classify.enumerate_cfc(rank))
        images = {w: perms.to_permutation(w, rank) for w in elems}
        orbits = {w: conjugacy_orbit(images[w]) for w in elems}
        for w in elems:
            for y in elems:
                decided = rings.is_conjugate_cfc(w, y, rank)
                assert decided == perms.same_cycle_type(images[w], images[y])
                assert decided == (images[y] in orbits[w])


def test_witness_at_rank_200():
    order = list(range(1, 201))
    random.Random(0).shuffle(order)
    cert = rings.conjugacy_witness(tuple(order), tuple(range(1, 201)), 200)
    assert cert is not None and cert.verified


def test_witness_soundness_small_ranks():
    for rank in range(1, 5):
        elems = sorted(classify.enumerate_cfc(rank))
        for w in elems:
            for y in elems:
                cert = rings.conjugacy_witness(w, y, rank)
                if rings.is_conjugate_cfc(w, y, rank):
                    assert cert is not None and cert.verified
                else:
                    assert cert is None


def test_ring_sizes_bridge_to_cycle_type():
    for rank in range(1, 7):
        for w in classify.enumerate_cfc(rank):
            sizes = [r.size + 1 for r in rings.rings_of(w, rank)]
            bridged = sorted(sizes + [1] * (rank + 1 - sum(sizes)), reverse=True)
            assert tuple(bridged) == perms.cycle_type(perms.to_permutation(w, rank))


def test_coxeter_elements_single_conjugacy_and_cyclic_class():
    from cfckit import heaps

    for rank in range(2, 7):
        cox = sorted(classify.enumerate_coxeter(rank))
        assert len({heaps.cylindrical_canonical(w, rank).canonical_word for w in cox}) == 1
        base = cox[0]
        for w in cox:
            assert rings.is_conjugate_cfc(base, w, rank)


def _distinct_letter_word(rng, sizes, rank):
    """A CFC word at the rank: runs of the given sizes, in that order, with
    random gaps of at least one letter, and its letters in random order."""
    slack = rank - sum(sizes) - (len(sizes) - 1)
    extra = sorted(rng.randint(0, slack) for _ in sizes)
    letters, start = [], 1
    for k, size in enumerate(sizes):
        start += extra[k] - (extra[k - 1] if k else 0)
        letters += range(start, start + size)
        start += size + 1
    rng.shuffle(letters)
    return tuple(letters)


def _near_miss(rng, sizes, rank):
    """Run sizes that fit the rank and differ from ``sizes`` as a multiset
    by one edit: a copy of a run or a singleton added, a run dropped, a run
    resized by one, or one letter moved from a run to another."""
    k, j = rng.randrange(len(sizes)), rng.randrange(len(sizes))
    room = rank - sum(sizes) - len(sizes)  # letters left beside one more gap
    options = [sizes + [extra] for extra in {sizes[k], 1} if extra <= room]
    if len(sizes) > 1:
        options.append(sizes[:k] + sizes[k + 1 :])
    for step in (-1, 1):
        if 1 <= sizes[k] + step and step <= room:
            options.append(sizes[:k] + [sizes[k] + step] + sizes[k + 1 :])
    if j != k and sizes[k] - 1 not in (0, sizes[j]):
        moved = list(sizes)
        moved[k] -= 1
        moved[j] += 1
        options.append(moved)
    other = rng.choice(options)
    rng.shuffle(other)
    return other


@st.composite
def cfc_pairs(draw):
    """Two distinct-letter words at a rank of 10..40.  For half the pairs the
    second reorders the runs of the first and redraws the gaps; for the
    other half its run sizes are a near miss (:func:`_near_miss`)."""
    rank = draw(st.integers(10, 40))
    rng = draw(st.randoms(use_true_random=False))
    sizes = []
    while not sizes or (rng.random() < 0.7 and sum(sizes) + len(sizes) + 1 <= rank):
        sizes.append(rng.randint(1, min(8, rank - sum(sizes) - len(sizes))))
    if draw(st.booleans()):
        other = rng.sample(sizes, len(sizes))
    else:
        other = _near_miss(rng, sizes, rank)
    return rank, _distinct_letter_word(rng, sizes, rank), _distinct_letter_word(rng, other, rank)


@given(cfc_pairs())
@settings(max_examples=60, deadline=None)
def test_conjugacy_is_equal_cycle_type_with_certificates_that_reload(pair):
    rank, w, y = pair
    same_type = perms.cycle_type(perms.to_permutation(w, rank)) == perms.cycle_type(
        perms.to_permutation(y, rank)
    )
    assert rings.is_conjugate_cfc(w, y, rank) == same_type
    cert = rings.conjugacy_witness(w, y, rank)
    assert (cert is not None) == same_type
    if cert is not None:
        obj = json.loads(json.dumps(serialize.certificate_to_obj(cert)))
        assert serialize.certificate_from_obj(obj) == cert


def config_strategy():
    """Random CFC chunk layouts of rank <= 8 with a slidable diagonal chunk."""

    def build(draw_sizes):
        sizes, gaps = draw_sizes
        word = []
        start = 1
        spans = []
        for size, gap in zip(sizes, gaps):
            start += gap
            word.extend(range(start, start + size))
            spans.append((start, start + size - 1))
            start += size + 1
        return tuple(word), spans

    return (
        st.lists(st.tuples(st.integers(1, 3), st.integers(0, 2)), min_size=1, max_size=3)
        .map(lambda pairs: ([p[0] for p in pairs], [p[1] for p in pairs]))
        .map(build)
    )


@given(config_strategy())
@settings(max_examples=200)
def test_slide_conjugator_translates_one_ring(data):
    word, spans = data
    rank = max(8, spans[-1][1] + 1)
    for idx, (a, b) in enumerate(spans):
        # the slid chunk must stay separated from its right neighbor
        next_start = spans[idx + 1][0] if idx + 1 < len(spans) else rank + 2
        if b + 1 >= rank or next_start < b + 3:
            continue
        x = perms.to_permutation(rings.slide_conjugator(a, b, rank), rank)
        image = perms.conjugate(perms.to_permutation(word, rank), x)
        result = perms.word_from_permutation(image)
        expected = [
            Ring(r.start + 1, r.size) if r.start == a else r
            for r in rings.rings_of(word, rank)
        ]
        assert list(rings.rings_of(result, rank)) == expected
