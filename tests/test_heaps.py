import itertools

import pytest

from cfckit import classify, heaps, perms, words
from cfckit.errors import ClosureTooLarge, NotCFC, NotMaximalBlock, NotReduced

from oracles import (
    chunks_by_union_find,
    forbidden_pattern_scan,
    heap_covers_by_scan,
    maximal_blocks_by_scan,
    same_poset,
)


def test_build_heap_fig_structure():
    h = heaps.build_heap((2, 1, 3, 2, 4, 5), 5)
    assert [(b.gen, b.level) for b in h.blocks] == [
        (2, 4), (1, 2), (3, 3), (2, 1), (4, 2), (5, 1)
    ]
    assert sorted(h.covers) == [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (4, 5)]


def test_build_heap_small_cases():
    h = heaps.build_heap((1,), 2)
    assert [(b.gen, b.level) for b in h.blocks] == [(1, 1)]
    assert h.covers == frozenset()
    h = heaps.build_heap((1, 3), 3)
    assert [(b.gen, b.level) for b in h.blocks] == [(1, 1), (3, 1)]
    assert h.covers == frozenset()


def test_build_heap_requires_reduced():
    with pytest.raises(NotReduced):
        heaps.build_heap((1, 1), 2)


def _heap_words(rank):
    """Every reduced expression through rank 4 and every canonical word at
    rank 5, plus every word, reduced or not, of length up to 6."""
    for p in itertools.permutations(range(1, rank + 2)):
        word = perms.word_from_permutation(p)
        yield from words.reduced_expressions(word, rank) if rank <= 4 else (word,)
    for length in range(7):
        yield from itertools.product(range(1, rank + 1), repeat=length)


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_covers_and_maximal_blocks_match_definition(rank):
    for word in _heap_words(rank):
        h = heaps._assemble(word, rank)
        assert h.covers == heap_covers_by_scan(h.blocks), word
        assert h.maximal_blocks() == maximal_blocks_by_scan(h.blocks), word


def test_heap_to_word_examples():
    assert heaps.heap_to_word(heaps.build_heap((2, 3, 5, 4), 5)) == (2, 3, 5, 4)
    assert heaps.heap_to_word(heaps.build_heap((3,), 4)) == (3,)
    got = heaps.heap_to_word(heaps.build_heap((1, 3, 2), 3))
    assert got in {(1, 3, 2), (3, 1, 2)}


def test_heap_round_trip_is_commutation_equivalent():
    for rank in range(1, 5):
        for w in classify.enumerate_fc(rank):
            got = heaps.heap_to_word(heaps.build_heap(w, rank))
            assert got in words.commutation_class(w, rank)


def test_heaps_well_defined_across_commutation_classes():
    for rank in range(1, 5):
        for w in classify.enumerate_fc(rank):
            base = heaps.build_heap(w, rank)
            for u in words.commutation_class(w, rank):
                other = heaps.build_heap(u, rank)
                assert same_poset(other, base)
    # non-equivalent words give different posets
    assert not same_poset(heaps.build_heap((1, 2), 2), heaps.build_heap((2, 1), 2))


def test_forbidden_pattern_scan_examples():
    scan = forbidden_pattern_scan(heaps.build_heap((3, 2, 1, 3), 3), mode="fc")
    assert len(scan) == 1 and scan[0].kind == "braid" and scan[0].column == 3

    h = heaps.build_heap((2, 1, 3, 2), 3)
    assert forbidden_pattern_scan(h, mode="fc") == ()
    scan = forbidden_pattern_scan(h, mode="cfc")
    assert len(scan) == 1 and scan[0].kind == "collapse" and scan[0].column == 2

    h = heaps.build_heap((1, 2, 3, 4), 4)
    assert forbidden_pattern_scan(h, mode="fc") == ()
    assert forbidden_pattern_scan(h, mode="cfc") == ()


def test_fc_scan_matches_classifier():
    for rank in range(1, 5):
        for p in itertools.permutations(range(1, rank + 2)):
            w = perms.word_from_permutation(p)
            scan = forbidden_pattern_scan(heaps.build_heap(w, rank), mode="fc")
            assert (len(scan) == 0) == classify.is_fc(w, rank).is_fc, (rank, w)


def test_cfc_scan_matches_classifier_on_fc_elements():
    for rank in range(1, 6):
        for w in classify.enumerate_fc(rank):
            scan = forbidden_pattern_scan(heaps.build_heap(w, rank), mode="cfc")
            assert (len(scan) == 0) == classify.is_cfc(w, rank).is_cfc, (rank, w)


def test_cyclic_shift_heap_examples():
    shifted = heaps.cyclic_shift_heap(heaps.build_heap((1, 2, 3, 4), 4), 1)
    assert same_poset(shifted, heaps.build_heap((2, 3, 4, 1), 4))

    shifted = heaps.cyclic_shift_heap(heaps.build_heap((2, 1, 3, 2), 3), 2)
    assert any(
        v.kind == "collapse" for v in forbidden_pattern_scan(shifted, mode="cfc")
    )

    assert same_poset(heaps.cyclic_shift_heap(heaps.build_heap((1,), 2), 1), heaps.build_heap((1,), 2))


def test_cyclic_shift_heap_requires_maximal_block():
    with pytest.raises(NotMaximalBlock):
        heaps.cyclic_shift_heap(heaps.build_heap((1, 2), 2), 2)


def test_cyclic_shift_is_conjugation_by_leading_generator():
    for rank in range(1, 5):
        for w in classify.enumerate_cfc(rank):
            h = heaps.build_heap(w, rank)
            for b in h.maximal_blocks():
                shifted = heaps.cyclic_shift_heap(h, b.gen)
                expected = perms.conjugate(
                    perms.to_permutation(w, rank), perms.to_permutation((b.gen,), rank)
                )
                assert perms.to_permutation(shifted.word(), rank) == expected


def test_chunks_examples():
    got = heaps.chunks(heaps.build_heap((1, 2, 3, 5, 6), 6))
    assert [(c.start, c.size) for c in got] == [(1, 3), (5, 2)]
    got = heaps.chunks(heaps.build_heap((1, 2, 3, 4), 4))
    assert [(c.start, c.size) for c in got] == [(1, 4)]
    assert heaps.chunks(heaps.build_heap((), 3)) == ()


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_chunks_match_union_find(rank):
    # _heap_words holds the empty word and words that are not reduced
    for word in _heap_words(rank):
        h = heaps._assemble(word, rank)
        assert heaps.chunks(h) == chunks_by_union_find(h), word


def test_chunk_bookkeeping_on_cfc_elements():
    for rank in range(1, 7):
        for w in classify.enumerate_cfc(rank):
            cs = heaps.chunks(heaps.build_heap(w, rank))
            assert sum(len(c.block_ids) for c in cs) == len(w)
            spans = [(c.start, c.start + c.size - 1) for c in cs]
            assert spans == sorted(spans)
            for (_, b1), (a2, _) in zip(spans, spans[1:]):
                assert a2 >= b1 + 2
            for c in cs:
                assert len(c.block_ids) == c.size


def test_cylindrical_canonical_examples():
    cyl = heaps.cylindrical_canonical((1, 3, 2, 4), 4)
    assert cyl.canonical_word == (1, 2, 3, 4)
    orbit = heaps.cyclic_orbit((1, 3, 2, 4), 4)
    distinct_heaps = {min(words.commutation_class(w, 4)) for w in orbit}
    assert len(distinct_heaps) == 8

    a = heaps.cylindrical_canonical((1, 2, 3), 4)
    b = heaps.cylindrical_canonical((2, 3, 1), 4)
    c = heaps.cylindrical_canonical((2, 3, 4), 4)
    assert a.canonical_word == b.canonical_word
    assert a.canonical_word != c.canonical_word
    assert a.ring_profile == ((1, 3),)


def test_cylindrical_canonical_matches_orbit_walk():
    orbit_min = {}  # word -> least word of its orbit, filled one orbit at a time
    for rank in range(1, 8):
        orbit_min.clear()
        for w in classify.enumerate_cfc(rank):
            if w not in orbit_min:
                orbit = heaps.cyclic_orbit(w, rank)
                orbit_min.update(dict.fromkeys(orbit, min(orbit)))
            least = orbit_min[w]
            heap = heaps.build_heap(least, rank)
            profile = tuple((c.start, c.size) for c in chunks_by_union_find(heap))
            assert heaps.cylindrical_canonical(w, rank) == heaps.CylindricalHeap(least, profile)


def test_cyclic_orbit_respects_closure_cap(monkeypatch):
    monkeypatch.setenv("CFC_MAX_CLOSURE", "120")
    assert len(heaps.cyclic_orbit((1, 2, 3, 4, 5), 5)) == 120
    monkeypatch.setenv("CFC_MAX_CLOSURE", "119")
    with pytest.raises(ClosureTooLarge):
        heaps.cyclic_orbit((1, 2, 3, 4, 5), 5)


def test_cylindrical_canonical_requires_cfc():
    with pytest.raises(NotCFC):
        heaps.cylindrical_canonical((2, 1, 3, 2), 3)


def test_cylindrical_classes_partition_by_shift_reachability():
    # members of one class are exactly the words reachable by shifts and
    # commutations, so equality of canonical words is reflexive over orbits
    for rank in (3, 4):
        for w in classify.enumerate_cfc(rank):
            canon = heaps.cylindrical_canonical(w, rank).canonical_word
            for u in heaps.cyclic_orbit(w, rank):
                assert heaps.cylindrical_canonical(u, rank).canonical_word == canon


ASCII_SINGLE = "[1]\n 1\n"


def test_render_ascii():
    assert heaps.render(heaps.build_heap((1,), 1), "ascii") == ASCII_SINGLE
    art = heaps.render(heaps.build_heap((2, 3, 5, 4), 5), "ascii")
    assert art == (
        "  [2]\n"
        "    [3] [5]\n"
        "      [4]\n"
        " 1 2 3 4 5\n"
    )
    seven = heaps.render(heaps.build_heap((1, 2, 3, 1, 2, 4, 5), 5), "ascii")
    assert seven.count("[") == 7


def test_render_svg_deterministic():
    h = heaps.build_heap((2, 3, 5, 4), 5)
    one = heaps.render(h, "svg")
    two = heaps.render(h, "svg")
    assert one == two
    assert one.startswith("<svg ")
    assert one.count("<rect") == 4
    assert one.count("<text") == 4 + 5  # block labels plus column labels
