"""Acceptance suite: one test per criterion, each printing a pass/fail line
and holding to its stated time budget (run with ``pytest -s`` to see them)."""

import itertools
import time
from contextlib import contextmanager

from cfckit import classify, conjecture, heaps, perms, rings, serialize, tables, words

from oracles import CFC_ROUTES, FC_ROUTES, conjugacy_orbit, forbidden_pattern_scan, same_poset


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, f"criterion {number} took {elapsed:.1f}s (limit {limit_seconds}s)"
    print(f"criterion {number} ({description}): PASS in {elapsed:.2f}s (limit {limit_seconds}s)")


def test_criterion_1_catalan_counts():
    with criterion(1, "Catalan counts of FC elements", 30):
        assert [len(classify.enumerate_fc(n)) for n in range(1, 7)] == [2, 5, 14, 42, 132, 429]


def test_criterion_2_cfc_rank_three_verbatim():
    with criterion(2, "the 13 CFC elements of rank 3", 1):
        listed = ["e", "1", "2", "3", "13", "12", "21", "23", "32", "123", "321", "132", "231"]
        lifted = {words.canonical_word(serialize.parse_word_text(s, 3), 3) for s in listed}
        assert len(lifted) == 13
        assert classify.enumerate_cfc(3) == lifted


def test_criterion_3_decision_oracle_equivalence():
    with criterion(3, "ring equivalence = cycle type = brute-force conjugacy", 120):
        for rank in range(2, 7):
            elems = sorted(classify.enumerate_cfc(rank))
            images = {w: perms.to_permutation(w, rank) for w in elems}
            sizes = {w: tuple(sorted(r.size for r in rings.rings_of(w, rank))) for w in elems}
            orbits = (
                {w: conjugacy_orbit(images[w]) for w in elems} if rank <= 5 else None
            )
            for w in elems:
                for y in elems:
                    decided = sizes[w] == sizes[y]
                    assert decided == rings.is_conjugate_cfc(w, y, rank)
                    assert decided == perms.same_cycle_type(images[w], images[y])
                    if orbits is not None:
                        assert decided == (images[y] in orbits[w])


def test_criterion_4_witness_soundness():
    with criterion(4, "verified certificates for all conjugate pairs", 120):
        checked = 0
        for rank in range(1, 6):
            elems = sorted(classify.enumerate_cfc(rank))
            for w in elems:
                for y in elems:
                    if rings.is_conjugate_cfc(w, y, rank):
                        cert = rings.conjugacy_witness(w, y, rank)
                        assert cert is not None and cert.verified
                        assert perms.conjugate(
                            perms.to_permutation(w, rank),
                            perms.to_permutation(cert.conjugator, rank),
                        ) == perms.to_permutation(y, rank)
                        checked += 1
        assert checked > 1000


def test_criterion_5_paper_example_regressions():
    with criterion(5, "exact worked-example regressions", 5):
        w = (1, 2, 3, 4, 2)
        p = perms.to_permutation(w, 4)
        assert p == (2, 4, 3, 5, 1)
        assert perms.cycles(p) == ((1, 2, 4, 5),)
        assert perms.inversions(p) == 5

        assert words.reduced_expressions(w, 4) == frozenset(
            {(1, 2, 3, 4, 2), (1, 2, 3, 2, 4), (1, 3, 2, 3, 4), (3, 1, 2, 3, 4)}
        )
        assert [sorted(c) for c in words.commutation_classes(w, 4)] == [
            [(1, 2, 3, 2, 4), (1, 2, 3, 4, 2)],
            [(1, 3, 2, 3, 4), (3, 1, 2, 3, 4)],
        ]

        assert classify.is_fc((2, 1, 3, 2, 4), 4).is_fc
        assert not classify.is_cfc((2, 1, 3, 2, 4), 4).is_cfc

        assert not classify.is_fc((3, 2, 1, 3), 3).is_fc

        assert perms.to_permutation((2, 1, 3, 2), 3) == (3, 4, 1, 2)
        assert classify.is_fc((2, 1, 3, 2), 3).is_fc
        assert not classify.is_cfc((2, 1, 3, 2), 3).is_cfc

        cs = heaps.chunks(heaps.build_heap((1, 2, 3, 5, 6), 6))
        assert [(c.start, c.size) for c in cs] == [(1, 3), (5, 2)]

        assert rings.is_conjugate_cfc((3, 4, 5, 6), (4, 5, 6, 7), 7)
        assert rings.is_conjugate_cfc((1, 2, 3, 5, 6), (1, 2, 4, 5, 6), 6)

        assert conjecture.direction_changes((1, 2, 4, 3, 5)) == frozenset({3, 4})
        assert conjecture.direction_changes((1, 4, 3, 5, 2)) == frozenset({3, 4, 5})
        assert not conjecture.has_connected_support((1, 3, 5, 7))


def test_criterion_6_classifier_cross_validation():
    with criterion(6, "three FC and three CFC routes agree on all of S_6", 60):
        checked = 0
        for rank in range(1, 6):
            for p in itertools.permutations(range(1, rank + 2)):
                w = perms.word_from_permutation(p)
                fc = {route(w, rank).is_fc for route in FC_ROUTES.values()}
                assert len(fc) == 1, (rank, w)
                cfc = {route(w, rank).is_cfc for route in CFC_ROUTES.values()}
                assert len(cfc) == 1, (rank, w)
                checked += 1
        assert checked == 2 + 6 + 24 + 120 + 720


def test_criterion_7_structural_properties():
    with criterion(7, "heap round trips, well-definedness, scan agreement", 120):
        for rank in range(1, 6):
            for w in classify.enumerate_fc(rank):
                cls = words.commutation_class(w, rank)
                base = heaps.build_heap(w, rank)
                assert heaps.heap_to_word(base) in cls
                for u in cls:
                    assert same_poset(heaps.build_heap(u, rank), base)
                scan = forbidden_pattern_scan(base, mode="cfc")
                assert (len(scan) == 0) == classify.is_cfc(w, rank).is_cfc
        for rank in range(1, 5):
            for p in itertools.permutations(range(1, rank + 2)):
                w = perms.word_from_permutation(p)
                scan = forbidden_pattern_scan(heaps.build_heap(w, rank), mode="fc")
                assert (len(scan) == 0) == classify.is_fc(w, rank).is_fc


def test_criterion_8_class_table_rank_four():
    with criterion(8, "computed reproduction of the rank-4 class table", 10):
        table = tables.class_table(4)
        assert table.element_count() == 34
        by_sizes = {g.ring_sizes: g for g in table.conjugacy_classes}
        coxeter = by_sizes[(4,)]
        assert len(coxeter.cyclic_classes) == 1
        assert len(coxeter.cyclic_classes[0].commutation_classes) == 8
        chunk3 = by_sizes[(3,)]
        assert len(chunk3.cyclic_classes) == 2
        assert [c.canonical_word for c in chunk3.cyclic_classes] == [(1, 2, 3), (2, 3, 4)]


def test_criterion_9_conjecture_check():
    with criterion(9, "cycle-shape conjecture sweep through rank 6", 300):
        for rank in range(1, 7):
            report = conjecture.check_conjecture(rank)
            assert report.elements_checked == len(
                list(itertools.permutations(range(1, rank + 2)))
            )
            assert report.agree, report.counterexamples
            assert report.counterexamples == ()
