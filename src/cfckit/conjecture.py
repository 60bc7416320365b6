"""Cycle-shape predicate for CFC permutations and its exhaustive checker.

A cycle, written with its smallest entry first, changes direction at a
value that is a local peak or valley among its written neighbors.  The
scan walks the written sequence only: the first entry anchors the cycle
and the seam back to it is not read, a reading fixed by the worked
examples (12435) -> {4, 3} and (14352) -> {4, 3, 5}.

The conjectured characterization (every cycle has connected support and
at most one direction change iff the element is CFC) is open; the checker
reports disagreements as data, never as failure.

The checker settles every permutation of the degree while visiting only
the ones that can disagree: the CFC permutations, built directly by
:func:`perms.iter_cfc_permutations`, and the predicate's permutations,
built directly by :func:`iter_predicate_permutations`.  A permutation in
neither set is not CFC and fails the predicate, so the two verdicts agree
without being computed.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

from . import classify, perms

Word = tuple[int, ...]
Perm = tuple[int, ...]

CONJECTURE_RANK_CAP = 8


@dataclass(frozen=True)
class ConjectureReport:
    rank: int
    elements_checked: int
    agree: bool
    # (word, one_line, predicate_verdict, cfc_verdict), sorted by one_line
    counterexamples: tuple[tuple[Word, Perm, bool, bool], ...]


def _min_first(cycle) -> tuple[int, ...]:
    cycle = tuple(cycle)
    i = cycle.index(min(cycle))
    return cycle[i:] + cycle[:i]


def direction_changes(cycle) -> frozenset[int]:
    """
    Values where the written cycle reverses direction.

    >>> sorted(direction_changes((1, 2, 4, 3, 5)))
    [3, 4]
    >>> sorted(direction_changes((1, 4, 3, 5, 2)))
    [3, 4, 5]
    >>> direction_changes((1, 3, 5))
    frozenset()
    """
    cycle = _min_first(cycle)
    changes = set()
    for j in range(1, len(cycle) - 1):
        a, b, c = cycle[j - 1], cycle[j], cycle[j + 1]
        if (a < b > c) or (a > b < c):
            changes.add(b)
    return frozenset(changes)


def has_connected_support(cycle) -> bool:
    """
    True iff the entries form an interval of integers.

    >>> has_connected_support((1, 3, 5, 7))
    False
    >>> has_connected_support((2, 3, 4))
    True
    """
    entries = set(cycle)
    return entries == set(range(min(entries), max(entries) + 1))


def conjecture_predicate(p: Perm) -> bool:
    """
    True iff every nontrivial cycle of ``p`` has connected support and at
    most one direction change.

    >>> conjecture_predicate((2, 3, 4, 5, 1))
    True
    >>> conjecture_predicate(perms.from_cycles([(1, 4, 3, 5, 2)], 5))
    False
    """
    for cycle in perms.cycles(p):
        if not has_connected_support(cycle):
            return False
        if len(direction_changes(cycle)) > 1:
            return False
    return True


def iter_predicate_permutations(degree: int) -> Iterator[Perm]:
    """
    Every permutation of 1..degree that satisfies :func:`conjecture_predicate`,
    each once.  The supports of its cycles are intervals partitioning
    1..degree, and a min-first cycle on [a, b] with at most one direction
    change rises from a to b and then falls, so it is fixed by the values
    it passes on the way up: 2^(b-a-1) cycles per interval.

    >>> sorted(iter_predicate_permutations(3))
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)]
    """

    def cycle_lists(start: int):
        if start > degree:
            yield ()
            return
        yield from cycle_lists(start + 1)  # start is a fixed point
        for end in range(start + 1, degree + 1):
            middle = range(start + 1, end)
            for rising in itertools.product((True, False), repeat=len(middle)):
                up = [v for v, r in zip(middle, rising) if r]
                down = [v for v, r in zip(middle, rising) if not r]
                cycle = (start, *up, end, *reversed(down))
                for rest in cycle_lists(end + 1):
                    yield (cycle, *rest)

    for cycs in cycle_lists(1):
        yield perms.from_cycles(cycs, degree)


def check_conjecture(rank: int, max_rank: int = CONJECTURE_RANK_CAP) -> ConjectureReport:
    """
    Compare the cycle predicate with the 321/3412 pattern test on every
    permutation of degree rank+1; only counterexamples get words.

    Two lazy passes visit the permutations that can disagree.  The first
    runs the predicate on every CFC permutation, which is CFC by
    construction.  The second runs the pattern test on every permutation
    built by :func:`iter_predicate_permutations` and keeps those that are
    not CFC; the CFC ones were settled in the first pass.  Any other
    permutation is not CFC and fails the predicate, so it agrees; it is
    accounted for without a visit, and ``elements_checked`` stays (rank+1)!.

    >>> check_conjecture(2).agree
    True
    """
    classify._check_enum_rank(rank, max_rank)
    degree = rank + 1
    counterexamples = [
        (p, False, True) for p in perms.iter_cfc_permutations(degree) if not conjecture_predicate(p)
    ]
    counterexamples += [
        (p, True, False)
        for p in iter_predicate_permutations(degree)
        if classify.cfc_pattern(p) is not None
    ]
    counterexamples.sort()
    return ConjectureReport(
        rank=rank,
        elements_checked=math.factorial(degree),
        agree=not counterexamples,
        counterexamples=tuple(
            (perms.word_from_permutation(p), p, predicted, actual)
            for p, predicted, actual in counterexamples
        ),
    )
