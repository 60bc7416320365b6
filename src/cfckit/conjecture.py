"""Cycle-shape predicate for CFC permutations and its exhaustive checker.

A cycle, written with its smallest entry first, changes direction at a
value that is a local peak or valley among its written neighbors.  The
scan walks the written sequence only: the first entry anchors the cycle
and the seam back to it is not read, a reading fixed by the worked
examples (12435) -> {4, 3} and (14352) -> {4, 3, 5}.

The conjectured characterization (every cycle has connected support and
at most one direction change iff the element is CFC) is open; the checker
reports disagreements as data, never as failure.
"""

from __future__ import annotations

import itertools
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


def check_conjecture(rank: int, max_rank: int = CONJECTURE_RANK_CAP) -> ConjectureReport:
    """
    Sweep the full symmetric group of degree rank+1, comparing the cycle
    predicate with the 321/3412 pattern test; only counterexamples get words.

    >>> check_conjecture(2).agree
    True
    """
    classify._check_enum_rank(rank, max_rank)
    counterexamples = []
    checked = 0
    for p in itertools.permutations(range(1, rank + 2)):
        checked += 1
        predicted = conjecture_predicate(p)
        actual = classify.cfc_pattern(p) is None
        if predicted != actual:
            counterexamples.append((perms.word_from_permutation(p), p, predicted, actual))
    return ConjectureReport(
        rank=rank,
        elements_checked=checked,
        agree=not counterexamples,
        counterexamples=tuple(sorted(counterexamples, key=lambda c: c[1])),
    )
