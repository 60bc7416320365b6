"""Cycle-shape predicate for CFC permutations and its exhaustive checker.

A cycle, written with its smallest entry first, changes direction at a
value that is a local peak or valley among its written neighbors.  The
scan walks the written sequence only: the first entry anchors the cycle
and the seam back to it is not read, a reading fixed by the worked
examples (12435) -> {4, 3} and (14352) -> {4, 3, 5}.
:func:`direction_changes` and :func:`has_connected_support` state the
definitions cycle by cycle; :func:`conjecture_predicate` decides the same
in one pass over the one-line form.

The conjectured characterization (every cycle has connected support and
at most one direction change iff the element is CFC) is open; the checker
reports disagreements as data, never as failure.

The checker settles every permutation of the degree while visiting only
the ones that can disagree: the images of the CFC words, written down as
disjoint decreasing runs by ``classify._run_words``, and the predicate's
permutations, built from cycles by :func:`iter_predicate_permutations`,
independently of the words.  The supports of a predicate permutation's
cycles are intervals partitioning 1..n, so its one-line form is one
block per interval, the values of that interval's cycle; each interval's
blocks are built once per sweep and each permutation is one
concatenation of blocks.  A permutation in neither set is not CFC and
fails the predicate, so the two verdicts agree without being computed.  No
pattern scan runs: a permutation is CFC exactly when no letter repeats in
its canonical word, which ``perms.word_from_permutation`` writes down in
O(n + l).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

from . import classify, perms
from .errors import NotAPermutation

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
    i = cycle.index(min(cycle)) if cycle else 0
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
    True iff the entries form an interval of integers, the empty one included.

    >>> has_connected_support((1, 3, 5, 7))
    False
    >>> has_connected_support((2, 3, 4))
    True
    """
    entries = set(cycle)
    return not entries or entries == set(range(min(entries), max(entries) + 1))


def conjecture_predicate(p: Perm) -> bool:
    """
    True iff every nontrivial cycle of ``p`` has connected support and at
    most one direction change.

    One pass over the one-line form walks each cycle once, from its least
    entry, keeping its maximum, its size and whether it has fallen yet.
    The walk leaves its least entry rising, so a cycle has at most one
    direction change iff it never rises after a fall: the second change
    ends the pass with False.  The last step, the seam back to the least
    entry, is a fall, so it can add no second change and no change is read
    at the least entry.  The support is an interval iff the size is the
    span from the least entry to the maximum; a gap ends the pass with
    False.  After an interval the next cycle starts just past its maximum.

    A value the walk reads below the cycle's least entry or past the
    degree, or a cycle longer than the degree, raises NotAPermutation.  A
    True answer reads every entry; a False one may stop before it does, so
    it checks the whole sequence first (:func:`_refuted`).

    >>> conjecture_predicate((2, 3, 4, 5, 1))
    True
    >>> conjecture_predicate(perms.from_cycles([(1, 4, 3, 5, 2)], 5))
    False
    >>> conjecture_predicate(perms.from_cycles([(1, 3), (2, 4)], 4))
    False
    """
    degree = len(p)
    start = 1  # the least entry of the next cycle: every smaller one is settled
    while start <= degree:
        top, size, fallen = start, 1, False
        v = p[start - 1]
        while v != start:
            size += 1
            if not start < v <= degree or size > degree:
                raise NotAPermutation(f"{list(p)} is not a permutation of 1..{degree}")
            if v > top:
                top = v
            after = p[v - 1]
            if after < v:
                fallen = True
            elif fallen:
                return _refuted(p)
            v = after
        if size != top - start + 1:
            return _refuted(p)
        start = top + 1
    return True


def _refuted(p: Perm) -> bool:
    """False, once p is seen to be a permutation of 1..len(p)."""
    if not perms.is_one_line(p):
        raise NotAPermutation(f"{list(p)} is not a permutation of 1..{len(p)}")
    return False


def iter_predicate_permutations(degree: int) -> Iterator[Perm]:
    """
    Every permutation of 1..degree that satisfies :func:`conjecture_predicate`,
    each once.  The supports of its cycles are intervals partitioning
    1..degree, and a min-first cycle on [a, b] with at most one direction
    change rises from a to b and then falls, so it is fixed by the values
    it passes on the way up: 2^(b-a-1) cycles per interval.

    The one-line form is therefore the concatenation of one block per
    interval, the values p(a), ..., p(b) of its cycle
    (:func:`_cycle_blocks`).  A depth-first walk over the compositions of
    1..degree, with an explicit stack of iterators, appends a block per
    step.  Each interval's blocks are built once per call, when the walk
    first reaches that interval, so the walk stays lazy at any degree.
    The order: at each start a fixed point comes first, then the intervals
    by increasing end, each with its blocks in the order of
    :func:`_cycle_blocks`.

    >>> sorted(iter_predicate_permutations(3))
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)]
    """
    if degree < 1:
        yield ()
        return
    built: dict[tuple[int, int], list[Perm]] = {}

    def blocks_from(start: int) -> Iterator[Perm]:
        for end in range(start, degree + 1):
            if (start, end) not in built:
                built[start, end] = _cycle_blocks(start, end)
            yield from built[start, end]

    stack = [((), blocks_from(1))]  # (one-line prefix, blocks that may extend it)
    while stack:
        prefix, blocks = stack[-1]
        for block in blocks:
            line = prefix + block
            if len(line) == degree:
                yield line
            else:
                stack.append((line, blocks_from(len(line) + 1)))
                break
        else:
            stack.pop()


def _cycle_blocks(a: int, b: int) -> list[Perm]:
    """
    The values p(a), ..., p(b) of each min-first cycle on [a, b] with at
    most one direction change: (a, up..., b, reversed(down)...), where up
    and down split a+1..b-1, one for each choice of which values go up,
    in ``itertools.product((True, False), ...)`` order.  An up value maps
    to the next value up (b after the last), and a down value to the next
    value down (a after the least); a maps to the first up value, and b
    to the largest down value.

    >>> _cycle_blocks(2, 4)
    [(3, 4, 2), (4, 2, 3)]
    """
    blocks = []
    for rising in itertools.product((True, False), repeat=max(b - a - 1, 0)):
        block = [0] * (b - a + 1)
        up = down = a  # the last value placed on each side
        for v, r in enumerate(rising, a + 1):
            if r:
                block[up - a] = v
                up = v
            else:
                block[v - a] = down
                down = v
        block[up - a] = b
        block[b - a] = down
        blocks.append(tuple(block))
    return blocks


def check_conjecture(rank: int, max_rank: int = CONJECTURE_RANK_CAP) -> ConjectureReport:
    """
    Compare the cycle predicate with the CFC verdict on every permutation
    of degree rank+1; each counterexample carries its canonical word.

    Two lazy passes visit the permutations that can disagree.  The first
    runs the predicate on the image of every CFC word, which is CFC by
    construction and is the image's canonical word.  The second writes down
    the canonical word of every permutation that
    :func:`iter_predicate_permutations` concatenates from its interval
    blocks, in O(n + l), and keeps those in which a letter repeats, the
    ones that are not CFC; the CFC ones were settled in the first pass.
    Both passes build each permutation once, as one tuple.  Any other
    permutation is not CFC and fails the predicate, so it agrees; it is
    accounted for without a visit, and ``elements_checked`` stays (rank+1)!.

    >>> check_conjecture(2).agree
    True
    """
    classify._check_enum_rank(rank, max_rank)
    degree = rank + 1
    cfc_words = classify._run_words(rank, classify._cfc_follows)
    cfc_images = ((w, perms.to_permutation(w, rank)) for w in cfc_words)
    counterexamples = [(w, p, False, True) for w, p in cfc_images if not conjecture_predicate(p)]
    canonical = ((perms.word_from_permutation(p), p) for p in iter_predicate_permutations(degree))
    counterexamples += [(w, p, True, False) for w, p in canonical if len(set(w)) < len(w)]
    counterexamples.sort(key=lambda c: c[1])
    return ConjectureReport(
        rank=rank,
        elements_checked=math.factorial(degree),
        agree=not counterexamples,
        counterexamples=tuple(counterexamples),
    )
