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

The checker settles every permutation of degree n+1 by one comparison per
interval size k in 2..n+1.  It rests on three facts:

- CFC factorization: a CFC element uses each support generator once
  (Boothby et al. 2012), so the runs of its support cut 1..n+1 into
  intervals and its image is one block per interval, a fixed point on an
  interval of size 1 and, on one of size k >= 2, the image of a Coxeter
  element of the k-1 generators inside it, a single k-cycle (a Boolean
  permutation, Tenner 2007).  Every such concatenation is CFC.
- Unimodal-block factorization: a permutation satisfies the predicate iff
  the supports of its cycles are intervals partitioning 1..n+1 and each
  cycle, least entry first, rises to its maximum and then falls.  Its
  one-line form is one block per interval, the values of that interval's
  cycle (:func:`_cycle_blocks`).
- Translation invariance: a block of either kind on [a, a+k-1] is a block
  of that kind on [1, k] with a-1 added to every value.

Each block of either kind is a single cycle, so a permutation's blocks
are its cycles and it factors in one way only.  The CFC permutations
and the predicate permutations are therefore the same set iff, for each
k, the images of the 2^(k-2) Coxeter words of rank k-1 are the blocks
``_cycle_blocks(1, k)``.  The word side comes from ``classify._run_words``
and the cycle side from :func:`_cycle_blocks`; neither reads the other.
A permutation in neither set is not CFC and fails the predicate, so it
agrees without a visit.  No pattern scan runs and the predicate itself is
not called: the tests tie :func:`_cycle_blocks` to it.
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

CONJECTURE_RANK_CAP = 17


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
    >>> conjecture_predicate((4, 1, 5, 3, 2))  # the cycle (1, 4, 3, 5, 2)
    False
    >>> conjecture_predicate((3, 4, 1, 2))  # (1, 3)(2, 4)
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


def _cycle_blocks(a: int, b: int) -> Iterator[Perm]:
    """
    The values p(a), ..., p(b) of each min-first cycle on [a, b] with at
    most one direction change: (a, up..., b, reversed(down)...), where up
    and down split a+1..b-1, one for each choice of which values go up,
    yielded in ``itertools.product((True, False), ...)`` order.  An up
    value maps to the next value up (b after the last), and a down value
    to the next value down (a after the least); a maps to the first up
    value, and b to the largest down value.

    >>> list(_cycle_blocks(2, 4))
    [(3, 4, 2), (4, 2, 3)]
    """
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
        yield tuple(block)


def _coxeter_blocks(k: int) -> set[Perm]:
    """The images in S_k of the 2^(k-2) Coxeter words of rank k-1, the
    words of full length that ``classify._run_words`` writes under the
    Coxeter rule."""
    found = classify._run_words(k - 1, classify._coxeter_follows)
    return {perms.to_permutation(w, k - 1) for w in found if len(w) == k - 1}


def _blocks_agree(k: int) -> bool:
    """Strike each cycle block on 1..k from the Coxeter images in S_k: none missing, none left."""
    coxeter = _coxeter_blocks(k)
    for block in _cycle_blocks(1, k):
        if block not in coxeter:
            return False
        coxeter.remove(block)
    return not coxeter


def _counterexamples(degree: int) -> list[tuple[Word, Perm, bool, bool]]:
    """
    The permutations of the degree in one of the two sets only, sorted by
    one-line form: each is a concatenation of one side's interval blocks
    with at least one block the other side lacks.  One from the Coxeter
    side is CFC and fails the predicate, (False, True); one from the cycle
    side is the reverse, (True, False).  Each carries its canonical word.
    """
    blocks = {1: ({(1,)}, {(1,)})}  # size -> (Coxeter blocks, cycle blocks) on 1..size
    blocks.update((k, (_coxeter_blocks(k), set(_cycle_blocks(1, k)))) for k in range(2, degree + 1))
    found = []
    for side, verdicts in ((0, (False, True)), (1, (True, False))):
        stack = [((), False)]  # (one-line prefix, whether a block of it is foreign)
        while stack:
            line, foreign = stack.pop()
            start = len(line)
            if start == degree:
                if foreign:
                    found.append((perms.word_from_permutation(line), line, *verdicts))
                continue
            for k in range(1, degree - start + 1):
                other = blocks[k][1 - side]
                for block in blocks[k][side]:
                    stack.append((line + tuple(v + start for v in block), foreign or block not in other))
    found.sort(key=lambda c: c[1])
    return found


def check_conjecture(rank: int, max_rank: int = CONJECTURE_RANK_CAP) -> ConjectureReport:
    """
    Compare the cycle predicate with the CFC verdict on every permutation
    of degree rank+1; each counterexample carries its canonical word.

    One comparison per interval size k settles them all (see the module
    docstring): the Coxeter images in S_k against ``_cycle_blocks(1, k)``,
    2^(k-2) permutations a side, one size at a time.  Only if some size
    disagrees are the counterexamples listed, from the blocks of both
    sides.  ``elements_checked`` is (rank+1)!.

    >>> check_conjecture(2).agree
    True
    """
    classify._check_enum_rank(rank, max_rank)
    degree = rank + 1
    if all(_blocks_agree(k) for k in range(2, degree + 1)):
        counterexamples = []
    else:
        counterexamples = _counterexamples(degree)
    return ConjectureReport(
        rank=rank,
        elements_checked=math.factorial(degree),
        agree=not counterexamples,
        counterexamples=tuple(counterexamples),
    )
