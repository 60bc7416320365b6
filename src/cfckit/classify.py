"""FC and CFC classification by pattern avoidance.

An element is fully commutative (FC) when its reduced expressions form a
single commutation class; equivalently no reduced expression contains a
braid factor iji, equivalently its one-line image avoids the pattern 321.
It is cyclically fully commutative (CFC) when every cyclic shift of every
reduced expression is again a reduced expression of an FC element; in type A
that happens exactly when no generator repeats in the word, equivalently
when the image avoids both 321 and 3412.

Each verdict has one route here, the pattern scan of the element's image
(Billey-Jockusch-Stanley for 321, Boothby et al. for 3412).  The literal,
word-level routes (braid-factor scans, commutation-class counting, the
cyclic definition, a repeated letter) live in ``tests/oracles.py``, and the
tests pin the verdicts here to them.

The canonical word of an element is its lexicographically least reduced
word.  For an FC element it is a product of decreasing runs b, b-1, ..., a
whose starts b and ends a both strictly increase from run to run
(Billey-Jockusch-Stanley).  A CFC element uses each support generator once,
so its runs are also disjoint: each run's a exceeds the last run's b.  The
runs of a Coxeter element tile 1..rank: each run's a is the last run's b
plus one.  One lazy depth-first walk, ``_run_words``, writes the words down
under each of the three rules, for :func:`enumerate_fc`,
:func:`enumerate_cfc`, :func:`enumerate_coxeter`, the CLI's listing
:func:`enumerate_sorted` (filed by length as written, with no set) and
the conjecture check (class tables, which list every reduced word, read
each element off its leaf of ``words.distinct_letter_classes`` instead):

>>> sorted(enumerate_coxeter(3))
[(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 2, 1)]
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from . import perms, words
from .errors import NotCFC, RankTooLarge

Word = tuple[int, ...]

ENUM_RANK_CAP = 9


@dataclass(frozen=True)
class FcVerdict:
    is_fc: bool
    method: str
    witness: dict | None = None


@dataclass(frozen=True)
class CfcVerdict:
    is_cfc: bool
    method: str
    witness: dict | None = None


def is_fc(word, rank: int) -> FcVerdict:
    """
    Decide full commutativity of the element of a reduced word: its image
    avoids 321, with the first occurrence as the witness otherwise.

    >>> is_fc((2, 1, 3, 2), 3).is_fc
    True
    >>> is_fc((3, 2, 1, 3), 3).witness
    {'kind': '321', 'positions': [1, 3, 4]}
    """
    hit = perms.find_321(words.require_reduced(word, rank)[1])
    if hit is None:
        return FcVerdict(True, "pattern_321")
    return FcVerdict(False, "pattern_321", {"kind": "321", "positions": list(hit)})


def is_cyclically_reduced(word, rank: int) -> bool:
    """
    True iff every cyclic shift of every reduced expression is reduced.
    Stops with ClosureTooLarge past ``words.closure_cap()`` expressions.

    >>> is_cyclically_reduced((3, 1, 2, 4, 5), 5)
    True
    >>> is_cyclically_reduced((3, 4, 2, 1, 3, 2), 4)
    False
    """
    for u in words.iter_reduced_expressions(word, rank, "is_cyclically_reduced"):
        v = u
        for _ in range(len(u) - 1):  # the last shift is u itself
            v = words.cyclic_shift(v)
            if not words.is_reduced(v, rank):
                return False
    return True


def cfc_pattern(p) -> dict | None:
    """The first 321 or 3412 occurrence in p as a witness; None iff p is CFC."""
    for kind, find in (("321", perms.find_321), ("3412", perms.find_3412)):
        hit = find(p)
        if hit is not None:
            return {"kind": kind, "positions": list(hit)}
    return None


def is_cfc(word, rank: int) -> CfcVerdict:
    """
    Decide cyclic full commutativity of the element of a reduced word: its
    image avoids 321 and 3412, with the first occurrence as the witness
    otherwise.

    >>> is_cfc((1, 2, 4, 3), 4).is_cfc
    True
    >>> is_cfc((2, 1, 3, 2, 4), 4).is_cfc
    False
    """
    witness = cfc_pattern(words.require_reduced(word, rank)[1])
    return CfcVerdict(witness is None, "pattern_321_3412", witness)


def _check_enum_rank(rank: int, max_rank: int) -> None:
    words.check_rank(rank)
    if rank > max_rank:
        raise RankTooLarge(f"rank {rank} exceeds cap {max_rank}")


def require_cfc(word, rank: int) -> tuple[Word, perms.Perm]:
    """Validate a CFC word once, at an API boundary: reduced, and its image
    avoiding 321 and 3412 (:func:`is_cfc`).  It returns the word as a tuple
    and its image, from ``words.require_reduced``."""
    word, image = words.require_reduced(word, rank)
    witness = cfc_pattern(image)
    if witness is not None:
        raise NotCFC(f"{list(word)} is not CFC: {witness}")
    return word, image


def support_runs(word) -> tuple[tuple[int, int], ...]:
    """
    (start, size) for each maximal run of consecutive generators in the
    support of a word, by increasing start; letters may repeat.

    >>> support_runs((2, 1, 3, 5, 2))
    ((1, 3), (5, 1))
    """
    support = set(word)
    runs = []
    for lo in sorted(g for g in support if g - 1 not in support):
        size = 1
        while lo + size in support:
            size += 1
        runs.append((lo, size))
    return tuple(runs)


def class_key(word: Word) -> tuple[tuple[int, ...], Word]:
    """
    The classes of a validated CFC word, read off its support runs: the
    ring sizes, largest first, fix its conjugacy class, and the sorted
    support, the canonical word of its cylinder, fixes its cyclic class.

    >>> class_key((2, 1, 3, 5))
    ((3, 1), (1, 2, 3, 5))
    """
    runs = support_runs(word)
    sizes = tuple(sorted((size for _, size in runs), reverse=True))
    return sizes, tuple(g for start, size in runs for g in range(start, start + size))


def chunk_layout(word: Word) -> tuple[tuple[int, int, tuple[bool, ...]], ...]:
    """
    The chunks of a validated CFC word's heap: (start, size, bits) for each
    run of its support, where bits[j] is True when generator start+j
    precedes start+j+1 in the word.

    >>> chunk_layout((2, 1, 3, 5))
    ((1, 3, (False, True)), (5, 1, ()))
    """
    pos = {g: i for i, g in enumerate(word)}
    return tuple(
        (lo, size, tuple(pos[g] < pos[g + 1] for g in range(lo, lo + size - 1)))
        for lo, size in support_runs(word)
    )


def _run_words(rank: int, follows: Callable[[int, int, int], bool]) -> Iterator[Word]:
    """The words over 1..rank written as decreasing runs b, b-1, ..., a,
    depth-first: a run may follow the run b', ..., a' when b > b' and
    ``follows(a, a', b')``.  The empty word comes first; a rule that lets
    any run start a word puts (rank,) second."""
    runs = [(0, 0)] + [(a, b) for b in range(1, rank + 1) for a in range(1, b + 1)]
    pieces = [tuple(range(b, a - 1, -1)) for a, b in runs]
    # follow[i]: (piece, index) of each run that may come after runs[i].  The
    # runs are sorted by b, and 1 + b'(b'+1)/2 of them have b <= b', so the
    # runs with b > b' are the suffix from there.
    follow = [
        [
            (pieces[j], j)
            for j in range(1 + last_b * (last_b + 1) // 2, len(runs))
            if follows(runs[j][0], last_a, last_b)
        ]
        for last_a, last_b in runs
    ]
    stack = [((), 0)]  # (word, index of its last run)
    while stack:
        word, last = stack.pop()
        yield word
        for piece, j in follow[last]:
            stack.append((word + piece, j))


def _fc_follows(a: int, last_a: int, last_b: int) -> bool:
    return a > last_a


def _cfc_follows(a: int, last_a: int, last_b: int) -> bool:
    return a > last_b


def _coxeter_follows(a: int, last_a: int, last_b: int) -> bool:
    return a == last_b + 1


_FOLLOWS = {"fc": _fc_follows, "cfc": _cfc_follows, "coxeter": _coxeter_follows}


def _kind_words(kind: str, rank: int, max_rank: int) -> Iterator[Word]:
    """The canonical words of one kind, "fc", "cfc" or "coxeter", in walk
    order, once the rank is checked against its cap."""
    _check_enum_rank(rank, max_rank)
    found = _run_words(rank, _FOLLOWS[kind])
    if kind == "coxeter":  # the runs tile 1..rank in the words of full length only
        return (w for w in found if len(w) == rank)
    return found


def enumerate_fc(rank: int, max_rank: int = ENUM_RANK_CAP) -> frozenset[Word]:
    """
    Canonical words of all FC elements, Catalan(rank+1) of them, written
    down as decreasing runs (see the module docstring).

    >>> sorted(enumerate_fc(2))
    [(), (1,), (1, 2), (2,), (2, 1)]
    """
    return frozenset(_kind_words("fc", rank, max_rank))


def enumerate_cfc(rank: int, max_rank: int = ENUM_RANK_CAP) -> frozenset[Word]:
    """
    Canonical words of all CFC elements, F(2*rank+1) of them, written
    down as disjoint decreasing runs (see the module docstring).

    >>> len(enumerate_cfc(3))
    13
    """
    return frozenset(_kind_words("cfc", rank, max_rank))


def enumerate_coxeter(rank: int, max_rank: int = ENUM_RANK_CAP) -> frozenset[Word]:
    """
    Canonical words of the elements whose reduced expressions use every
    generator exactly once, 2^(rank-1) of them.

    >>> sorted(enumerate_coxeter(2))
    [(1, 2), (2, 1)]
    """
    return frozenset(_kind_words("coxeter", rank, max_rank))


def enumerate_sorted(kind: str, rank: int, max_rank: int = ENUM_RANK_CAP) -> list[Word]:
    """
    The words of :func:`enumerate_fc`, :func:`enumerate_cfc` or
    :func:`enumerate_coxeter` (``kind`` "fc", "cfc" or "coxeter") by
    length, then lexicographically: the order the CLI prints.  Each word
    the walk writes is filed under its length, no longer than the longest
    element's rank*(rank+1)/2, and each length is sorted on its own, so no
    set is built and no comparison crosses two lengths.

    >>> enumerate_sorted("fc", 2)
    [(), (1,), (2,), (1, 2), (2, 1)]
    """
    found = _kind_words(kind, rank, max_rank)  # checks the rank before any bucket is made
    by_length = [[] for _ in range(rank * (rank + 1) // 2 + 1)]
    for w in found:
        by_length[len(w)].append(w)
    ordered = []
    for bucket in by_length:
        bucket.sort()
        ordered += bucket
    return ordered


def _printable(rank: int, count: Callable[[], int]) -> int:
    """count(), unless its decimal form passes ``sys.get_int_max_str_digits()``
    (0: no limit).  2^(rank-1), the least of the three counts, reaches that
    power of ten once rank-1 reaches its bit length: such a rank raises
    RankTooLarge before any count is computed."""
    words.check_rank(rank)
    if not (digits := sys.get_int_max_str_digits()):
        return count()
    bound = 10**digits
    if rank - 1 < bound.bit_length() and (value := count()) < bound:
        return value
    raise RankTooLarge(f"count at rank {rank} has more than {digits} digits, the limit for printing an integer")


def count_fc(rank: int) -> int:
    """
    The number of FC elements, Catalan(rank+1) (Billey-Jockusch-Stanley
    1993), by its closed form: no element is built.

    >>> [count_fc(r) for r in range(1, 6)]
    [2, 5, 14, 42, 132]
    """
    return _printable(rank, lambda: math.comb(2 * rank + 2, rank + 1) // (rank + 2))


def count_cfc(rank: int) -> int:
    """
    The number of CFC elements, the Fibonacci number F(2*rank+1) (Boothby
    et al. 2012), by its recurrence: no element is built.

    >>> [count_cfc(r) for r in range(1, 6)]
    [2, 5, 13, 34, 89]
    """

    def fibonacci() -> int:
        previous, current = 0, 1  # F(0), F(1)
        for _ in range(2 * rank):
            previous, current = current, previous + current
        return current

    return _printable(rank, fibonacci)


def count_coxeter(rank: int) -> int:
    """
    The number of Coxeter elements, 2^(rank-1): one per orientation of the
    rank-1 edges of the path.  No element is built.

    >>> [count_coxeter(r) for r in range(1, 6)]
    [1, 2, 4, 8, 16]
    """
    return _printable(rank, lambda: 2 ** (rank - 1))
