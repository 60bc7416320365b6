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
(Billey-Jockusch-Stanley), so :func:`enumerate_fc` writes the words down
directly.  A CFC element uses each support generator once, so its runs are
disjoint: its support cut after each g that precedes g+1, each piece
decreasing, over increasing, disjoint intervals [a, b], which for the
Coxeter elements cover 1..rank:

>>> sorted(enumerate_coxeter(3))
[(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 2, 1)]
"""

from __future__ import annotations

from collections.abc import Iterator
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
    word = words.require_reduced(word, rank)
    hit = perms.find_321(perms.to_permutation(word, rank))
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
        for _ in range(len(u)):
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
    word = words.require_reduced(word, rank)
    witness = cfc_pattern(perms.to_permutation(word, rank))
    return CfcVerdict(witness is None, "pattern_321_3412", witness)


def _check_enum_rank(rank: int, max_rank: int) -> None:
    words.check_rank(rank)
    if rank > max_rank:
        raise RankTooLarge(f"rank {rank} exceeds cap {max_rank}")


def require_cfc(word, rank: int) -> Word:
    """Validate a CFC word once, at an API boundary: reduced, and its image
    avoiding 321 and 3412 (:func:`is_cfc`)."""
    word = tuple(word)
    verdict = is_cfc(word, rank)
    if not verdict.is_cfc:
        raise NotCFC(f"{list(word)} is not CFC: {verdict.witness}")
    return word


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


def _fc_words(rank: int) -> Iterator[Word]:
    """The FC canonical words over 1..rank, depth-first: each word grows by
    a run b, b-1, ..., a whose a and b exceed the last run's."""
    runs = {(a, b): tuple(range(b, a - 1, -1)) for b in range(1, rank + 1) for a in range(1, b + 1)}
    stack = [((), 0, 0)]  # (word, start and end of its last run)
    while stack:
        word, last_a, last_b = stack.pop()
        yield word
        stack.extend(
            (word + runs[a, b], a, b)
            for b in range(last_b + 1, rank + 1)
            for a in range(last_a + 1, b + 1)
        )


def enumerate_fc(rank: int, max_rank: int = ENUM_RANK_CAP) -> frozenset[Word]:
    """
    Canonical words of all FC elements, Catalan(rank+1) of them, written
    down as decreasing runs (see the module docstring).

    >>> sorted(enumerate_fc(2))
    [(), (1,), (1, 2), (2,), (2, 1)]
    """
    _check_enum_rank(rank, max_rank)
    return frozenset(_fc_words(rank))


def _interval_words(rank: int, cover: bool) -> frozenset[Word]:
    """The interval-form words over 1..rank, built from the right at O(rank)
    per word; with ``cover`` the intervals cover 1..rank."""
    above = {rank + 1: [()]}  # above[s]: the words over generators s..rank
    for s in range(rank, 0, -1):
        above[s] = ([] if cover else above[s + 1]) + [
            tuple(range(b, s - 1, -1)) + tail for b in range(s, rank + 1) for tail in above[b + 1]
        ]
    return frozenset(above[1])


def enumerate_cfc(rank: int, max_rank: int = ENUM_RANK_CAP) -> frozenset[Word]:
    """
    Canonical words of all CFC elements, F(2*rank+1) of them, built in the
    interval form (see the module docstring).

    >>> len(enumerate_cfc(3))
    13
    """
    _check_enum_rank(rank, max_rank)
    return _interval_words(rank, cover=False)


def enumerate_coxeter(rank: int, max_rank: int = ENUM_RANK_CAP) -> frozenset[Word]:
    """
    Canonical words of the elements whose reduced expressions use every
    generator exactly once, 2^(rank-1) of them.

    >>> sorted(enumerate_coxeter(2))
    [(1, 2), (2, 1)]
    """
    _check_enum_rank(rank, max_rank)
    return _interval_words(rank, cover=True)
