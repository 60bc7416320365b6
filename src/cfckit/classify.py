"""FC and CFC classification, each by three independently implemented routes.

An element is fully commutative (FC) when its reduced expressions form a
single commutation class; equivalently no reduced expression contains a
braid factor iji, equivalently its one-line image avoids the pattern 321.
It is cyclically fully commutative (CFC) when every cyclic shift of every
reduced expression is again a reduced expression of an FC element; in type A
that happens exactly when no generator repeats in the word, equivalently
when the image avoids both 321 and 3412.

The pattern routes are the fast defaults; the word-level routes are kept as
ground truth and the test suite pins all routes to agree.

A CFC element uses each support generator once, so its canonical word is
its support cut after each g that precedes g+1, each piece decreasing:
b, b-1, ..., a over increasing, disjoint intervals [a, b], which for the
Coxeter elements cover 1..rank:

>>> sorted(enumerate_coxeter(3))
[(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 2, 1)]
"""

from __future__ import annotations

from dataclasses import dataclass

from . import perms, words
from .errors import NotCFC, RankTooLarge

Word = tuple[int, ...]

FC_METHODS = ("stembridge_scan", "single_commutation_class", "pattern_321")
CFC_METHODS = ("definition", "pattern_321_3412", "support_once")

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


def _braid_factor(word: Word) -> int | None:
    """Index of the first factor iji with |i-j| = 1, or None."""
    for i in range(len(word) - 2):
        a, b, c = word[i], word[i + 1], word[i + 2]
        if a == c and abs(a - b) == 1:
            return i
    return None


def _braid_scan(word: Word, operation: str) -> tuple[Word, int] | None:
    """The first reduced expression of a checked word, in walk order, that
    holds a braid factor, with the factor's index; None if there is none."""
    for u in words.closure(word, words.expression_moves, operation):
        i = _braid_factor(u)
        if i is not None:
            return u, i
    return None


def is_fc(word, rank: int, method: str = "pattern_321") -> FcVerdict:
    """
    Decide full commutativity of the element of a reduced word.

    >>> is_fc((2, 1, 3, 2), 3).is_fc
    True
    >>> is_fc((3, 2, 1, 3), 3).is_fc
    False
    """
    word = words.require_reduced(word, rank)
    if method == "pattern_321":
        hit = perms.find_321(perms.to_permutation(word, rank))
        if hit is None:
            return FcVerdict(True, method)
        return FcVerdict(False, method, {"kind": "321", "positions": list(hit)})
    if method == "stembridge_scan":
        # walk the Matsumoto closure, stopping at the first braid factor
        hit = _braid_scan(word, "is_fc(stembridge_scan)")
        if hit is None:
            return FcVerdict(True, method)
        u, i = hit
        return FcVerdict(False, method, {"kind": "braid", "word": list(u), "position": i})
    if method == "single_commutation_class":
        # a braid move changes the letter multiset, so any applicable braid
        # move exits the commutation class and forces a second class
        for u in sorted(
            words.closure(word, words.commutation_moves, "is_fc(single_commutation_class)")
        ):
            i = _braid_factor(u)
            if i is not None:
                b = u[i + 1]
                other = u[:i] + (b, u[i], b) + u[i + 3 :]
                return FcVerdict(False, method, {"kind": "second_class", "word": list(other)})
        return FcVerdict(True, method)
    raise ValueError(f"unknown FC method {method!r}")


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


def is_cfc(word, rank: int, method: str = "pattern_321_3412") -> CfcVerdict:
    """
    Decide cyclic full commutativity of the element of a reduced word.

    >>> is_cfc((1, 2, 4, 3), 4).is_cfc
    True
    >>> is_cfc((2, 1, 3, 2, 4), 4).is_cfc
    False
    """
    word = words.require_reduced(word, rank)
    if method == "pattern_321_3412":
        witness = cfc_pattern(perms.to_permutation(word, rank))
        return CfcVerdict(witness is None, method, witness)
    if method == "support_once":
        first = {}
        for pos, g in enumerate(word):
            if g in first:
                return CfcVerdict(
                    False, method, {"kind": "repeat", "generator": g, "positions": [first[g], pos]}
                )
            first[g] = pos
        return CfcVerdict(True, method)
    if method == "definition":
        operation = "is_cfc(definition)"
        for u in words.closure(word, words.expression_moves, operation):
            v = u
            for k in range(1, len(u) + 1):
                v = words.cyclic_shift(v)
                if not words.is_reduced(v, rank) or _braid_scan(v, operation) is not None:
                    failing = {"kind": "shift", "expression": list(u), "shifts": k, "word": list(v)}
                    return CfcVerdict(False, method, failing)
        return CfcVerdict(True, method)
    raise ValueError(f"unknown CFC method {method!r}")


def _check_enum_rank(rank: int, max_rank: int) -> None:
    words.check_rank(rank)
    if rank > max_rank:
        raise RankTooLarge(f"rank {rank} exceeds cap {max_rank}")


def require_cfc(word, rank: int) -> Word:
    """Validate a CFC word once, at an API boundary, by the default route."""
    word = tuple(word)
    verdict = is_cfc(word, rank)
    if not verdict.is_cfc:
        raise NotCFC(f"{list(word)} is not CFC: {verdict.witness}")
    return word


def chunk_layout(word: Word) -> tuple[tuple[int, int, tuple[bool, ...]], ...]:
    """
    The chunks of a validated CFC word's heap: (start, size, bits) for each
    run of its sorted support, where bits[j] is True when generator start+j
    precedes start+j+1 in the word.

    >>> chunk_layout((2, 1, 3, 5))
    ((1, 3, (False, True)), (5, 1, ()))
    """
    pos = {g: i for i, g in enumerate(word)}
    layout = []
    for lo in sorted(g for g in pos if g - 1 not in pos):
        size = 1
        while lo + size in pos:
            size += 1
        layout.append((lo, size, tuple(pos[g] < pos[g + 1] for g in range(lo, lo + size - 1))))
    return tuple(layout)


def enumerate_fc(rank: int, max_rank: int = ENUM_RANK_CAP) -> frozenset[Word]:
    """
    Canonical words of all FC elements: the 321-avoiding permutations of
    degree rank+1, generated directly (Catalan(rank+1) of them, never the
    (rank+1)! others) and lifted back to words.

    >>> sorted(enumerate_fc(1))
    [(), (1,)]
    """
    _check_enum_rank(rank, max_rank)
    return frozenset(perms.word_from_permutation(p) for p in perms.iter_321_avoiding(rank + 1))


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
