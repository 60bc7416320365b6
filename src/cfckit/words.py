"""Words over the generators of the rank-n path Coxeter group.

A word is a tuple of 1-based generator indices; ``()`` is the identity.
Generators i and j satisfy m = 1 (equal), m = 2 (|i-j| > 1, they commute)
or m = 3 (|i-j| = 1, braid relation iji = jij).  Length questions are
answered in the symmetric group of degree rank+1 via :mod:`cfckit.perms`.

:func:`require_reduced` is the one boundary check for a reduced word: public
functions that need one call it on entry, and the functions they call take
the checked word on trust.  It hands on the image it read the length off,
so the verdicts, the rings and the conjugacy certificate build each input's
image once.  :func:`ascii_int` is the one reader of integer text from
outside: word and cycle text, the CLI's rank options and
``CFC_MAX_CLOSURE`` all go through it.

:func:`closure` is the one rewriting walk: reduced expressions, the cyclic
orbit and the word-level FC/CFC routes run through it.  Commutation classes
are built, not walked: one at a time by :func:`linear_extensions`, and all
the classes of the words with no repeated letter (the reduced expressions
of the CFC elements, the leaves of a class table) at once by
:func:`distinct_letter_classes`, each its parents' classes with one letter
prepended.  All three are exponential in the worst case, so each holds
at most the word cap set by the ``CFC_MAX_CLOSURE`` environment variable
(default 10**6), and past it raises ClosureTooLarge naming the operation.
"""

from __future__ import annotations

import contextlib
import os
from collections import deque
from collections.abc import Iterator

from . import perms
from .errors import ClosureTooLarge, InvalidGenerator, InvalidSetting, NotReduced

Word = tuple[int, ...]

DEFAULT_CLOSURE_CAP = 10**6
CLOSURE_CAP_ENV = "CFC_MAX_CLOSURE"


def ascii_int(text: str) -> int:
    """ASCII digits, surrounding whitespace stripped: unlike int(), it reads
    no sign, no underscore and no other script's digit."""
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an unsigned integer")
    return int(digits)


def closure_cap() -> int:
    """The word cap from ``CFC_MAX_CLOSURE``; it must be a positive integer."""
    raw = os.environ.get(CLOSURE_CAP_ENV)
    if not raw:
        return DEFAULT_CLOSURE_CAP
    with contextlib.suppress(ValueError):
        if (cap := ascii_int(raw)) >= 1:
            return cap
    raise InvalidSetting(f"{CLOSURE_CAP_ENV} must be a positive integer, got {raw!r}")


def check_rank(rank: int) -> None:
    if rank < 1:
        raise InvalidGenerator(f"rank must be >= 1, got {rank}")


def check_word(word, rank: int) -> Word:
    """Validate letters against the rank and return the word as a tuple."""
    check_rank(rank)
    word = tuple(word)
    for g in word:
        if not 1 <= g <= rank:
            raise InvalidGenerator(f"generator {g} outside 1..{rank}")
    return word


def m_value(i: int, j: int, rank: int) -> int:
    """
    Bond strength of generators i and j.

    >>> m_value(2, 2, 4), m_value(1, 3, 4), m_value(3, 4, 4)
    (1, 2, 3)
    """
    check_word((i, j), rank)
    if i == j:
        return 1
    return 3 if abs(i - j) == 1 else 2


def cyclic_shift(word: Word) -> Word:
    """
    Move the first letter to the end; conjugation by that letter.

    >>> cyclic_shift((3, 1, 2, 4, 5))
    (1, 2, 4, 5, 3)
    >>> cyclic_shift(())
    ()
    """
    if not word:
        return ()
    return word[1:] + word[:1]


def support(word: Word) -> frozenset[int]:
    """
    >>> sorted(support((1, 2, 4, 5, 2, 6, 5)))
    [1, 2, 4, 5, 6]
    """
    return frozenset(word)


def is_reduced(word, rank: int) -> bool:
    """
    A word is reduced iff its length equals the inversion count of its image.

    >>> is_reduced((1, 4, 5, 6, 5), 6)
    True
    >>> is_reduced((1, 2, 4, 5, 2, 6, 5), 6)
    False
    >>> is_reduced((), 3)
    True
    """
    word = tuple(word)
    return len(word) == perms.inversions(perms.to_permutation(word, rank))


def require_reduced(word, rank: int) -> tuple[Word, perms.Perm]:
    """The one boundary check: letters in 1..rank and the word reduced.  It
    returns the word as a tuple and the image it read the length off, so no
    caller builds the image again."""
    word = tuple(word)
    image = perms.to_permutation(word, rank)
    if len(word) != perms.inversions(image):
        raise NotReduced(f"{list(word)} is not reduced")
    return word, image


def canonical_word(word, rank: int) -> Word:
    """
    The lexicographically least reduced expression of the element the word
    represents; the canonical identifier used for sets of group elements.

    >>> canonical_word((3, 1, 2, 3, 4), 4)
    (1, 2, 3, 2, 4)
    """
    return perms.word_from_permutation(perms.to_permutation(word, rank))


def commutation_moves(word: Word) -> Iterator[Word]:
    """Words reachable by one swap of adjacent commuting letters."""
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if abs(a - b) > 1:
            yield word[:i] + (b, a) + word[i + 2 :]


def braid_moves(word: Word) -> Iterator[Word]:
    """Words reachable by one braid move iji -> jij."""
    for i in range(len(word) - 2):
        a, b, c = word[i], word[i + 1], word[i + 2]
        if a == c and abs(a - b) == 1:
            yield word[:i] + (b, a, b) + word[i + 3 :]


def expression_moves(word: Word) -> Iterator[Word]:
    """Words reachable by one commutation move, then by one braid move."""
    yield from commutation_moves(word)
    yield from braid_moves(word)


def _past_cap(operation: str, cap: int) -> ClosureTooLarge:
    return ClosureTooLarge(f"{operation}: visited {cap + 1} reduced words, past the cap of {cap}")


def closure(word: Word, moves, operation: str) -> Iterator[Word]:
    """
    Walk breadth-first from a checked word under ``moves``, yielding each
    word in the order it is found.  The walk never holds more than
    :func:`closure_cap` words: finding one more raises ClosureTooLarge
    naming the operation.

    >>> list(closure((2, 1, 3, 2), commutation_moves, "demo"))
    [(2, 1, 3, 2), (2, 3, 1, 2)]
    """
    cap = closure_cap()
    seen = {word}
    queue = deque([word])
    while queue:
        u = queue.popleft()
        yield u
        for v in moves(u):
            if v not in seen:
                if len(seen) >= cap:
                    raise _past_cap(operation, cap)
                seen.add(v)
                queue.append(v)


def linear_extensions(word: Word, operation: str) -> list[Word]:
    """
    The commutation class of a checked word, as the linear extensions of its
    heap: each letter goes in at every place after the last letter that does
    not commute with it, so it is the last copy of itself there and each word
    is built once.  No step holds more words than the class; past
    :func:`closure_cap` words it raises ClosureTooLarge naming the operation.
    """
    cap = closure_cap()
    level = [()]
    for a in word:
        near, piece = (a - 1, a, a + 1), (a,)
        built = []
        for u in level:
            j = len(u)
            while j and u[j - 1] not in near:
                j -= 1
            if len(built) + len(u) + 1 - j > cap:
                raise _past_cap(operation, cap)
            built += [u[:i] + piece + u[i:] for i in range(j, len(u) + 1)]
        level = built
    return level


def distinct_letter_classes(rank: int) -> list[tuple[Word, ...]]:
    """
    Every word over 1..rank with no repeated letter, grouped into its
    commutation class: the linear extensions of its heap, keyed by its
    support and the g that precede g+1 in it.  One pass per word length
    builds the classes whole.  A class's words that start with a are a
    prepended to each word of one shorter class, whose key gains a in the
    support, and in the up mask if a+1 is in the support: no word is keyed.
    The letters go in ascending order and each shorter class is sorted, so
    each class comes out a sorted tuple, its first word least, with no sort.
    A block that would take a class past :func:`closure_cap` words raises
    ClosureTooLarge naming ``commutation_class`` before it is built.

    >>> leaves = distinct_letter_classes(3)
    >>> len(leaves), sorted(leaf for leaf in leaves if len(leaf) > 1)
    (13, [((1, 3), (3, 1)), ((1, 3, 2), (3, 1, 2)), ((2, 1, 3), (2, 3, 1))])
    """
    cap = closure_cap()
    leaves: list[tuple[Word, ...]] = []
    level = {(0, 0): ((),)}  # (support, the g that precede g+1) -> its class
    while level:
        leaves += level.values()
        grown: dict[tuple[int, int], list[Word]] = {}
        for a in range(1, rank + 1):
            bit, piece = 1 << a, (a,)
            for (support, up), leaf in level.items():
                if support & bit:
                    continue
                child = grown.setdefault((support | bit, up | bit if support & bit << 1 else up), [])
                if len(child) + len(leaf) > cap:
                    raise _past_cap("commutation_class", cap)
                child += [piece + w for w in leaf]
        level = {key: tuple(child) for key, child in grown.items()}
    return leaves


def iter_reduced_expressions(word, rank: int, operation: str = "reduced_expressions") -> Iterator[Word]:
    """
    Lazily walk the closure of a reduced word under single commutation and
    braid moves, in breadth-first order starting from the word itself.
    """
    yield from closure(require_reduced(word, rank)[0], expression_moves, operation)


def reduced_expressions(word, rank: int) -> frozenset[Word]:
    """
    All reduced expressions of the element, i.e. the full Matsumoto closure.

    >>> sorted(reduced_expressions((1, 2, 3, 4, 2), 4))
    [(1, 2, 3, 2, 4), (1, 2, 3, 4, 2), (1, 3, 2, 3, 4), (3, 1, 2, 3, 4)]
    >>> reduced_expressions((1,), 2)
    frozenset({(1,)})
    """
    return frozenset(iter_reduced_expressions(word, rank))


def commutation_class(word, rank: int) -> frozenset[Word]:
    """
    The closure of a reduced word under commutation moves only.

    >>> sorted(commutation_class((2, 1, 3, 2), 3))
    [(2, 1, 3, 2), (2, 3, 1, 2)]
    """
    return frozenset(linear_extensions(require_reduced(word, rank)[0], "commutation_class"))


def commutation_classes(word, rank: int) -> tuple[frozenset[Word], ...]:
    """
    Partition of the reduced expressions into commutation classes, ordered
    by least member.

    >>> [sorted(c) for c in commutation_classes((1, 2, 3, 2, 4), 4)]
    [[(1, 2, 3, 2, 4), (1, 2, 3, 4, 2)], [(1, 3, 2, 3, 4), (3, 1, 2, 3, 4)]]
    """
    remaining = set(iter_reduced_expressions(word, rank, "commutation_classes"))
    blocks = []
    while remaining:
        block = frozenset(linear_extensions(min(remaining), "commutation_classes"))
        blocks.append(block)
        remaining -= block
    return tuple(sorted(blocks, key=min))
