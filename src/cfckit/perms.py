"""Permutations of {1, ..., n} and their bridge to generator words.

Conventions used throughout the package:

- A permutation is a tuple ``p`` in one-line notation with ``p[i-1] = p(i)``
  and values 1..n.  The degree is ``len(p)``.
- Composition is right to left: ``compose(p, q)`` applies ``q`` first.
- A word over generators 1..n maps to a permutation of degree n+1 by sending
  letter ``i`` to the adjacent transposition (i, i+1) and multiplying the
  letters left to right, i.e. the leftmost letter is the outermost factor.
- Cycles are written with their smallest entry first; fixed points are
  omitted from :func:`cycles` but counted by :func:`cycle_type`.
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import DegreeMismatch, InvalidGenerator, NotAPermutation

Perm = tuple[int, ...]
Word = tuple[int, ...]


def identity(degree: int) -> Perm:
    """
    >>> identity(4)
    (1, 2, 3, 4)
    """
    return tuple(range(1, degree + 1))


def is_one_line(seq) -> bool:
    """
    Check that ``seq`` is a permutation of 1..n in one-line notation.

    >>> [is_one_line(s) for s in [(), (1,), (2, 1), (1, 1), (0, 1)]]
    [True, True, True, False, False]
    """
    return sorted(seq) == list(range(1, len(seq) + 1))


def to_permutation(word: Word, rank: int) -> Perm:
    """
    The image of a word in the symmetric group of degree rank+1.

    >>> to_permutation((1, 2, 3, 4, 2), 4)
    (2, 4, 3, 5, 1)
    >>> to_permutation((2, 1, 3, 2), 3)
    (3, 4, 1, 2)
    >>> to_permutation((), 2)
    (1, 2, 3)
    """
    if rank < 1:
        raise InvalidGenerator(f"rank must be >= 1, got {rank}")
    line = list(range(1, rank + 2))
    for g in word:
        if not 1 <= g <= rank:
            raise InvalidGenerator(f"generator {g} outside 1..{rank}")
        line[g - 1], line[g] = line[g], line[g - 1]
    return tuple(line)


def compose(p: Perm, q: Perm) -> Perm:
    """
    Right-to-left composition: (p o q)(i) = p(q(i)).

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    if len(p) != len(q):
        raise DegreeMismatch(f"degrees {len(p)} and {len(q)} differ")
    return tuple(p[q[i] - 1] for i in range(len(p)))


def inverse(p: Perm) -> Perm:
    """
    >>> inverse((2, 4, 3, 5, 1))
    (5, 1, 3, 2, 4)
    """
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def inversions(p: Perm) -> int:
    """
    Number of pairs i < j with p(i) > p(j); the length of the group element.

    >>> inversions((2, 4, 3, 5, 1))
    5
    >>> inversions((1, 2, 3))
    0
    """
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def cycles(p: Perm) -> tuple[tuple[int, ...], ...]:
    """
    Disjoint nontrivial cycles, each rotated so its minimum comes first,
    ordered by minimum.  Fixed points are omitted.

    >>> cycles((2, 4, 3, 5, 1))
    ((1, 2, 4, 5),)
    >>> cycles((3, 1, 5, 4, 6, 2))
    ((1, 3, 5, 6, 2),)
    >>> cycles((1, 2, 3))
    ()
    """
    seen = [False] * len(p)
    out = []
    for start in range(1, len(p) + 1):
        if seen[start - 1] or p[start - 1] == start:
            continue
        cyc = []
        v = start
        while not seen[v - 1]:
            seen[v - 1] = True
            cyc.append(v)
            v = p[v - 1]
        out.append(tuple(cyc))
    return tuple(out)


def from_cycles(cycs, degree: int) -> Perm:
    """
    Rebuild a one-line permutation from disjoint cycles.

    >>> from_cycles([(1, 2, 4, 5)], 5)
    (2, 4, 3, 5, 1)
    """
    line = list(range(1, degree + 1))
    for cyc in cycs:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            line[a - 1] = b
    return tuple(line)


def cycle_type(p: Perm) -> tuple[int, ...]:
    """
    Multiset of cycle lengths including fixed points, sorted descending.

    >>> cycle_type((2, 4, 3, 5, 1))
    (4, 1)
    >>> cycle_type((1, 2, 3))
    (1, 1, 1)
    """
    lengths = [len(c) for c in cycles(p)]
    lengths += [1] * (len(p) - sum(lengths))
    return tuple(sorted(lengths, reverse=True))


def find_321(p: Perm):
    """
    First triple of positions i < j < k (1-based) with p(i) > p(j) > p(k),
    or None.  Deliberately the naive cubic scan.

    >>> find_321((3, 1, 5, 4, 6, 2))
    (3, 4, 6)
    >>> find_321((2, 4, 1, 3)) is None
    True
    """
    n = len(p)
    for i in range(n):
        for j in range(i + 1, n):
            if p[i] <= p[j]:
                continue
            for k in range(j + 1, n):
                if p[j] > p[k]:
                    return (i + 1, j + 1, k + 1)
    return None


def contains_321(p: Perm) -> bool:
    return find_321(p) is not None


def iter_cfc_permutations(degree: int) -> Iterator[Perm]:
    """
    Every permutation of 1..degree (degree >= 1) that avoids 321 and 3412,
    the CFC permutations, each once, in lexicographic order:
    F(2*degree-1) of them, built depth-first.

    An entry that is not a left-to-right maximum must be the smallest value
    not yet placed, or a larger entry before it and a smaller one after it
    would form a 321; conversely a line built only from such entries and
    new maxima avoids 321.  So each position takes the smallest unplaced
    value or any value above the prefix maximum.  A new maximum ends no
    3412, so only the smallest unplaced value can; a prefix where it would
    is dropped, since that value comes after the prefix in every
    completion.  Some kept prefixes still complete to no line.

    >>> list(iter_cfc_permutations(3))
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)]
    >>> sum(1 for _ in iter_cfc_permutations(4))
    13
    """
    line: list[int] = []
    placed = [False] * (degree + 2)
    # one frame per open position: its remaining choices, and the prefix
    # maximum and smallest unplaced value before it
    frames = [(iter(range(1, degree + 1)), 0, 1)]
    while frames:
        choices, top, low = frames[-1]
        if len(line) == len(frames):
            placed[line.pop()] = False
        v = next(choices, None)
        if v is None:
            frames.pop()
            continue
        line.append(v)
        placed[v] = True
        if len(line) == degree:
            yield tuple(line)
            continue
        top = max(top, v)
        while placed[low]:
            low += 1
        above = range(top + 1, degree + 1)
        if low > top:
            choices = above
        elif _closes_3412(line, low):
            choices = ()
        else:
            choices = [low, *above]
        frames.append((iter(choices), top, low))


def _closes_3412(line, v: int) -> bool:
    """True iff appending v to line ends a 3412: entries a < b above v,
    in that order, followed by an entry below v."""
    least = float("inf")  # the least entry above v so far
    pair = False  # an entry above v has a larger one after it
    for x in line:
        if x < v:
            if pair:
                return True
        elif x > least:
            pair = True
        else:
            least = x
    return False


def find_3412(p: Perm):
    """
    First quadruple of positions i < j < k < l (1-based) with
    p(k) < p(l) < p(i) < p(j), or None.  Deliberately the naive quartic scan.

    >>> find_3412((3, 4, 1, 2))
    (1, 2, 3, 4)
    >>> find_3412((2, 4, 1, 3)) is None
    True
    """
    n = len(p)
    for i in range(n):
        for j in range(i + 1, n):
            if p[i] >= p[j]:
                continue
            for k in range(j + 1, n):
                if p[k] >= p[i]:
                    continue
                for l in range(k + 1, n):
                    if p[k] < p[l] < p[i]:
                        return (i + 1, j + 1, k + 1, l + 1)
    return None


def contains_3412(p: Perm) -> bool:
    return find_3412(p) is not None


def conjugate(p: Perm, x: Perm) -> Perm:
    """
    x o p o x^{-1} under right-to-left composition.

    >>> conjugate((2, 1, 3), (2, 3, 1))
    (1, 3, 2)
    """
    if len(p) != len(x):
        raise DegreeMismatch(f"degrees {len(p)} and {len(x)} differ")
    return compose(compose(x, p), inverse(x))


def same_cycle_type(p: Perm, q: Perm) -> bool:
    """
    >>> same_cycle_type((2, 3, 1), (3, 1, 2))
    True
    >>> same_cycle_type((2, 1, 3), (3, 2, 1))
    True
    """
    if len(p) != len(q):
        raise DegreeMismatch(f"degrees {len(p)} and {len(q)} differ")
    return cycle_type(p) == cycle_type(q)


def word_from_permutation(p: Perm) -> Word:
    """
    The lexicographically least reduced word for ``p`` over generators
    1..degree-1, built by repeatedly taking the smallest left descent.

    Removing descent i changes only descents i-1, i and i+1, so the scan
    resumes at i-1: O(n + l) for degree n and length l.  The scan looks up
    every value 1..n, so a sequence that is not a permutation of 1..n
    raises NotAPermutation at no extra cost.

    >>> word_from_permutation((2, 4, 3, 5, 1))
    (1, 2, 3, 2, 4)
    >>> word_from_permutation((1, 2, 3))
    ()
    """
    pos = {v: i for i, v in enumerate(p)}
    word = []
    i = 1
    try:
        if len(p) == 1:
            pos[1]  # the scan below looks nothing up at degree 1
        while i < len(p):
            # i is a left descent iff the value i+1 sits before the value i
            if pos[i + 1] < pos[i]:
                word.append(i)
                pos[i], pos[i + 1] = pos[i + 1], pos[i]
                i = max(i - 1, 1)
            else:
                i += 1
    except KeyError:
        raise NotAPermutation(f"{list(p)} is not a permutation of 1..{len(p)}") from None
    return tuple(word)
