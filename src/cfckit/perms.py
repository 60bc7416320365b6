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

from .errors import DegreeMismatch, InvalidGenerator, NotAPermutation

Perm = tuple[int, ...]
Word = tuple[int, ...]


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

    The walk reads every entry once; an entry outside 1..n, or a walk that
    does not return to its start, raises NotAPermutation.

    >>> cycles((2, 4, 3, 5, 1))
    ((1, 2, 4, 5),)
    >>> cycles((3, 1, 5, 4, 6, 2))
    ((1, 3, 5, 6, 2),)
    >>> cycles((1, 2, 3))
    ()
    """
    n = len(p)
    seen = [False] * n
    out = []
    for start in range(1, n + 1):
        if seen[start - 1] or p[start - 1] == start:
            continue
        cyc = []
        v = start
        while not seen[v - 1]:
            seen[v - 1] = True
            cyc.append(v)
            v = p[v - 1]
            if not 1 <= v <= n:
                break
        if v != start:
            raise NotAPermutation(f"{list(p)} is not a permutation of 1..{n}")
        out.append(tuple(cyc))
    return tuple(out)


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


def conjugate(p: Perm, x: Perm) -> Perm:
    """
    x o p o x^{-1} under right-to-left composition; :func:`compose` checks
    the degrees.

    >>> conjugate((2, 1, 3), (2, 3, 1))
    (1, 3, 2)
    """
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
    resumes at i-1: O(n + l) for degree n and length l, with the positions
    of the values i and i+1 read once per step.  The scan looks up every
    value 1..n in a dict of positions, so a sequence that is not a
    permutation of 1..n raises NotAPermutation at no extra cost.

    >>> word_from_permutation((2, 4, 3, 5, 1))
    (1, 2, 3, 2, 4)
    >>> word_from_permutation((1, 2, 3))
    ()
    """
    pos = {v: i for i, v in enumerate(p)}
    degree = len(p)
    word = []
    i = 1
    try:
        if degree == 1:
            pos[1]  # the scan below looks nothing up at degree 1
        while i < degree:
            # i is a left descent iff the value i+1 sits before the value i
            here, after = pos[i], pos[i + 1]
            if after < here:
                word.append(i)
                pos[i], pos[i + 1] = after, here
                if i > 1:
                    i -= 1
            else:
                i += 1
    except KeyError:
        raise NotAPermutation(f"{list(p)} is not a permutation of 1..{degree}") from None
    return tuple(word)
