"""Rings of cylindrical heaps and the conjugacy decision for CFC elements.

A chunk wrapped on the cylinder is a ring, identified by its generator
interval.  Two CFC elements are conjugate exactly when their multisets of
ring sizes agree, and the equivalence is witnessed constructively: both
elements are normalized to the same simple form (diagonal chunks, packed
left, sizes descending) by cyclic shifts, one-column slides and adjacent
chunk swaps, each the word of one constructor that the public
:func:`slide_conjugator` / :func:`swap_conjugator` share.  The composite
conjugator is verified in the symmetric group before a certificate is
returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import classify, perms, words
from .errors import (
    ChunkAtBoundary,
    InvalidGenerator,
    OutOfRange,
    PatternMismatch,
    VerificationFailed,
)

Word = tuple[int, ...]


@dataclass(frozen=True)
class Ring:
    start: int
    size: int


@dataclass(frozen=True)
class ConjugacyCertificate:
    source: Word  # canonical word of the first element
    target: Word  # canonical word of the second element
    conjugator: Word  # x with x * source * x^-1 = target; not necessarily reduced
    verified: bool


def rings_of(word, rank: int) -> tuple[Ring, ...]:
    """
    One ring per chunk of the heap, ordered by start column.

    >>> rings_of((1, 2, 3, 5, 6), 6)
    (Ring(start=1, size=3), Ring(start=5, size=2))
    >>> rings_of((1,), 2)
    (Ring(start=1, size=1),)
    """
    word, _ = classify.require_cfc(word, rank)
    return tuple(Ring(start, size) for start, size in classify.support_runs(word))


def slide_equivalent(w, y, rank: int) -> bool:
    """
    True iff the rings match up in order with equal sizes, i.e. one heap is
    obtained from the other by translating rings along the generator line.

    >>> slide_equivalent((1, 2, 4, 5, 6, 7), (2, 3, 6, 7, 8, 9), 9)
    True
    >>> slide_equivalent((1, 2, 3, 5, 6), (3, 4, 7, 8, 9), 9)
    False
    """
    return [r.size for r in rings_of(w, rank)] == [r.size for r in rings_of(y, rank)]


def is_conjugate_cfc(w, y, rank: int) -> bool:
    """
    Conjugacy decision for CFC elements, also named ``ring_equivalent``:
    True iff the multisets of ring sizes coincide.

    >>> is_conjugate_cfc((1, 2, 3, 5, 6), (3, 4, 7, 8, 9), 9)
    True
    >>> is_conjugate_cfc((1,), (2,), 2)
    True
    >>> ring_equivalent((1, 2), (1, 3), 3)
    False
    """
    w, _ = classify.require_cfc(w, rank)
    y, _ = classify.require_cfc(y, rank)
    return classify.class_key(w)[0] == classify.class_key(y)[0]


ring_equivalent = is_conjugate_cfc


def slide_conjugator(k: int, k_prime: int, rank: int) -> Word:
    """
    The ascending word k, k+1, ..., k'+1 that conjugates the diagonal chunk
    on columns k..k' one column to the right.

    >>> slide_conjugator(3, 6, 7)
    (3, 4, 5, 6, 7)
    >>> slide_conjugator(1, 1, 2)
    (1, 2)
    """
    words.check_rank(rank)
    if k < 1 or k_prime < k:
        raise OutOfRange(f"need 1 <= k <= k', got k={k}, k'={k_prime}")
    if k_prime > rank:
        raise InvalidGenerator(f"generator {k_prime} outside 1..{rank}")
    if k_prime == rank:
        raise ChunkAtBoundary(f"chunk ending at {k_prime} cannot slide right in rank {rank}")
    return _slide_word(k, k_prime)


def _slide_word(k: int, k_prime: int) -> Word:
    """The word k, ..., k'+1 sliding the diagonal chunk on k..k' right."""
    return tuple(range(k, k_prime + 2))


def _swap_word(big: int, small: int, offset: int) -> Word:
    """Conjugator permuting adjacent diagonal chunks of sizes (big, small),
    the larger on the left, both packed starting at column ``offset``."""
    out = []
    for r in range(small + 1):
        out.extend(range(offset + small - r, offset + small + big - r + 1))
    return tuple(out)


def swap_conjugator(k: int, m: int, rank: int) -> Word:
    """
    Conjugator exchanging the sizes of the simple two-chunk element with
    chunks 1..k and k+2..k+m+1.  For k < m the inverse construction is
    used; for k = m no conjugation is needed.

    >>> swap_conjugator(3, 2, 6)
    (3, 4, 5, 6, 2, 3, 4, 5, 1, 2, 3, 4)
    >>> swap_conjugator(2, 2, 5)
    ()
    """
    words.check_rank(rank)
    if k < 1 or m < 1:
        raise OutOfRange(f"chunk sizes must be positive, got {k}, {m}")
    if k + m + 1 > rank:
        raise OutOfRange(f"chunks of sizes {k} and {m} do not fit in rank {rank}")
    if k == m:
        return ()
    if k > m:
        return _swap_word(k, m, 1)
    return tuple(reversed(_swap_word(m, k, 1)))


def boomerang_rewrite(word, pos: int) -> Word:
    """
    Rewrite the factor (k)(k+1)...(k')(k'+1)(k')...(k+1)(k) at ``pos`` into
    (k'+1)(k')...(k+1)(k)(k+1)...(k')(k'+1) by braid moves; the image in the
    symmetric group is unchanged.

    >>> boomerang_rewrite((1, 2, 3, 2, 1), 0)
    (3, 2, 1, 2, 3)
    >>> boomerang_rewrite((1, 2, 1), 0)
    (2, 1, 2)
    """
    word = tuple(word)
    if not 0 <= pos < len(word):
        raise PatternMismatch(f"position {pos} outside word of length {len(word)}")
    k = word[pos]
    t = pos
    while t + 1 < len(word) and word[t + 1] == word[t] + 1:
        t += 1
    apex = word[t]
    if apex == k:
        raise PatternMismatch(f"no ascending run at position {pos}")
    length = 2 * (apex - k) + 1
    expected = tuple(range(k, apex + 1)) + tuple(range(apex - 1, k - 1, -1))
    if word[pos : pos + length] != expected:
        raise PatternMismatch(f"no boomerang factor at position {pos}")
    replacement = tuple(range(apex, k - 1, -1)) + tuple(range(k + 1, apex + 1))
    return word[:pos] + replacement + word[pos + length :]


def stst_rewrite(word, pos: int) -> Word:
    """
    Collapse the factor i, j, i, j with |i-j| = 1 at ``pos`` to j, i.

    >>> stst_rewrite((1, 2, 1, 2), 0)
    (2, 1)
    >>> stst_rewrite((5, 4, 5, 4), 0)
    (4, 5)
    """
    word = tuple(word)
    if not 0 <= pos < len(word):
        raise PatternMismatch(f"position {pos} outside word of length {len(word)}")
    factor = word[pos : pos + 4]
    if len(factor) != 4:
        raise PatternMismatch(f"no 4-letter factor at position {pos}")
    i, j = factor[0], factor[1]
    if abs(i - j) != 1 or factor != (i, j, i, j):
        raise PatternMismatch(f"factor {list(factor)} is not of the form i,j,i,j")
    return word[:pos] + (j, i) + word[pos + 4 :]


def _diagonalize_steps(start: int, bits: tuple[bool, ...]) -> list[int]:
    """Shortest sequence of cyclic shifts making the chunk diagonal.

    A shift is legal at generator g when its block is maximal within the
    chunk.  Shifting the leftmost maximal generator past the first column
    moves one backward edge one column right, or out past the last column,
    so no shorter sequence exists, and only a shift at the last column
    lowers the count of backward edges.  A shift at column j changes only
    whether columns j-1..j+1 are maximal, so the search resumes at j-1.
    """
    state = list(bits)
    backward = state.count(False)
    steps = []
    j = 1
    while backward:
        # j > 0 is maximal iff j-1 follows it and j+1 (if any) precedes it
        while state[j - 1] or (j < len(state) and not state[j]):
            j += 1
        state[j - 1] = True
        if j < len(state):
            state[j] = False
        else:
            backward -= 1
        steps.append(start + j)
        j = max(j - 1, 1)
    return steps


def _normalize(word: Word) -> list[int]:
    """The letters of X^-1, where conjugation by X takes the validated CFC
    word to the simple element with the same ring sizes sorted descending,
    packed left.  Each step prepends a piece to X, so it appends the
    reversed piece to X^-1."""
    layout = classify.chunk_layout(word)
    inverse: list[int] = []
    for start, _, bits in layout:
        inverse.extend(_diagonalize_steps(start, bits))

    target = 1  # chunks stay separated, so each one's start is >= target
    for start, size, _ in layout:
        for a in range(start, target, -1):
            # the rightward slide word of the chunk on columns a-1..a+size-2
            inverse.extend(_slide_word(a - 1, a + size - 2))
        target += size + 1

    sizes = [size for _, size, _ in layout]
    changed = True
    while changed:
        changed = False
        offset = 1
        for i in range(len(sizes) - 1):
            small, big = sizes[i], sizes[i + 1]
            if small < big:
                # the (big, small) -> (small, big) swap at offset
                inverse.extend(_swap_word(big, small, offset))
                sizes[i], sizes[i + 1] = big, small
                changed = True
            offset += sizes[i] + 1
    return inverse


def conjugacy_witness(w, y, rank: int) -> ConjugacyCertificate | None:
    """
    A verified conjugator for two conjugate CFC elements, or None when they
    are not conjugate.  Both elements are normalized to the same simple
    form; the witness is the composite of the two normalizing conjugators.

    >>> cert = conjugacy_witness((3, 4, 5, 6), (4, 5, 6, 7), 7)
    >>> cert.verified
    True
    >>> conjugacy_witness((1, 2), (1, 3), 3) is None
    True
    """
    w, p_w = classify.require_cfc(w, rank)
    y, p_y = classify.require_cfc(y, rank)
    if classify.class_key(w)[0] != classify.class_key(y)[0]:
        return None
    # X_y^-1 X_w carries w to the common simple form and on to y
    conjugator = tuple(_normalize(y)) + tuple(reversed(_normalize(w)))
    p_x = perms.to_permutation(conjugator, rank)
    if perms.conjugate(p_w, p_x) != p_y:
        raise VerificationFailed(
            f"conjugator {list(conjugator)} does not carry {list(w)} to {list(y)}"
        )
    return ConjugacyCertificate(
        source=perms.word_from_permutation(p_w),
        target=perms.word_from_permutation(p_y),
        conjugator=conjugator,
        verified=True,
    )
