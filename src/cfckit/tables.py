"""Class tables: CFC elements grouped by conjugacy, cyclic class and
commutation class.

The leaves of a table partition every reduced expression of every CFC
element of the rank.  In type A those are exactly the words over 1..rank
with no repeated letter, so each CFC element is one leaf of
``words.distinct_letter_classes``, which builds them a whole leaf at a
time, each sorted, and a cap error comes before any element is grouped.
The leaves are CFC by construction and none is checked again.  They are
filed by support, and each support gets one class key
(``classify.class_key``), at most 2^rank of them: the ring sizes fix the
conjugacy class, and the sorted support, the cyclic class, so each support
is one cyclic class.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import classify, words

Word = tuple[int, ...]


@dataclass(frozen=True)
class CyclicClassGroup:
    canonical_word: Word
    # one entry per element, sorted by canonical word; each entry lists the
    # element's reduced expressions (= its commutation class), sorted
    commutation_classes: tuple[tuple[Word, ...], ...]


@dataclass(frozen=True)
class ConjugacyClassGroup:
    ring_sizes: tuple[int, ...]  # sorted descending
    cyclic_classes: tuple[CyclicClassGroup, ...]


@dataclass(frozen=True)
class ClassTable:
    rank: int
    conjugacy_classes: tuple[ConjugacyClassGroup, ...]

    def element_count(self) -> int:
        return sum(
            len(cyc.commutation_classes)
            for conj in self.conjugacy_classes
            for cyc in conj.cyclic_classes
        )


def class_table(rank: int, max_rank: int = classify.ENUM_RANK_CAP) -> ClassTable:
    """
    >>> class_table(1).element_count()
    2
    """
    classify._check_enum_rank(rank, max_rank)
    by_support: dict[frozenset[int], list[tuple[Word, ...]]] = {}
    for leaf in words.distinct_letter_classes(rank):
        by_support.setdefault(frozenset(leaf[0]), []).append(leaf)
    by_conjugacy: dict[tuple[int, ...], list[CyclicClassGroup]] = {}
    for leaves in by_support.values():
        sizes, canonical = classify.class_key(leaves[0][0])
        by_conjugacy.setdefault(sizes, []).append(CyclicClassGroup(canonical, tuple(sorted(leaves))))
    groups = [
        ConjugacyClassGroup(sizes, tuple(sorted(cyclic, key=lambda c: c.canonical_word)))
        for sizes, cyclic in by_conjugacy.items()
    ]
    groups.sort(key=lambda g: (sum(g.ring_sizes), g.cyclic_classes[0].canonical_word))
    return ClassTable(rank, tuple(groups))
