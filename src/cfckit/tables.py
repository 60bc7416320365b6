"""Class tables: CFC elements grouped by conjugacy, cyclic class and
commutation class.

The leaves of a table partition every reduced expression of every CFC
element of the rank.  In type A those are exactly the words over 1..rank
with no repeated letter, so ``words.distinct_letter_classes`` builds every
leaf in one pass over them, grouped by heap and already sorted, and a cap
error comes before any element is grouped.  The elements come from
``classify.enumerate_cfc``, so they are CFC by construction and none is
checked again.  Each is grouped by its class key (``classify.class_key``):
the ring sizes fix the conjugacy class, and the sorted support the cyclic
class.  Each element's leaf is the one under its ``words.heap_key``.
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
    elements = classify.enumerate_cfc(rank, max_rank=max_rank)
    leaves = words.distinct_letter_classes(rank)
    by_conjugacy: dict[tuple[int, ...], dict[Word, list[Word]]] = {}
    for element in elements:
        sizes, canonical = classify.class_key(element)
        by_conjugacy.setdefault(sizes, {}).setdefault(canonical, []).append(element)
    groups = []
    for sizes, cyclic_map in by_conjugacy.items():
        cyclic_groups = []
        for canonical in sorted(cyclic_map):
            members = sorted(cyclic_map[canonical])
            expression_lists = tuple(tuple(leaves[words.heap_key(m)]) for m in members)
            cyclic_groups.append(CyclicClassGroup(canonical, expression_lists))
        groups.append(ConjugacyClassGroup(sizes, tuple(cyclic_groups)))
    groups.sort(key=lambda g: (sum(g.ring_sizes), g.cyclic_classes[0].canonical_word))
    return ClassTable(rank, tuple(groups))
