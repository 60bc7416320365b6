"""Heaps: the labeled posets behind reduced words, drawn as stacked blocks.

Each letter of a word becomes a block in the column of its generator.  A
block placed by an earlier letter sits above every later block in its own
or an adjacent column; blocks in distant columns are incomparable.  Levels
are assigned greedily as low as possible while scanning the word right to
left, which makes the level of a block the height of the longest chain
below it, an intrinsic quantity of the poset.  Cover edges are recovered
from the lattice embedding: (x, y) covers (x', y') iff the columns are
adjacent, y > y', and neither column holds a block strictly between.

This module holds heap structure and drawing; it decides nothing that
:mod:`classify` decides.  The chunks of a heap, the components of its Hasse
diagram, are the runs of its support (``classify.support_runs``).  The
forbidden-pattern scans that read FC and CFC off the stacked blocks, in a
column and around the cylinder, are test oracles in ``tests/oracles.py``,
as is the comparison of two heaps as labeled posets.

The cylinder view identifies top and bottom: cyclic shifts move a maximal
block to the floor, and the equivalence class of a CFC heap under shifts
is summarized by its lex-least word over all shifts and commutations.  In
type A that is the sorted support: a CFC heap has one block per support
generator, a shift flips a source of the support's path graph into a sink,
and on a path such flips join all orientations (Eriksson & Eriksson,
"Conjugacy of Coxeter elements", 2009).  :func:`cyclic_orbit` walks the
class literally and stays as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import classify, words
from .errors import NotMaximalBlock

Word = tuple[int, ...]


@dataclass(frozen=True)
class Block:
    index: int  # position in the source word
    gen: int  # column
    level: int  # 1-based, bottom row is 1


@dataclass(frozen=True)
class Heap:
    rank: int
    blocks: tuple[Block, ...]
    covers: frozenset[tuple[int, int]]  # (upper, lower) block indices

    def word(self) -> Word:
        return tuple(b.gen for b in self.blocks)

    def maximal_blocks(self) -> tuple[Block, ...]:
        """The column tops that sit above both neighbouring column tops."""
        tops: dict[int, Block] = {}
        for b in self.blocks:
            if b.gen not in tops or b.level > tops[b.gen].level:
                tops[b.gen] = b
        return tuple(
            b
            for g, b in sorted(tops.items())
            if all(b.level > tops[c].level for c in (g - 1, g + 1) if c in tops)
        )


def _assemble(word: Word, rank: int) -> Heap:
    """Build the stacked-block heap of a checked word, reduced or not.

    A new block in column g covers the top of column g-1 or g+1 exactly when
    column g is empty or its top is lower; otherwise that top sits between.
    """
    levels = [0] * len(word)
    top: dict[int, int] = {}  # column -> level of its highest block so far
    top_pos: dict[int, int] = {}
    covers = set()
    for pos in range(len(word) - 1, -1, -1):
        g = word[pos]
        levels[pos] = 1 + max(top.get(c, 0) for c in (g - 1, g, g + 1))
        for c in (g - 1, g + 1):
            if c in top and top[c] > top.get(g, 0):
                covers.add((pos, top_pos[c]))
        top[g], top_pos[g] = levels[pos], pos
    blocks = tuple(Block(i, word[i], levels[i]) for i in range(len(word)))
    return Heap(rank, blocks, frozenset(covers))


def build_heap(word, rank: int) -> Heap:
    """
    The heap of a reduced expression.

    >>> h = build_heap((1, 3), 3)
    >>> [(b.gen, b.level) for b in h.blocks], sorted(h.covers)
    ([(1, 1), (3, 1)], [])
    """
    return _assemble(words.require_reduced(word, rank)[0], rank)


def heap_to_word(heap: Heap) -> Word:
    """
    Read the heap top-down, left to right within a level: a linear extension,
    hence a word commutation-equivalent to every source word of the heap.

    >>> heap_to_word(build_heap((2, 3, 5, 4), 5))
    (2, 3, 5, 4)
    """
    ordered = sorted(heap.blocks, key=lambda b: (-b.level, b.gen))
    return tuple(b.gen for b in ordered)


@dataclass(frozen=True)
class Chunk:
    block_ids: frozenset[int]
    start: int  # least generator
    size: int  # generator span; equals the block count on CFC heaps


def chunks(heap: Heap) -> tuple[Chunk, ...]:
    """
    Maximal connected components of the Hasse diagram, ordered by least
    generator.  Blocks in the same or adjacent columns are comparable, so
    the chunks are the runs of the support, each holding every block in its
    columns; the heap need not be reduced.

    >>> [(c.start, c.size) for c in chunks(build_heap((1, 2, 3, 5, 6), 6))]
    [(1, 3), (5, 2)]
    """
    runs = classify.support_runs(heap.word())
    run_of = {g: k for k, (start, size) in enumerate(runs) for g in range(start, start + size)}
    members = [[] for _ in runs]
    for b in heap.blocks:
        members[run_of[b.gen]].append(b.index)
    return tuple(Chunk(frozenset(ids), start, size) for ids, (start, size) in zip(members, runs))


def cyclic_shift_heap(heap: Heap, gen: int) -> Heap:
    """
    Remove the maximal block labeled ``gen`` and append it at the bottom.
    The result is the heap of the shifted word and may fail to be reduced.

    >>> cyclic_shift_heap(build_heap((1, 2, 3, 4), 4), 1).word()
    (2, 3, 4, 1)
    """
    candidates = [b for b in heap.maximal_blocks() if b.gen == gen]
    if not candidates:
        raise NotMaximalBlock(f"no maximal block labeled {gen}")
    top = candidates[0]
    rest = sorted((b for b in heap.blocks if b.index != top.index), key=lambda b: (-b.level, b.gen))
    new_word = tuple(b.gen for b in rest) + (gen,)
    return _assemble(new_word, heap.rank)


@dataclass(frozen=True)
class CylindricalHeap:
    canonical_word: Word
    ring_profile: tuple[tuple[int, int], ...]  # (start, size) per ring


def cyclic_orbit(word, rank: int) -> frozenset[Word]:
    """
    All words reachable from a CFC word by commutations and cyclic shifts;
    two CFC elements are cyclically equivalent iff their orbits coincide.
    The walk stops with ClosureTooLarge past ``words.closure_cap()`` words.
    """
    word, _ = classify.require_cfc(word, rank)
    moves = lambda u: (*words.commutation_moves(u), words.cyclic_shift(u))
    return frozenset(words.closure(word, moves, "cyclic_orbit"))


def cylindrical_canonical(word, rank: int) -> CylindricalHeap:
    """
    Canonical form of the cylinder class of a CFC word: the lex-least word
    over all commutation-class members of all cyclic shifts, which is the
    sorted support (see the module docstring).

    >>> cylindrical_canonical((2, 3, 1), 4).canonical_word
    (1, 2, 3)
    """
    word, _ = classify.require_cfc(word, rank)
    return CylindricalHeap(classify.class_key(word)[1], classify.support_runs(word))


def render(heap: Heap, fmt: str = "ascii") -> str:
    """Deterministic drawing of the stacked blocks; columns are labeled."""
    if fmt == "ascii":
        return _render_ascii(heap)
    if fmt == "svg":
        return _render_svg(heap)
    raise ValueError(f"unknown render format {fmt!r}")


def _render_ascii(heap: Heap) -> str:
    width = len(str(heap.rank)) + 2
    pitch = (width + 1) // 2
    total = (heap.rank - 1) * pitch + width
    top = max((b.level for b in heap.blocks), default=1)
    rows = [[" "] * total for _ in range(top)]
    for b in sorted(heap.blocks, key=lambda blk: (-blk.level, blk.gen)):
        text = "[" + str(b.gen).rjust(width - 2) + "]"
        x = (b.gen - 1) * pitch
        row = rows[top - b.level]
        for k, ch in enumerate(text):
            row[x + k] = ch
    label_row = [" "] * total
    for c in range(1, heap.rank + 1):
        text = str(c)
        x = (c - 1) * pitch + (width - len(text)) // 2
        for k, ch in enumerate(text):
            label_row[x + k] = ch
    lines = ["".join(r).rstrip() for r in rows] + ["".join(label_row).rstrip()]
    return "\n".join(lines) + "\n"


SVG_CELL_W = 60
SVG_CELL_H = 40


def _render_svg(heap: Heap) -> str:
    half = SVG_CELL_W // 2
    top = max((b.level for b in heap.blocks), default=1)
    width = (heap.rank - 1) * half + SVG_CELL_W + 20
    height = top * SVG_CELL_H + 40
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for b in heap.blocks:
        x = 10 + (b.gen - 1) * half
        y = 10 + (top - b.level) * SVG_CELL_H
        parts.append(
            f'<rect x="{x}" y="{y}" width="{SVG_CELL_W}" height="{SVG_CELL_H}" '
            f'fill="white" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x + half}" y="{y + SVG_CELL_H // 2 + 5}" '
            f'text-anchor="middle" font-size="16">{b.gen}</text>'
        )
    for c in range(1, heap.rank + 1):
        x = 10 + (c - 1) * half + half
        parts.append(
            f'<text x="{x}" y="{height - 10}" text-anchor="middle" '
            f'font-size="12">s{c}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
