"""Brute-force oracles the tests trust instead of the code under test.

Everything here is deliberately naive: breadth-first search in the Cayley
graph for lengths, itertools scans for patterns, full conjugation sweeps
for conjugacy, sweeps of the whole symmetric group for FC enumeration
and the conjecture check, the plain 321-avoider search (every
321-avoider, lifted to its word), the earlier listing kernels (linear
extensions by a heap queue, the lift that rescans from generator 1, the
breadth-first commutation walk), the word-level FC / CFC routes that
decide each verdict from its definition, and the heap-level ones: the
forbidden-pattern scan of the stacked blocks and the pairwise union-find
of chunks.  Expected values frozen into the tests were computed with these.
"""

import heapq
from collections import deque
from dataclasses import dataclass
from itertools import combinations, permutations, product

from cfckit import classify, conjecture, heaps, perms, tables, words


def adjacent_swap(line, i):
    """Right-multiply one-line ``line`` by the transposition (i, i+1)."""
    out = list(line)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def cayley_lengths(degree):
    """Shortest-word length for every permutation of 1..degree, by BFS over
    right multiplication with adjacent transpositions."""
    start = tuple(range(1, degree + 1))
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for i in range(1, degree):
            v = adjacent_swap(u, i)
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def naive_contains_321(p):
    return any(p[i] > p[j] > p[k] for i, j, k in combinations(range(len(p)), 3))


def naive_contains_3412(p):
    return any(
        p[k] < p[l] < p[i] < p[j] for i, j, k, l in combinations(range(len(p)), 4)
    )


def word_image(word, degree):
    """Independent word-to-permutation map: left-to-right position swaps."""
    line = tuple(range(1, degree + 1))
    for g in word:
        line = adjacent_swap(line, g)
    return line


def conjugacy_orbit(p):
    """All conjugates x p x^-1 over the full symmetric group of ``p``."""
    n = len(p)
    orbit = set()
    for x in permutations(range(1, n + 1)):
        xinv = [0] * n
        for i, v in enumerate(x):
            xinv[v - 1] = i + 1
        orbit.add(tuple(x[p[xinv[i] - 1] - 1] for i in range(n)))
    return frozenset(orbit)


def diagonalize_steps_bfs(start, bits):
    """Shortest shift sequence taking a chunk orientation to all-forward, by
    breadth-first search over the 2^(k-1) orientations.  bits[j] is True
    when generator start+j precedes start+j+1; shifting generator g, legal
    when it precedes both neighbors in the chunk, makes it follow them."""
    target = (True,) * len(bits)
    parents = {bits: (bits, 0)}
    queue = deque([bits])
    while queue:
        state = queue.popleft()
        if state == target:
            path = []
            while state != bits:
                state, letter = parents[state]
                path.append(letter)
            return path[::-1]
        for j in range(len(bits) + 1):
            if (j > 0 and state[j - 1]) or (j < len(bits) and not state[j]):
                continue
            new = list(state)
            if j > 0:
                new[j - 1] = True
            if j < len(bits):
                new[j] = False
            new = tuple(new)
            if new not in parents:
                parents[new] = (state, start + j)
                queue.append(new)
    raise AssertionError("diagonal orientation unreachable")


def heap_covers_by_scan(blocks):
    """Cover pairs (upper, lower) of stacked blocks, from the definition:
    adjacent columns, upper strictly higher, and neither column holding a
    block strictly between.  Blocks carry ``index``, ``gen`` and ``level``."""
    return frozenset(
        (a.index, b.index)
        for a in blocks
        for b in blocks
        if abs(a.gen - b.gen) == 1
        and a.level > b.level
        and not any(c.gen in (a.gen, b.gen) and b.level < c.level < a.level for c in blocks)
    )


def maximal_blocks_by_scan(blocks):
    """Blocks with no higher block in their own or an adjacent column."""
    tops = [
        b for b in blocks if not any(o.level > b.level and abs(o.gen - b.gen) <= 1 for o in blocks)
    ]
    return tuple(sorted(tops, key=lambda b: b.gen))


def fc_words_by_sweep(rank):
    """Canonical words of the FC elements, by filtering all (rank+1)!
    permutations through the 321 scan."""
    return frozenset(
        perms.word_from_permutation(p)
        for p in permutations(range(1, rank + 2))
        if perms.find_321(p) is None
    )


def iter_321_avoiding(degree):
    """
    Every 321-avoiding permutation of 1..degree (degree >= 1), each once, in
    lexicographic order: Catalan(degree) of them, built depth-first.

    An entry that is not a left-to-right maximum must be the smallest value
    not yet placed, or a larger entry before it and a smaller one after it
    would form a 321; conversely a line built only from such entries and
    new maxima avoids 321.  So each position takes the smallest unplaced
    value or any value above the prefix maximum, and every prefix completes.
    """
    line = []
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
        choices = [low, *above] if low < top else above
        frames.append((iter(choices), top, low))


def fc_words_by_321_avoiders(rank):
    """Canonical words of the FC elements, by lifting every 321-avoider."""
    return frozenset(perms.word_from_permutation(p) for p in iter_321_avoiding(rank + 1))


def conjecture_report_by_sweep(rank):
    """The conjecture report, by comparing both verdicts on every one of the
    (rank+1)! permutations."""
    counterexamples = []
    checked = 0
    for p in permutations(range(1, rank + 2)):
        checked += 1
        predicted = conjecture.conjecture_predicate(p)
        actual = classify.cfc_pattern(p) is None
        if predicted != actual:
            counterexamples.append((perms.word_from_permutation(p), p, predicted, actual))
    return conjecture.ConjectureReport(
        rank=rank,
        elements_checked=checked,
        agree=not counterexamples,
        counterexamples=tuple(sorted(counterexamples, key=lambda c: c[1])),
    )


def lex_min_linear_extension(gens, edges):
    """Lex-least topological order of gens under precedence edges (a before b)."""
    succ = {g: [] for g in gens}
    indeg = {g: 0 for g in gens}
    for a, b in edges:
        succ[a].append(b)
        indeg[b] += 1
    out = []
    queue = [g for g in gens if indeg[g] == 0]
    heapq.heapify(queue)
    while queue:
        g = heapq.heappop(queue)
        out.append(g)
        for h in succ[g]:
            indeg[h] -= 1
            if indeg[h] == 0:
                heapq.heappush(queue, h)
    return tuple(out)


def distinct_letter_words(supports):
    """Canonical words of all elements with the given supports, one letter
    each: every orientation of the support's path graph, lifted to its
    lex-least linear extension."""
    out = set()
    for sup in supports:
        edge_list = [(a, a + 1) for a in sup if a + 1 in sup]
        for bits in product((True, False), repeat=len(edge_list)):
            edges = [(a, b) if forward else (b, a) for (a, b), forward in zip(edge_list, bits)]
            out.add(lex_min_linear_extension(sup, edges))
    return frozenset(out)


def cfc_words_by_orientation(rank):
    gens = range(1, rank + 1)
    return distinct_letter_words(
        sup for size in range(rank + 1) for sup in combinations(gens, size)
    )


def coxeter_words_by_orientation(rank):
    return distinct_letter_words([tuple(range(1, rank + 1))])


def word_from_permutation_by_restart(p):
    """The lex-least reduced word of p: take the smallest left descent,
    rescanning from generator 1 after each one."""
    pos = [0] * (len(p) + 1)
    for i, v in enumerate(p):
        pos[v] = i
    word = []
    while True:
        for i in range(1, len(p)):
            if pos[i + 1] < pos[i]:
                word.append(i)
                pos[i], pos[i + 1] = pos[i + 1], pos[i]
                break
        else:
            return tuple(word)


def commutation_class_by_walk(word):
    """Every word reached from ``word`` by swapping adjacent letters that
    differ by more than 1, breadth-first with a seen-set."""
    word = tuple(word)
    seen = {word}
    queue = deque([word])
    while queue:
        u = queue.popleft()
        for i in range(len(u) - 1):
            if abs(u[i] - u[i + 1]) > 1:
                v = u[:i] + (u[i + 1], u[i]) + u[i + 2 :]
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
    return frozenset(seen)


def class_table_by_oracles(rank):
    """The class table with its elements listed by orientation, its leaves
    by the commutation walk, each cyclic class named by the lex-least word
    of the literal orbit walk and each conjugacy class by the sizes of the
    union-find chunks.  Each orbit is walked once and names every element
    found in it; nothing assumes that the support fixes the orbit."""
    elements = sorted(cfc_words_by_orientation(rank), key=lambda w: (len(w), w))
    orbit_name = {}
    by_conjugacy = {}
    for element in elements:
        if element not in orbit_name:
            orbit = heaps.cyclic_orbit(element, rank)
            orbit_name.update(dict.fromkeys(orbit, min(orbit)))
        heap = heaps.build_heap(element, rank)
        sizes = tuple(sorted((c.size for c in chunks_by_union_find(heap)), reverse=True))
        by_conjugacy.setdefault(sizes, {}).setdefault(orbit_name[element], []).append(element)
    groups = [
        tables.ConjugacyClassGroup(
            sizes,
            tuple(
                tables.CyclicClassGroup(
                    canonical,
                    tuple(
                        tuple(sorted(commutation_class_by_walk(m)))
                        for m in sorted(cyclic_map[canonical])
                    ),
                )
                for canonical in sorted(cyclic_map)
            ),
        )
        for sizes, cyclic_map in by_conjugacy.items()
    ]
    groups.sort(key=lambda g: (sum(g.ring_sizes), g.cyclic_classes[0].canonical_word))
    return tables.ClassTable(rank, tuple(groups))


def _braid_factor(word):
    """Index of the first factor iji with |i-j| = 1, or None."""
    for i in range(len(word) - 2):
        a, b, c = word[i], word[i + 1], word[i + 2]
        if a == c and abs(a - b) == 1:
            return i
    return None


def _braid_scan(word, operation):
    """The first reduced expression of a checked word, in walk order, that
    holds a braid factor, with the factor's index; None if there is none."""
    for u in words.closure(word, words.expression_moves, operation):
        i = _braid_factor(u)
        if i is not None:
            return u, i
    return None


def stembridge_scan(word, rank):
    """FC iff no reduced expression holds a braid factor: walk the Matsumoto
    closure and stop at the first one."""
    word = words.require_reduced(word, rank)
    hit = _braid_scan(word, "is_fc(stembridge_scan)")
    if hit is None:
        return classify.FcVerdict(True, "stembridge_scan")
    u, i = hit
    return classify.FcVerdict(
        False, "stembridge_scan", {"kind": "braid", "word": list(u), "position": i}
    )


def single_commutation_class(word, rank):
    """FC iff the reduced expressions form one commutation class.  A braid
    move changes the letter multiset, so any braid move that applies inside
    the class leaves it and names a second class."""
    word = words.require_reduced(word, rank)
    walk = words.closure(word, words.commutation_moves, "is_fc(single_commutation_class)")
    for u in sorted(walk):
        i = _braid_factor(u)
        if i is not None:
            b = u[i + 1]
            other = u[:i] + (b, u[i], b) + u[i + 3 :]
            return classify.FcVerdict(
                False, "single_commutation_class", {"kind": "second_class", "word": list(other)}
            )
    return classify.FcVerdict(True, "single_commutation_class")


def definition(word, rank):
    """CFC from the definition: every cyclic shift of every reduced
    expression is reduced and holds no braid factor in any of its own
    reduced expressions."""
    word = words.require_reduced(word, rank)
    operation = "is_cfc(definition)"
    for u in words.closure(word, words.expression_moves, operation):
        v = u
        for k in range(1, len(u) + 1):
            v = words.cyclic_shift(v)
            if not words.is_reduced(v, rank) or _braid_scan(v, operation) is not None:
                failing = {"kind": "shift", "expression": list(u), "shifts": k, "word": list(v)}
                return classify.CfcVerdict(False, "definition", failing)
    return classify.CfcVerdict(True, "definition")


def support_once(word, rank):
    """CFC in type A iff no generator repeats in a reduced word."""
    word = words.require_reduced(word, rank)
    first = {}
    for pos, g in enumerate(word):
        if g in first:
            witness = {"kind": "repeat", "generator": g, "positions": [first[g], pos]}
            return classify.CfcVerdict(False, "support_once", witness)
        first[g] = pos
    return classify.CfcVerdict(True, "support_once")


# every route to each verdict, keyed by the method name its verdicts carry:
# the package's pattern scan and the word-level oracles above
FC_ROUTES = {
    "stembridge_scan": stembridge_scan,
    "single_commutation_class": single_commutation_class,
    "pattern_321": classify.is_fc,
}
CFC_ROUTES = {
    "definition": definition,
    "pattern_321_3412": classify.is_cfc,
    "support_once": support_once,
}


def columns(heap):
    """Blocks per column, bottom to top."""
    cols = {}
    for b in heap.blocks:
        cols.setdefault(b.gen, []).append(b)
    for col in cols.values():
        col.sort(key=lambda b: b.level)
    return cols


@dataclass(frozen=True)
class Violation:
    kind: str  # "collapse" (no separator) or "braid" (exactly one)
    column: int
    block_ids: tuple[int, ...]


def _gap_violation(column, upper, lower, separators):
    if len(separators) > 1:
        return None
    kind = "collapse" if not separators else "braid"
    ids = (upper.index, lower.index) + tuple(s.index for s in separators)
    return Violation(kind, column, ids)


def forbidden_pattern_scan(heap, mode="fc"):
    """
    Scan for the convex subheaps that witness failure of full commutativity.

    In ``fc`` mode, a violation is a pair of consecutive same-column blocks
    with at most one block of the adjacent columns between them.  In ``cfc``
    mode the column is additionally read around the cylinder, so the gap
    that wraps past the top is scanned as well.
    """
    if mode not in ("fc", "cfc"):
        raise ValueError(f"unknown scan mode {mode!r}")
    cols = columns(heap)
    out = []
    for c in sorted(cols):
        stack = cols[c]
        if len(stack) < 2:
            continue
        neighbors = cols.get(c - 1, []) + cols.get(c + 1, [])
        for lower, upper in zip(stack, stack[1:]):
            seps = [b for b in neighbors if lower.level < b.level < upper.level]
            v = _gap_violation(c, upper, lower, seps)
            if v is not None:
                out.append(v)
        if mode == "cfc":
            top, bottom = stack[-1], stack[0]
            seps = [b for b in neighbors if b.level > top.level or b.level < bottom.level]
            v = _gap_violation(c, top, bottom, seps)
            if v is not None:
                out.append(v)
    return tuple(out)


def chunks_by_union_find(heap):
    """The connected components of a heap, by joining every pair of blocks
    in the same or adjacent columns, ordered by least generator."""
    parent = list(range(len(heap.blocks)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a in heap.blocks:
        for b in heap.blocks:
            if a.index < b.index and abs(a.gen - b.gen) <= 1:
                parent[find(a.index)] = find(b.index)
    groups = {}
    for b in heap.blocks:
        groups.setdefault(find(b.index), []).append(b)
    out = []
    for members in groups.values():
        gens = [b.gen for b in members]
        out.append(
            heaps.Chunk(frozenset(b.index for b in members), min(gens), max(gens) - min(gens) + 1)
        )
    return tuple(sorted(out, key=lambda c: c.start))
