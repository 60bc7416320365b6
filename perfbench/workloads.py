"""Seeded request generators for the benchmark workloads.

Requests come in blocks.  Every block of a workload has the same make-up
(kinds, ranks, cost strata); the seed picks the concrete words and the order
within the block.  A run executes whole blocks, so two seeds present the
same mix of work and differ only in the inputs, which keeps throughput and
latency comparable across seeds.

Where the cost of a request swings widely with a property of a random
input, a block holds k slots for that input and slot i draws the input at
the (i + 1/2)/k quantile of the property's distribution: the input is drawn
by the stated random process, conditioned on the property being that
quantile's value (or, for a table, on its rank lying within QUANTILE_BAND of
it).  The seed still picks the input; only the cost profile of a block is
fixed.  Left unconditioned, the four rank-6 squares and six rank-9 Coxeter
elements of a classify_mix block moved a 20-second run's throughput by 10%
from seed to seed.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from collections import deque
from functools import lru_cache

from check import length, lex_least_word, word_image

# --- word helpers -----------------------------------------------------------


def encode(word, rank: int) -> str:
    """The README's text notation: digits up to rank 9, commas above, e for
    the identity.  A one-letter word above rank 9 has no comma and so is
    read back digit by digit; the generators below never produce one, but
    nothing here avoids it either."""
    if not word:
        return "e"
    if rank <= 9:
        return "".join(str(g) for g in word)
    return ",".join(str(g) for g in word)


def orientation(order) -> tuple[bool, ...]:
    """Bit g-1 is True when generator g comes before g+1 in the letter order."""
    pos = {g: i for i, g in enumerate(order)}
    return tuple(pos[g] < pos[g + 1] for g in range(1, len(order)))


def signature_count(bits) -> int:
    """Letter orders of generators 1..len(bits)+1 with the given orientation:
    permutations of positions with a fixed ascent/descent pattern."""
    counts = [1]  # counts[j]: prefixes whose last entry has relative rank j
    for up in bits:
        size = len(counts) + 1
        if up:
            counts = [sum(counts[:j]) for j in range(size)]
        else:
            counts = [sum(counts[j:]) for j in range(size)]
    return sum(counts)


@lru_cache(maxsize=None)
def _class_sizes(rank: int) -> dict:
    """Commutation class size (letter orders sharing the orientation) of
    every orientation of the rank's path."""
    return {bits: signature_count(bits) for bits in itertools.product((True, False), repeat=rank - 1)}


def quantile_coxeter(rng: random.Random, rank: int, slot: int, slots: int) -> tuple[int, ...]:
    """A uniform random letter order of 1..rank, conditioned on its class
    size being the value at quantile (slot + 1/2)/slots of the class size of
    a uniform random letter order.  The closure walk visits the whole class,
    so the class size sets the request's cost."""
    sizes = _class_sizes(rank)
    q = (slot + 0.5) / slots * math.factorial(rank)
    seen = 0
    for size in sorted(set(sizes.values())):
        seen += size * sum(1 for s in sizes.values() if s == size)
        if seen > q:
            target = size
            break
    while True:
        order = list(range(1, rank + 1))
        rng.shuffle(order)
        if sizes[orientation(order)] == target:
            return tuple(order)


def random_permutation(rng: random.Random, degree: int) -> tuple[int, ...]:
    p = list(range(1, degree + 1))
    rng.shuffle(p)
    return tuple(p)


# --- requests ---------------------------------------------------------------


def word_request(kind: str, label: str, rank: int, word) -> dict:
    word = tuple(word)
    return {
        "kind": kind,
        "label": label,
        "rank": rank,
        "word": word,
        "argv": [kind, "--rank", str(rank), "--word", encode(word, rank)],
    }


def pair_request(kind: str, label: str, rank: int, w, y) -> dict:
    w, y = tuple(w), tuple(y)
    return {
        "kind": kind,
        "label": label,
        "rank": rank,
        "w": w,
        "y": y,
        "argv": [kind, "--rank", str(rank), "--w", encode(w, rank), "--y", encode(y, rank)],
    }


def batch_request(kind: str, rank: int, extra=()) -> dict:
    req = {"kind": kind, "label": f"{kind}/r{rank}", "rank": rank}
    argv = [kind, "--rank", str(rank)]
    if extra:
        req["element_kind"] = extra[1]
        req["label"] = f"{kind}-{extra[1]}/r{rank}"
        argv += list(extra)
    req["argv"] = argv
    return req


# --- classify_mix -------------------------------------------------------------
#
# Per block of 104 requests:
#   60 classify on the lex-least word of a uniform random permutation, 15 at
#      each rank 3..6.  Ranks 7..9 are left out: S_8 already holds cyclically
#      reduced elements with 346,918 reduced words (exhaustive count), which
#      the closure walk takes about a minute on, so one unlucky draw would
#      decide a whole run.
#   30 classify on Coxeter elements in random letter order, 6 at each rank
#      5..9, at the quantiles of commutation-class size.
#   10 classify on squares c*c of Coxeter elements in random letter order,
#      3 at rank 4, 3 at rank 5 and 4 at rank 6, at the quantiles of the
#      closure walk's length.  Only letter orders whose square is a reduced
#      word are drawn (otherwise the request is a usage error); that leaves
#      out 1..n and n..1 only.
#    4 render (ASCII) of random-permutation lifts at ranks 3, 5, 7 and 9.

COXETER_SLOTS = 6
SQUARE_SLOTS = {4: 3, 5: 3, 6: 4}
SQUARE_WALKS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "square_walks.json")
QUANTILE_BAND = 0.025


def walk_visits(word, rank: int) -> int:
    """Words the closure walk of classify.is_cyclically_reduced visits on
    this reduced word: breadth-first over reduced words (commutation moves,
    then braid moves, left to right), stopping at the first word with a
    cyclic shift that is not reduced."""
    word = tuple(word)
    seen = {word}
    queue = deque([word])
    visits = 0
    while queue:
        u = queue.popleft()
        visits += 1
        v = u
        for _ in range(len(u)):
            v = v[1:] + v[:1]
            if length(word_image(v, rank)) != len(v):
                return visits
        moves = [u[:i] + (u[i + 1], u[i]) + u[i + 2 :] for i in range(len(u) - 1) if abs(u[i] - u[i + 1]) > 1]
        moves += [
            u[:i] + (u[i + 1], u[i], u[i + 1]) + u[i + 3 :]
            for i in range(len(u) - 2)
            if u[i] == u[i + 2] and abs(u[i] - u[i + 1]) == 1
        ]
        for v in moves:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return visits


def build_square_walks() -> None:
    """Write square_walks.json; takes a few minutes, mostly at rank 6."""
    table = {}
    for rank in SQUARE_SLOTS:
        table[str(rank)] = {}
        for c in itertools.permutations(range(1, rank + 1)):
            if length(word_image(c + c, rank)) == 2 * rank:
                table[str(rank)]["".join(map(str, c))] = walk_visits(c + c, rank)
    with open(SQUARE_WALKS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=0, sort_keys=True)
        handle.write("\n")


@lru_cache(maxsize=None)
def _square_walks(rank: int) -> list[tuple[int, tuple[int, ...]]]:
    """(walk_visits(c + c), c) for every letter order c of 1..rank whose
    square is reduced, sorted; read from square_walks.json."""
    with open(SQUARE_WALKS, encoding="utf-8") as handle:
        table = json.load(handle)[str(rank)]
    return sorted((visits, tuple(int(g) for g in order)) for order, visits in table.items())


def quantile_square(rng: random.Random, rank: int, slot: int, slots: int) -> tuple[int, ...]:
    """c + c for a uniform random Coxeter letter order c with a reduced
    square, conditioned on the closure walk's length on c + c ranking within
    QUANTILE_BAND of quantile (slot + 1/2)/slots."""
    walks = _square_walks(rank)
    q = (slot + 0.5) / slots
    low = int(max(q - QUANTILE_BAND, 0.0) * len(walks))
    high = max(int(min(q + QUANTILE_BAND, 1.0) * len(walks)), low + 1)
    c = rng.choice(walks[low:high])[1]
    return c + c


def classify_block(rng: random.Random) -> list[dict]:
    block = []
    for rank in range(3, 7):
        for _ in range(15):
            word = lex_least_word(random_permutation(rng, rank + 1))
            block.append(word_request("classify", f"classify/lift-r{rank}", rank, word))
    for rank in range(5, 10):
        for slot in range(COXETER_SLOTS):
            word = quantile_coxeter(rng, rank, slot, COXETER_SLOTS)
            block.append(word_request("classify", f"classify/coxeter-r{rank}", rank, word))
    for rank, slots in SQUARE_SLOTS.items():
        for slot in range(slots):
            word = quantile_square(rng, rank, slot, slots)
            block.append(word_request("classify", f"classify/square-r{rank}", rank, word))
    for rank in (3, 5, 7, 9):
        word = lex_least_word(random_permutation(rng, rank + 1))
        block.append(word_request("render", f"render/r{rank}", rank, word))
    rng.shuffle(block)
    return block


# --- conjugacy_mix ------------------------------------------------------------
#
# Per block of 46 requests, 14 (30%) on single-chunk words:
#   ranks 10..16, one witness on a conjugate pair and one conj, on a conjugate
#     pair at even ranks and a non-conjugate pair at odd ranks.  Both words are
#     Coxeter elements in random letter order; a non-conjugate partner leaves
#     out one random generator, which splits the ring.
# and 32 on multi-chunk words:
#   ranks 20, 50, 100, 200, each twice as conj and twice as witness, once on a
#     conjugate and once on a non-conjugate pair.  The support is a random
#     sequence of runs of 1..8 generators separated by gaps of 1..3, in random
#     letter order.  The conjugate partner permutes the runs and redraws the
#     gaps; the non-conjugate partner changes one run's size by one.

SINGLE_RANKS = tuple(range(10, 17))
MULTI_RANKS = (20, 50, 100, 200)
MAX_CHUNK = 8


def _runs_to_word(rng: random.Random, sizes, rank: int) -> tuple[int, ...]:
    """Lay the runs out left to right with random gaps, shrinking the gaps
    when the layout would pass the rank, then shuffle the letters."""
    gaps = [rng.randint(1, 3) for _ in sizes]
    gaps[0] = rng.randint(0, 2)
    while sum(sizes) + sum(gaps) > rank:
        i = max(range(len(gaps)), key=lambda k: gaps[k])
        if gaps[i] <= (0 if i == 0 else 1):
            raise ValueError("runs do not fit")
        gaps[i] -= 1
    letters = []
    start = 1
    for size, gap in zip(sizes, gaps):
        start += gap
        letters.extend(range(start, start + size))
        start += size
    rng.shuffle(letters)
    return tuple(letters)


def _multi_chunk_sizes(rng: random.Random, rank: int) -> list[int]:
    """Random run sizes, drawn until the next run would not fit in the rank
    with one gap between runs; at least two runs."""
    sizes = []
    used = 0
    while True:
        size = rng.randint(1, MAX_CHUNK)
        if used + size + (1 if sizes else 0) > rank - 1:
            break
        used += size + (1 if sizes else 0)
        sizes.append(size)
    if len(sizes) < 2:
        sizes = [1, 1]
    return sizes


def _non_conjugate_sizes(rng: random.Random, sizes, rank: int) -> list[int]:
    sizes = list(sizes)
    i = rng.randrange(len(sizes))
    if sizes[i] > 1 and (sizes[i] == MAX_CHUNK or rng.random() < 0.5):
        sizes[i] -= 1
    else:
        sizes[i] += 1
    if sum(sizes) + len(sizes) - 1 > rank:
        sizes[i] -= 2
        if sizes[i] < 1:
            del sizes[i]
    rng.shuffle(sizes)
    return sizes


def _coxeter_pair(rng: random.Random, rank: int, conjugate: bool):
    w = random_permutation(rng, rank)
    y = random_permutation(rng, rank)
    if not conjugate:
        dropped = rng.randint(1, rank)
        y = tuple(g for g in y if g != dropped)
    return w, y


def _chunks_pair(rng: random.Random, rank: int, conjugate: bool):
    sizes = _multi_chunk_sizes(rng, rank)
    w = _runs_to_word(rng, sizes, rank)
    if conjugate:
        other = list(sizes)
        rng.shuffle(other)
    else:
        other = _non_conjugate_sizes(rng, sizes, rank)
    return w, _runs_to_word(rng, other, rank)


def conjugacy_block(rng: random.Random) -> list[dict]:
    block = []
    for rank in SINGLE_RANKS:
        w, y = _coxeter_pair(rng, rank, True)
        block.append(pair_request("witness", f"witness/coxeter-r{rank}", rank, w, y))
        w, y = _coxeter_pair(rng, rank, rank % 2 == 0)
        block.append(pair_request("conj", f"conj/coxeter-r{rank}", rank, w, y))
    for rank in MULTI_RANKS:
        for kind in ("conj", "witness"):
            for conjugate in (True, False, True, False):
                w, y = _chunks_pair(rng, rank, conjugate)
                block.append(pair_request(kind, f"{kind}/chunks-r{rank}", rank, w, y))
    rng.shuffle(block)
    return block


# --- tables_sweep -------------------------------------------------------------
#
# Per block, one of each batch job; the seed sets their order.  The inputs
# are ranks, so nothing else is left to draw.


def tables_block(rng: random.Random) -> list[dict]:
    block = [batch_request("classtable", rank) for rank in (5, 6, 7)]
    block.append(batch_request("counts", 8, ("--kind", "fc")))
    block.append(batch_request("enumerate", 9, ("--kind", "cfc")))
    block += [batch_request("conjecture-check", rank) for rank in (6, 7)]
    rng.shuffle(block)
    return block


# The percentile latency_tail_ms reports: the highest of 50, 75, 90, 95, 99
# with at least ten samples beyond it in a 25-second run at the seed commit.
# It is fixed per workload because the number of requests in a run varies by
# a block or two, and letting the percentile follow it made the tail jump
# between p95 and p99 from run to run.
TAIL_PERCENTILE = {"classify_mix": 95.0, "conjugacy_mix": 95.0, "tables_sweep": 50.0}

WORKLOADS = {
    "classify_mix": classify_block,
    "conjugacy_mix": conjugacy_block,
    "tables_sweep": tables_block,
}


if __name__ == "__main__":
    build_square_walks()
