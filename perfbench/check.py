"""Reference answers for the benchmark, computed without importing cfckit.

Conventions follow the cfckit README: a word is a sequence of generator
indices 1..rank, generator g is the adjacent transposition (g, g+1) of
{1, ..., rank+1}, and a word's permutation is the product of its letters
from left to right, written in one-line notation.  Each check returns a
list of problems; an empty list means the response is correct.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

Perm = tuple[int, ...]


# --- permutation arithmetic -------------------------------------------------


def word_image(word, rank: int) -> Perm:
    """Right-multiply the identity by each letter in turn (a position swap)."""
    line = list(range(1, rank + 2))
    for g in word:
        line[g - 1], line[g] = line[g], line[g - 1]
    return tuple(line)


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[v - 1] for v in q)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p, 1):
        inv[v - 1] = i
    return tuple(inv)


def length(p: Perm) -> int:
    return sum(1 for a, b in itertools.combinations(p, 2) if a > b)


def has_321(p: Perm) -> bool:
    return any(a > b > c for a, b, c in itertools.combinations(p, 3))


def has_3412(p: Perm) -> bool:
    return any(c < d < a < b for a, b, c, d in itertools.combinations(p, 4))


def cycle_type(p: Perm) -> tuple[int, ...]:
    seen = set()
    sizes = []
    for start in range(1, len(p) + 1):
        size = 0
        v = start
        while v not in seen:
            seen.add(v)
            v = p[v - 1]
            size += 1
        if size:
            sizes.append(size)
    return tuple(sorted(sizes, reverse=True))


def lex_least_word(p: Perm) -> tuple[int, ...]:
    """The lexicographically least reduced word: strip the smallest left
    descent (value i+1 placed before value i) until the identity remains."""
    line = list(p)
    word = []
    while True:
        pos = {v: i for i, v in enumerate(line)}
        for i in range(1, len(line)):
            if pos[i + 1] < pos[i]:
                word.append(i)
                line[pos[i]], line[pos[i + 1]] = i + 1, i
                break
        else:
            return tuple(word)


def is_cyclically_reduced(p: Perm) -> bool:
    """Every cyclic shift of every reduced word of p is reduced.

    Shifting the first k letters x of a reduced word to its end gives a word
    for x^-1 p x, so the condition is l(x^-1 p x) = l(p) for every prefix x,
    i.e. for every x below p in the right weak order.
    """
    n = len(p) - 1
    total = length(p)
    identity = tuple(range(1, n + 2))
    seen = {identity}
    queue = deque([identity])
    while queue:
        x = queue.popleft()
        if length(compose(compose(inverse(x), p), x)) != total:
            return False
        depth = length(x)
        for g in range(1, n + 1):
            if x[g - 1] > x[g]:
                continue  # appending g would shorten x
            y = x[: g - 1] + (x[g], x[g - 1]) + x[g + 1 :]
            if y not in seen and length(compose(inverse(y), p)) == total - depth - 1:
                seen.add(y)
                queue.append(y)
    return True


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# --- response checks ----------------------------------------------------------
#
# Fields left unchecked, by request kind:
#   classify: the "method" strings of the fc/cfc sub-verdicts.
#   render: the horizontal placement of blocks within a row.
#   witness: nothing; the conjugator is not required to be reduced or short.
#   enumerate: that each element is the lex-least word of its element (only
#     distinctness of the images and the CFC property are checked).
#   classtable: the grouping into conjugacy and cyclic classes, and the
#     canonical words (counts, commutation equivalence and disjointness are
#     checked).
#   conjecture-check: nothing beyond the fields named in check_conjecture.


def check_classify(req, obj) -> list[str]:
    rank, word = req["rank"], tuple(req["word"])
    p = word_image(word, rank)
    fc = not has_321(p)
    cfc = fc and not has_3412(p)
    problems = []
    if obj.get("rank") != rank or tuple(obj.get("word", ())) != word:
        problems.append("echoed rank/word differ")
    if obj.get("is_fc") is not fc or obj.get("fc", {}).get("is_fc") is not fc:
        problems.append(f"is_fc should be {fc}")
    if obj.get("is_cfc") is not cfc or obj.get("cfc", {}).get("is_cfc") is not cfc:
        problems.append(f"is_cfc should be {cfc}")
    expected_cr = is_cyclically_reduced(p)
    if obj.get("is_cyclically_reduced") is not expected_cr:
        problems.append(f"is_cyclically_reduced should be {expected_cr}")
    for verdict in (obj.get("fc") or {}, obj.get("cfc") or {}):
        witness = verdict.get("witness")
        if witness and not _pattern_at(p, witness):
            problems.append(f"witness {witness} is not a pattern of {p}")
    return problems


def _pattern_at(p: Perm, witness) -> bool:
    values = [p[i - 1] for i in witness.get("positions", ())]
    if witness.get("kind") == "321" and len(values) == 3:
        return values[0] > values[1] > values[2]
    if witness.get("kind") == "3412" and len(values) == 4:
        return values[2] < values[3] < values[0] < values[1]
    return False


def heap_levels(word) -> list[int]:
    """Level of each letter's block when blocks drop from the right end."""
    top: dict[int, int] = {}
    levels = [0] * len(word)
    for i in range(len(word) - 1, -1, -1):
        g = word[i]
        levels[i] = 1 + max(top.get(c, 0) for c in (g - 1, g, g + 1))
        top[g] = levels[i]
    return levels


def check_render(req, text) -> list[str]:
    rank, word = req["rank"], tuple(req["word"])
    if not isinstance(text, str):
        return ["render output is not text"]
    lines = text.rstrip("\n").split("\n")
    labels = [int(tok) for tok in lines[-1].split()]
    rows = lines[:-1]
    height = max(heap_levels(word), default=1)
    problems = []
    if labels != list(range(1, rank + 1)):
        problems.append("column labels differ")
    if len(rows) != height:
        problems.append(f"{len(rows)} rows, heap height is {height}")
    drawn = sorted(int(tok.strip("[] ")) for row in rows for tok in row.split("]") if "[" in tok)
    if drawn != sorted(word):
        problems.append("blocks differ from the word's letters")
    return problems


def check_conj(req, obj) -> list[str]:
    rank = req["rank"]
    expected = cycle_type(word_image(req["w"], rank)) == cycle_type(word_image(req["y"], rank))
    if obj.get("conjugate") is not expected:
        return [f"conjugate should be {expected}"]
    return []


def check_witness(req, obj) -> list[str]:
    rank = req["rank"]
    p_w = word_image(req["w"], rank)
    p_y = word_image(req["y"], rank)
    if cycle_type(p_w) != cycle_type(p_y):
        return [] if obj.get("conjugate") is False else ["non-conjugate pair got a certificate"]
    if "conjugator" not in obj:
        return ["conjugate pair got no certificate"]
    problems = []
    x = word_image(obj["conjugator"], rank)
    if compose(compose(x, p_w), inverse(x)) != p_y:
        problems.append("conjugator does not carry w to y")
    if tuple(obj.get("source", ())) != lex_least_word(p_w):
        problems.append("source is not the canonical word of w")
    if tuple(obj.get("target", ())) != lex_least_word(p_y):
        problems.append("target is not the canonical word of y")
    if obj.get("verified") is not True:
        problems.append("certificate not marked verified")
    return problems


def expected_count(kind: str, rank: int) -> int:
    if kind == "fc":
        return catalan(rank + 1)
    if kind == "cfc":
        return fibonacci(2 * rank + 1)
    return 2 ** (rank - 1)


def check_counts(req, obj) -> list[str]:
    expected = expected_count(req["element_kind"], req["rank"])
    if obj.get("count") != expected:
        return [f"count {obj.get('count')} should be {expected}"]
    return []


def check_enumerate(req, obj) -> list[str]:
    rank, kind = req["rank"], req["element_kind"]
    elements = [tuple(w) for w in obj.get("elements", ())]
    problems = []
    if len(elements) != expected_count(kind, rank):
        problems.append(f"{len(elements)} elements, expected {expected_count(kind, rank)}")
    images = {word_image(w, rank) for w in elements}
    if len(images) != len(elements):
        problems.append("two listed words have the same image")
    for w in elements:
        if length(word_image(w, rank)) != len(w):
            problems.append(f"{list(w)} is not a reduced word")
            break
        if kind != "fc" and len(set(w)) != len(w):
            problems.append(f"{list(w)} repeats a letter")
            break
        if kind == "coxeter" and len(w) != rank:
            problems.append(f"{list(w)} does not use every generator")
            break
    return problems


def check_classtable(req, obj) -> list[str]:
    rank = req["rank"]
    classes = [
        [tuple(w) for w in cls]
        for group in obj.get("conjugacy_classes", ())
        for cyc in group["cyclic_classes"]
        for cls in cyc["commutation_classes"]
    ]
    problems = []
    expected = fibonacci(2 * rank + 1)
    if len(classes) != expected:
        problems.append(f"element_count {len(classes)} should be {expected}")
    images = set()
    for cls in classes:
        image = word_image(cls[0], rank)
        if any(word_image(w, rank) != image for w in cls):
            problems.append("a commutation class mixes elements")
            break
        images.add(image)
    if len(images) != len(classes):
        problems.append("an element is listed twice")
    return problems


def check_conjecture(req, obj) -> list[str]:
    rank = req["rank"]
    problems = []
    if obj.get("agree") is not True or obj.get("counterexamples"):
        problems.append("conjecture reported a disagreement")
    if obj.get("elements_checked") != math.factorial(rank + 1):
        problems.append(f"elements_checked should be {math.factorial(rank + 1)}")
    return problems


CHECKS = {
    "classify": check_classify,
    "render": check_render,
    "conj": check_conj,
    "witness": check_witness,
    "counts": check_counts,
    "enumerate": check_enumerate,
    "classtable": check_classtable,
    "conjecture-check": check_conjecture,
}
