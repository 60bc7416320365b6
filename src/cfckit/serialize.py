"""JSON object forms and text notations for the package's value types.

Words serialize as integer arrays with the rank carried alongside; the text
notation is a digit string for ranks up to 9 and comma-separated above, so
generator 12 at rank 12 reads as itself.  Cycles print as ``(1 2 4 5)`` and
are normalized smallest-first on parse.  Loaders check heaps, certificates,
conjecture reports and class tables again rather than trusting them, and
report any missing key, wrong type, non-permutation, letter outside the rank
or contradicted content as InvalidObject.
"""

from __future__ import annotations

import functools
import math

from . import classify, conjecture, heaps, perms, rings, tables, words
from .errors import CfcError, InvalidGenerator, InvalidObject

Word = tuple[int, ...]
Perm = tuple[int, ...]


def parse_word_text(text: str, rank: int) -> Word:
    """
    >>> parse_word_text("12342", 4)
    (1, 2, 3, 4, 2)
    >>> parse_word_text("10,2,11", 11)
    (10, 2, 11)
    >>> parse_word_text("e", 3)
    ()
    """
    text = text.strip()
    if text in ("", "e"):
        return ()
    # int() also reads underscores and non-ASCII digits; the notation has neither
    if "_" not in text and (
        text.isascii() or not any(ch.isdecimal() and not ch.isascii() for ch in text)
    ):
        try:
            if "," in text or rank > 9:
                return tuple(int(part) for part in text.split(","))
            return tuple(int(ch) for ch in text)
        except ValueError:
            pass
    raise InvalidGenerator(f"cannot parse word {text!r}")


def format_word_text(word: Word, rank: int) -> str:
    """
    >>> format_word_text((1, 2, 3, 4, 2), 4)
    '12342'
    >>> format_word_text((), 3)
    'e'
    """
    if not word:
        return "e"
    if rank <= 9:
        return "".join(str(g) for g in word)
    return ",".join(str(g) for g in word)


def _loader(load):
    """Report a malformed object as InvalidObject, whichever part fails."""

    @functools.wraps(load)
    def checked(obj):
        try:
            return load(obj)
        except InvalidObject:
            raise
        except (CfcError, KeyError, TypeError, ValueError) as exc:
            raise InvalidObject(f"{load.__name__}: malformed object ({exc!r})") from None

    return checked


def _typed(value, kind):
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def _ints(value) -> tuple[int, ...]:
    return tuple(_typed(v, int) for v in _typed(value, list))


def _word(value, rank: int) -> Word:
    return words.check_word(_ints(value), rank)


def _perm(value) -> Perm:
    p = _ints(value)
    if not perms.is_one_line(p):
        raise ValueError(f"{list(p)} is not a permutation")
    return p


def word_to_obj(word: Word, rank: int) -> dict:
    return {"rank": rank, "word": list(word)}


@_loader
def word_from_obj(obj: dict) -> tuple[Word, int]:
    rank = _typed(obj["rank"], int)
    return _word(obj["word"], rank), rank


def perm_to_obj(p: Perm) -> dict:
    return {"one_line": list(p)}


@_loader
def perm_from_obj(obj: dict) -> Perm:
    return _perm(obj["one_line"])


def cycle_to_text(cycle) -> str:
    """
    >>> cycle_to_text((1, 2, 4, 5))
    '(1 2 4 5)'
    """
    return "(" + " ".join(str(v) for v in cycle) + ")"


def cycle_from_text(text: str) -> tuple[int, ...]:
    """
    >>> cycle_from_text("(4 5 1 2)")
    (1, 2, 4, 5)
    """
    body = text.strip().lstrip("(").rstrip(")")
    try:
        entries = tuple(int(part) for part in body.replace(",", " ").split())
    except ValueError:
        raise InvalidObject(f"cannot parse cycle {text!r}") from None
    if len(set(entries)) < len(entries) or any(v < 1 for v in entries):
        raise InvalidObject(f"cycle {text!r} must list distinct positive entries")
    return conjecture._min_first(entries) if entries else ()


def heap_to_obj(heap: heaps.Heap) -> dict:
    return {
        "rank": heap.rank,
        "blocks": [{"gen": b.gen, "level": b.level} for b in heap.blocks],
        "covers": sorted([a, b] for a, b in heap.covers),
    }


@_loader
def heap_from_obj(obj: dict) -> heaps.Heap:
    rank = _typed(obj["rank"], int)
    blocks = tuple(
        heaps.Block(i, _typed(entry["gen"], int), _typed(entry["level"], int))
        for i, entry in enumerate(obj["blocks"])
    )
    covers = frozenset(_ints(pair) for pair in obj["covers"])
    heap = heaps.Heap(rank, blocks, covers)
    if heaps._assemble(words.check_word(heap.word(), rank), rank) != heap:
        raise InvalidObject("heap levels or covers do not match its block letters")
    return heap


def fc_verdict_to_obj(verdict) -> dict:
    return {"is_fc": verdict.is_fc, "method": verdict.method, "witness": verdict.witness}


def cfc_verdict_to_obj(verdict) -> dict:
    return {"is_cfc": verdict.is_cfc, "method": verdict.method, "witness": verdict.witness}


def certificate_to_obj(cert: rings.ConjugacyCertificate) -> dict:
    return {
        "source": list(cert.source),
        "target": list(cert.target),
        "conjugator": list(cert.conjugator),
        "verified": cert.verified,
    }


@_loader
def certificate_from_obj(obj: dict) -> rings.ConjugacyCertificate:
    """Load a certificate after checking it again: S_{m+1} embeds in every
    larger symmetric group, so the largest letter m fixes enough degree."""
    source, target, conjugator = (_ints(obj[key]) for key in ("source", "target", "conjugator"))
    rank = max(source + target + conjugator, default=1)
    p_source, p_target, p_x = (perms.to_permutation(w, rank) for w in (source, target, conjugator))
    if perms.conjugate(p_source, p_x) != p_target:
        raise InvalidObject(
            f"conjugator {list(conjugator)} does not carry {list(source)} to {list(target)}"
        )
    return rings.ConjugacyCertificate(source, target, conjugator, verified=True)


def report_to_obj(report: conjecture.ConjectureReport) -> dict:
    return {
        "rank": report.rank,
        "elements_checked": report.elements_checked,
        "agree": report.agree,
        "counterexamples": [
            {
                "word": list(word),
                "one_line": list(p),
                "predicate_verdict": predicted,
                "cfc_verdict": actual,
            }
            for word, p, predicted, actual in report.counterexamples
        ],
    }


@_loader
def report_from_obj(obj: dict) -> conjecture.ConjectureReport:
    """Load a sweep report after recomputing every counterexample it lists."""
    rank = _typed(obj["rank"], int)
    words.check_rank(rank)
    report = conjecture.ConjectureReport(
        rank=rank,
        elements_checked=_typed(obj["elements_checked"], int),
        agree=_typed(obj["agree"], bool),
        counterexamples=tuple(
            (
                _word(entry["word"], rank),
                _perm(entry["one_line"]),
                _typed(entry["predicate_verdict"], bool),
                _typed(entry["cfc_verdict"], bool),
            )
            for entry in obj["counterexamples"]
        ),
    )
    degree = rank + 1
    # degree! >= 2^(degree-1) exceeds every count of fewer than degree bits,
    # so a huge rank is rejected without building its factorial
    if degree > report.elements_checked.bit_length():
        raise InvalidObject(f"a rank-{rank} sweep checks {degree}! elements")
    if report.elements_checked != math.factorial(degree):
        raise InvalidObject(f"a rank-{rank} sweep checks {math.factorial(degree)} elements")
    if report.agree != (not report.counterexamples):
        raise InvalidObject("agree contradicts the counterexample list")
    one_lines = [p for _, p, _, _ in report.counterexamples]
    if any(a >= b for a, b in zip(one_lines, one_lines[1:])):
        raise InvalidObject("counterexamples are not sorted by one-line without repeats")
    for word, p, predicted, actual in report.counterexamples:
        if len(p) != rank + 1 or perms.to_permutation(word, rank) != p:
            raise InvalidObject(f"{list(p)} is not the rank-{rank} image of {list(word)}")
        if perms.word_from_permutation(p) != word:
            raise InvalidObject(f"{list(word)} is not the canonical word of {list(p)}")
        if (predicted, actual) != (
            conjecture.conjecture_predicate(p),
            classify.cfc_pattern(p) is None,
        ):
            raise InvalidObject(f"the verdicts on {list(p)} do not match a recomputation")
        if predicted == actual:
            raise InvalidObject(f"{list(p)} is no counterexample: both verdicts are {predicted}")
    return report


def class_table_to_obj(table: tables.ClassTable) -> dict:
    return {
        "rank": table.rank,
        "conjugacy_classes": [
            {
                "ring_size_multiset": list(group.ring_sizes),
                "cyclic_classes": [
                    {
                        "canonical_word": list(cyc.canonical_word),
                        "commutation_classes": [
                            [list(w) for w in cls] for cls in cyc.commutation_classes
                        ],
                    }
                    for cyc in group.cyclic_classes
                ],
            }
            for group in table.conjugacy_classes
        ],
    }


@_loader
def class_table_from_obj(obj: dict) -> tables.ClassTable:
    """Load a class table after checking each element it lists: a CFC word
    whose commutation class is its leaf list, whose sorted support is the
    canonical word above it and whose chunk sizes are the group's ring sizes.
    Every class must list an element, and no element may be listed twice.
    As for certificates, a leaf is checked in the degree of its largest
    letter, so the cost follows the data, not the declared rank."""
    rank = _typed(obj["rank"], int)
    words.check_rank(rank)
    groups = []
    for group in obj["conjugacy_classes"]:
        cyclic = tuple(
            tables.CyclicClassGroup(
                canonical_word=_word(cyc["canonical_word"], rank),
                commutation_classes=tuple(
                    tuple(_word(w, rank) for w in cls) for cls in cyc["commutation_classes"]
                ),
            )
            for cyc in group["cyclic_classes"]
        )
        groups.append(tables.ConjugacyClassGroup(_ints(group["ring_size_multiset"]), cyclic))
    listed = set()  # the first word of each leaf, which names its element
    for group in groups:
        if not group.cyclic_classes:
            raise InvalidObject(f"ring sizes {list(group.ring_sizes)} list no cyclic class")
        for cyc in group.cyclic_classes:
            if not cyc.commutation_classes:
                raise InvalidObject(f"the cyclic class of {list(cyc.canonical_word)} lists no element")
            for expressions in cyc.commutation_classes:
                _check_leaf(expressions, cyc.canonical_word, group.ring_sizes)
                if expressions[0] in listed:
                    raise InvalidObject(f"{list(expressions[0])} is listed twice")
                listed.add(expressions[0])
    return tables.ClassTable(rank, tuple(groups))


def _check_leaf(expressions, canonical: Word, ring_sizes) -> None:
    if not expressions:
        raise InvalidObject("a table leaf lists no expressions")
    # every listed word is a reduced expression of the first, so all are CFC.
    # Above the largest letter the image only has fixed points, which no 321
    # or 3412 occurrence uses, so a rejection names the same witness as at
    # the table's rank.
    first = classify.require_cfc(expressions[0], max(expressions[0], default=1))
    if expressions != tuple(sorted(words.linear_extensions(first, "commutation_class"))):
        raise InvalidObject(f"{[list(w) for w in expressions]} is not a sorted commutation class")
    sizes, support = classify.class_key(first)
    if support != canonical:
        raise InvalidObject(f"{list(canonical)} is not the sorted support of {list(first)}")
    if sizes != ring_sizes:
        raise InvalidObject(f"{list(first)} has chunk sizes {list(sizes)}, not {list(ring_sizes)}")


def error_to_obj(exc) -> dict:
    return {"code": getattr(exc, "code", "error"), "message": str(exc)}
