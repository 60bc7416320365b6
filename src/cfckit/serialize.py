"""JSON object forms and text notations for the package's value types.

Words serialize as integer arrays with the rank carried alongside; the text
notation is a digit string for ranks up to 9 and comma-separated above, so
generator 12 at rank 12 reads as itself.  Cycles print as ``(1 2 4 5)`` and
are normalized smallest-first on parse.  Numbers in either text are ASCII
digits, read by ``words.ascii_int``.  Loaders check heaps, certificates,
conjecture reports and class tables again rather than trusting them, and
report any missing key, wrong type, non-permutation, letter outside the rank
or contradicted content as InvalidObject; a closure past its cap and a
malformed cap setting keep their own codes.  They read CFC off a reduced
word as no repeated letter (type A), so no loader runs a pattern scan.
"""

from __future__ import annotations

import functools
import math

from . import classify, conjecture, heaps, perms, rings, tables, words
from .errors import CfcError, ClosureTooLarge, InvalidGenerator, InvalidObject, InvalidSetting

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
    try:
        return tuple(map(words.ascii_int, text.split(",") if "," in text or rank > 9 else text))
    except ValueError:
        raise InvalidGenerator(f"cannot parse word {text!r}") from None


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
    """Report a malformed object as InvalidObject, whichever part fails;
    the closure cap and its setting are no fault of the object."""

    @functools.wraps(load)
    def checked(obj):
        try:
            return load(obj)
        except (InvalidObject, ClosureTooLarge, InvalidSetting):
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
    body = text.strip()
    try:
        if body[:1] + body[-1:] != "()":
            raise ValueError("a cycle is one pair of parentheses")
        entries = tuple(words.ascii_int(part) for part in body[1:-1].replace(",", " ").split())
    except ValueError:
        raise InvalidObject(f"cannot parse cycle {text!r}") from None
    if len(set(entries)) < len(entries) or any(v < 1 for v in entries):
        raise InvalidObject(f"cycle {text!r} must list distinct positive entries")
    return conjecture._min_first(entries)


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
    """Load a certificate after checking it again, on its letters relabelled
    so that neighbours stay neighbours and each gap becomes one unused
    letter: they generate an isomorphic parabolic subgroup, and the check
    runs in at most twice as many letters as the certificate uses.  The
    letters keep their order, so a word is canonical iff its relabelling is."""
    source, target, conjugator = (_ints(obj[key]) for key in ("source", "target", "conjugator"))
    label, top = {}, -1
    for g in sorted(set(source + target + conjugator)):
        if g < 1:
            raise InvalidGenerator(f"generator {g} is below 1")
        top += 1 if g - 1 in label else 2
        label[g] = top
    relabelled = [tuple(label[g] for g in w) for w in (source, target, conjugator)]
    p_source, p_target, p_x = (perms.to_permutation(w, max(top, 1)) for w in relabelled)
    for word, w, p in zip((source, target), relabelled, (p_source, p_target)):
        if perms.word_from_permutation(p) != w:
            raise InvalidObject(f"{list(word)} is not a canonical word")
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
        if (predicted, actual) != (conjecture.conjecture_predicate(p), len(set(word)) == len(word)):
            raise InvalidObject(f"the verdicts on {list(p)} do not match a recomputation")
        if predicted == actual:
            raise InvalidObject(f"{list(p)} is no counterexample: both verdicts are {predicted}")
    return report


def class_table_to_obj(table: tables.ClassTable) -> dict:
    """The table as an object for ``json``, which writes a tuple as an array:
    its words and ring sizes go in as the table's own tuples, uncopied, so
    the object costs one dict per class and its encoding reads the same as
    with lists.  Load it back from the JSON text; the loader takes lists.

    >>> import json
    >>> group = class_table_to_obj(tables.class_table(1))["conjugacy_classes"][1]
    >>> group["ring_size_multiset"], group["cyclic_classes"][0]["commutation_classes"]
    ((1,), (((1,),),))
    >>> json.dumps(group["cyclic_classes"])
    '[{"canonical_word": [1], "commutation_classes": [[[1]]]}]'
    """
    return {
        "rank": table.rank,
        "conjugacy_classes": [
            {
                "ring_size_multiset": group.ring_sizes,
                "cyclic_classes": [
                    {
                        "canonical_word": cyc.canonical_word,
                        "commutation_classes": cyc.commutation_classes,
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
    Every class must list an element, and no element, ring-size multiset or
    canonical word may be listed twice.  The sorted support fixes both
    classes, so an element can sit only under its own canonical word and a
    repeat is looked for within each cyclic class.  The cost follows the
    leaves, not the declared rank."""
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
    listed_sizes, listed_canonical = set(), set()
    for group in groups:
        if not group.cyclic_classes:
            raise InvalidObject(f"ring sizes {list(group.ring_sizes)} list no cyclic class")
        if group.ring_sizes in listed_sizes:
            raise InvalidObject(f"ring sizes {list(group.ring_sizes)} are listed twice")
        listed_sizes.add(group.ring_sizes)
        for cyc in group.cyclic_classes:
            if cyc.canonical_word in listed_canonical:
                raise InvalidObject(f"canonical word {list(cyc.canonical_word)} is listed twice")
            listed_canonical.add(cyc.canonical_word)
            if not cyc.commutation_classes:
                raise InvalidObject(f"the cyclic class of {list(cyc.canonical_word)} lists no element")
            listed = set()  # the first word of each leaf, which names its element
            for expressions in cyc.commutation_classes:
                _check_leaf(expressions, cyc.canonical_word, group.ring_sizes)
                if expressions[0] in listed:
                    raise InvalidObject(f"{list(expressions[0])} is listed twice")
                listed.add(expressions[0])
    return tables.ClassTable(rank, tuple(groups))


def _check_leaf(expressions, canonical: Word, ring_sizes) -> None:
    if not expressions:
        raise InvalidObject("a table leaf lists no expressions")
    # a word is a reduced word of a CFC element iff no letter repeats in it;
    # every other listed word must be a reduced expression of the first
    first = expressions[0]
    if len(set(first)) < len(first):
        raise InvalidObject(f"{list(first)} is not CFC: a letter repeats")
    if expressions != tuple(sorted(words.linear_extensions(first, "commutation_class"))):
        raise InvalidObject(f"{[list(w) for w in expressions]} is not a sorted commutation class")
    sizes, support = classify.class_key(first)
    if support != canonical:
        raise InvalidObject(f"{list(canonical)} is not the sorted support of {list(first)}")
    if sizes != ring_sizes:
        raise InvalidObject(f"{list(first)} has chunk sizes {list(sizes)}, not {list(ring_sizes)}")


def error_to_obj(exc) -> dict:
    return {"code": getattr(exc, "code", "error"), "message": str(exc)}
