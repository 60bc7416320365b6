"""JSON object forms and text notations for the package's value types.

Words serialize as integer arrays with the rank carried alongside; the text
notation is a digit string for ranks up to 9 and comma-separated above, so
generator 12 at rank 12 reads as itself.  Cycles print as ``(1 2 4 5)`` and
are normalized smallest-first on parse.  Loaders check heaps and
certificates again rather than trusting them.
"""

from __future__ import annotations

from . import conjecture, heaps, perms, rings, tables
from .errors import InvalidGenerator, InvalidObject

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
        if "," in text or rank > 9:
            return tuple(int(part) for part in text.split(","))
        return tuple(int(ch) for ch in text)
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


def word_to_obj(word: Word, rank: int) -> dict:
    return {"rank": rank, "word": list(word)}


def word_from_obj(obj: dict) -> tuple[Word, int]:
    return tuple(obj["word"]), int(obj["rank"])


def perm_to_obj(p: Perm) -> dict:
    return {"one_line": list(p)}


def perm_from_obj(obj: dict) -> Perm:
    return tuple(obj["one_line"])


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
    entries = tuple(int(part) for part in body.replace(",", " ").split())
    if not entries:
        return ()
    i = entries.index(min(entries))
    return entries[i:] + entries[:i]


def heap_to_obj(heap: heaps.Heap) -> dict:
    return {
        "rank": heap.rank,
        "blocks": [{"gen": b.gen, "level": b.level} for b in heap.blocks],
        "covers": sorted([a, b] for a, b in heap.covers),
    }


def heap_from_obj(obj: dict) -> heaps.Heap:
    blocks = tuple(
        heaps.Block(i, entry["gen"], entry["level"]) for i, entry in enumerate(obj["blocks"])
    )
    covers = frozenset((a, b) for a, b in obj["covers"])
    heap = heaps.Heap(int(obj["rank"]), blocks, covers)
    if heaps._assemble(heap.word(), heap.rank) != heap:
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


def certificate_from_obj(obj: dict) -> rings.ConjugacyCertificate:
    """Load a certificate after checking it again: S_{m+1} embeds in every
    larger symmetric group, so the largest letter m fixes enough degree."""
    source, target, conjugator = (tuple(obj[key]) for key in ("source", "target", "conjugator"))
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


def report_from_obj(obj: dict) -> conjecture.ConjectureReport:
    return conjecture.ConjectureReport(
        rank=int(obj["rank"]),
        elements_checked=int(obj["elements_checked"]),
        agree=bool(obj["agree"]),
        counterexamples=tuple(
            (
                tuple(entry["word"]),
                tuple(entry["one_line"]),
                bool(entry["predicate_verdict"]),
                bool(entry["cfc_verdict"]),
            )
            for entry in obj["counterexamples"]
        ),
    )


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


def class_table_from_obj(obj: dict) -> tables.ClassTable:
    groups = []
    for group in obj["conjugacy_classes"]:
        cyclic = tuple(
            tables.CyclicClassGroup(
                canonical_word=tuple(cyc["canonical_word"]),
                commutation_classes=tuple(
                    tuple(tuple(w) for w in cls) for cls in cyc["commutation_classes"]
                ),
            )
            for cyc in group["cyclic_classes"]
        )
        groups.append(tables.ConjugacyClassGroup(tuple(group["ring_size_multiset"]), cyclic))
    return tables.ClassTable(int(obj["rank"]), tuple(groups))


def error_to_obj(exc) -> dict:
    return {"code": getattr(exc, "code", "error"), "message": str(exc)}
