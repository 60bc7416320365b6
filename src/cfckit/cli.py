"""Command-line interface.

Results go to stdout as JSON (or readable text with ``--format text``);
human diagnostics go to stderr.  Domain errors exit 1 with an error object
carrying a stable ``code``; usage errors exit 2, among them any rank option
that is not ASCII digits (``words.ascii_int``).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from . import classify, conjecture, heaps, rings, serialize, tables, words
from .errors import CfcError, WriteFailed

# Answers and error objects are built per request and hold no cycle, so the
# encoder need not keep a marker for each container it enters.
_encode = json.JSONEncoder(check_circular=False).encode


def _unsigned_int(text: str) -> int:
    # a rank of 0 passes here and is answered by words.check_rank
    with contextlib.suppress(ValueError):
        return words.ascii_int(text)
    raise argparse.ArgumentTypeError(f"must be an unsigned integer, got {text!r}")


def _positive_int(text: str) -> int:
    with contextlib.suppress(ValueError):
        if (value := words.ascii_int(text)) >= 1:
            return value
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")


def _add_rank(parser, max_rank=False):
    parser.add_argument("--rank", type=_unsigned_int, required=True, help="number of generators")
    if max_rank:
        parser.add_argument("--max-rank", type=_positive_int, default=None)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept: parsing leaves no
    state in it."""
    parser = argparse.ArgumentParser(prog="cfckit")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list FC/CFC/Coxeter elements")
    _add_rank(p, max_rank=True)
    p.add_argument("--kind", choices=("fc", "cfc", "coxeter"), required=True)

    p = sub.add_parser("classify", help="FC/CFC verdicts for one word")
    _add_rank(p)
    p.add_argument("--word", required=True)

    for name, about in (("conj", "decide conjugacy of"), ("witness", "conjugacy certificate for")):
        p = sub.add_parser(name, help=f"{about} two CFC words")
        _add_rank(p)
        p.add_argument("--w", required=True)
        p.add_argument("--y", required=True)

    p = sub.add_parser("render", help="draw the heap of a word")
    _add_rank(p)
    p.add_argument("--word", required=True)
    p.add_argument(
        "--format", dest="render_format", choices=("ascii", "svg"), default="ascii"
    )
    p.add_argument("--out", default=None)

    p = sub.add_parser("classtable", help="conjugacy/cyclic/commutation table")
    _add_rank(p, max_rank=True)

    p = sub.add_parser("conjecture-check", help="cycle-shape predicate sweep")
    _add_rank(p, max_rank=True)

    p = sub.add_parser("counts", help="count FC/CFC/Coxeter elements")
    _add_rank(p, max_rank=True)
    p.add_argument("--kind", choices=("fc", "cfc", "coxeter"), required=True)

    return parser


def _cap(args, default: int) -> int:
    if args.max_rank is None:
        return default
    if args.max_rank > default:
        print(
            f"warning: raising rank cap to {args.max_rank}; runtime grows exponentially",
            file=sys.stderr,
        )
    return args.max_rank


_COUNTERS = {
    "fc": classify.count_fc,
    "cfc": classify.count_cfc,
    "coxeter": classify.count_coxeter,
}


def _dispatch(args) -> dict | str:
    """The answer as it prints: a JSON object, or the text (or drawing) to write."""
    text = args.format == "text"
    if args.command == "counts":
        # closed forms build no element; the enumerators' rank cap still applies
        classify._check_enum_rank(args.rank, _cap(args, classify.ENUM_RANK_CAP))
        count = _COUNTERS[args.kind](args.rank)
        if text:
            return f"{count}\n"
        return {"rank": args.rank, "kind": args.kind, "count": count}

    if args.command == "enumerate":
        # by length, then lexicographically, filed by length as the walk writes them
        ordered = classify.enumerate_sorted(
            args.kind, args.rank, max_rank=_cap(args, classify.ENUM_RANK_CAP)
        )
        if text:
            return "\n".join(serialize.format_word_text(w, args.rank) for w in ordered) + "\n"
        return {"rank": args.rank, "kind": args.kind, "elements": ordered}

    if args.command == "classify":
        word = serialize.parse_word_text(args.word, args.rank)
        fc = classify.is_fc(word, args.rank)
        cfc = classify.is_cfc(word, args.rank)
        if text:
            return (
                f"word {serialize.format_word_text(word, args.rank)} (rank {args.rank}): "
                f"FC={fc.is_fc} CFC={cfc.is_cfc}\n"
            )
        return {
            "rank": args.rank,
            "word": list(word),
            "is_fc": fc.is_fc,
            "is_cfc": cfc.is_cfc,
            "is_cyclically_reduced": classify.is_cyclically_reduced(word, args.rank),
            "fc": serialize.fc_verdict_to_obj(fc),
            "cfc": serialize.cfc_verdict_to_obj(cfc),
        }

    if args.command in ("conj", "witness"):
        w, y = (serialize.parse_word_text(t, args.rank) for t in (args.w, args.y))
        if args.command == "conj":
            conjugate = rings.is_conjugate_cfc(w, y, args.rank)
            if text:
                return f"conjugate: {conjugate}\n"
            return {"rank": args.rank, "w": list(w), "y": list(y), "conjugate": conjugate}
        cert = rings.conjugacy_witness(w, y, args.rank)
        if cert is None:
            return "not conjugate\n" if text else {"rank": args.rank, "conjugate": False}
        if text:
            return f"conjugator: {serialize.format_word_text(cert.conjugator, args.rank)}\n"
        return serialize.certificate_to_obj(cert) | {"rank": args.rank}

    if args.command == "render":
        word = serialize.parse_word_text(args.word, args.rank)
        heap = heaps.build_heap(word, args.rank)
        drawing = heaps.render(heap, args.render_format)
        if not args.out:
            return drawing
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(drawing)
        except OSError as exc:
            raise WriteFailed(f"cannot write {args.out}: {exc.strerror}") from None
        return f"wrote {args.out}\n" if text else {"written": args.out}

    if args.command == "classtable":
        table = tables.class_table(args.rank, max_rank=_cap(args, classify.ENUM_RANK_CAP))
        if not text:
            return serialize.class_table_to_obj(table)
        lines = []
        for group in table.conjugacy_classes:
            lines.append(f"ring sizes {list(group.ring_sizes)}:")
            for cyc in group.cyclic_classes:
                members = ", ".join(
                    serialize.format_word_text(cls[0], args.rank) for cls in cyc.commutation_classes
                )
                canonical = serialize.format_word_text(cyc.canonical_word, args.rank)
                lines.append(f"  cyclic class {canonical}: {members}")
        return "\n".join(lines) + "\n"

    if args.command == "conjecture-check":
        report = conjecture.check_conjecture(
            args.rank, max_rank=_cap(args, conjecture.CONJECTURE_RANK_CAP)
        )
        if text:
            return (
                f"rank {report.rank}: checked {report.elements_checked} permutations, "
                f"agree={report.agree}, counterexamples={len(report.counterexamples)}\n"
            )
        return serialize.report_to_obj(report)

    raise ValueError(f"unknown command {args.command!r}")  # pragma: no cover


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        answer = _dispatch(args)
    except CfcError as exc:
        print(_encode(serialize.error_to_obj(exc)))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if isinstance(answer, str):
        sys.stdout.write(answer)
    else:
        print(_encode(answer))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
