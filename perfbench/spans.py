"""Spans around cfckit's public functions, installed from outside the package.

Each listed function is replaced, on its module, by a wrapper that records a
span: name, parent span, request, start and duration.  Because package code
calls these functions through their modules' globals, calls made inside the
package are caught as well as calls from the CLI.  Other module globals and
dict entries that refer to a wrapped function (re-exports in ``__init__``,
the CLI's enumerator table) are pointed at the wrapper too.

Self time is a span's duration minus the time of the wrapped spans it
directly contains.  The generator ``words.iter_reduced_expressions`` gets a
span that is open only while the generator is producing an item, so its
consumer is not charged for that work and it is not charged for the
consumer's.
"""

from __future__ import annotations

import gzip
import importlib
import math
from array import array
from time import perf_counter

FUNCTIONS = (
    "cli.run",
    "serialize.parse_word_text",
    "serialize.class_table_to_obj",
    "serialize.certificate_to_obj",
    "serialize.report_to_obj",
    "words.check_word",
    "words.is_reduced",
    "words.iter_reduced_expressions",
    "words.commutation_class",
    "words.canonical_word",
    "perms.to_permutation",
    "perms.inversions",
    "perms.find_321",
    "perms.find_3412",
    "perms.word_from_permutation",
    "perms.conjugate",
    "classify.is_fc",
    "classify.is_cfc",
    "classify.is_cyclically_reduced",
    "classify.enumerate_fc",
    "classify.enumerate_cfc",
    "heaps.build_heap",
    "heaps.chunks",
    "heaps.cyclic_orbit",
    "heaps.cylindrical_canonical",
    "heaps.render",
    "rings.rings_of",
    "rings.is_conjugate_cfc",
    "rings.conjugacy_witness",
    "conjecture.check_conjecture",
    "conjecture.conjecture_predicate",
    "tables.class_table",
)
GENERATORS = {"words.iter_reduced_expressions"}
LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in FUNCTIONS))
COUNTS = (
    ("words.closure_words", "count", "lower"),
    ("heaps.orbit_words", "count", "lower"),
    ("rings.conjugator_letters", "count", "lower"),
    ("classify.enumerate_fc.kept_ratio", "ratio", "higher"),
    ("words.is_reduced.calls_per_request", "calls/request", "lower"),
    ("trace_overhead", "ratio", "lower"),
)
# Spans are kept in memory up to this many, in the order they end; later
# spans still count towards the metrics.
MAX_KEPT_SPANS = 200_000


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    specs = []
    for name in FUNCTIONS:
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_ms", "ms", "lower"))
    for layer in LAYERS:
        specs.append((f"{layer}.self_ms", "ms", "lower"))
        specs.append((f"{layer}.self_share", "ratio", "lower"))
        specs.append((f"{layer}.errors", "count", "lower"))
    specs.extend(COUNTS)
    return specs


class _Frame:
    __slots__ = ("span", "name", "start", "child", "duration", "parent")

    def __init__(self, span, name, start, parent):
        self.span = span
        self.name = name
        self.start = start
        self.parent = parent
        self.child = 0.0
        self.duration = 0.0


class Tracer:
    def __init__(self):
        self.request = -1
        self.stack: list[_Frame] = []
        self.next_span = 0
        self.calls = dict.fromkeys(FUNCTIONS, 0)
        self.self_s = dict.fromkeys(FUNCTIONS, 0.0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.counters = {"closure_words": 0, "orbit_words": 0, "conjugator_letters": 0,
                         "fc_kept": 0, "fc_scanned": 0}
        self.kept = {"span": array("q"), "parent": array("q"), "name": array("H"),
                     "request": array("q"), "start": array("d"), "duration": array("d")}
        self.dropped = 0
        self.run_seconds = 0.0  # summed duration of cli.run spans
        self._installed: list[tuple[object, str, object]] = []

    # --- span bookkeeping -----------------------------------------------------

    def _open(self, name: str) -> _Frame:
        parent = self.stack[-1].span if self.stack else -1
        frame = _Frame(self.next_span, name, perf_counter(), parent)
        self.next_span += 1
        return frame

    def _close(self, frame: _Frame, failed: bool) -> None:
        """Account a finished span: its self time, its parent's child time,
        and an error if the exception leaves the span's layer."""
        name = frame.name
        self.calls[name] += 1
        self.self_s[name] += frame.duration - frame.child
        if name == "cli.run":
            self.run_seconds += frame.duration
        if failed:
            layer = name.split(".")[0]
            outer = self.stack[-1].name.split(".")[0] if self.stack else None
            if outer != layer:
                self.errors[layer] += 1
        if len(self.kept["span"]) < MAX_KEPT_SPANS:
            kept = self.kept
            kept["span"].append(frame.span)
            kept["parent"].append(frame.parent)
            kept["name"].append(FUNCTIONS.index(name))
            kept["request"].append(self.request)
            kept["start"].append(frame.start)
            kept["duration"].append(frame.duration)
        else:
            self.dropped += 1

    def _call(self, name, fn, args, kwargs):
        frame = self._open(name)
        stack = self.stack
        stack.append(frame)
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
        finally:
            frame.duration = perf_counter() - frame.start
            stack.pop()
            if stack:
                stack[-1].child += frame.duration
            self._close(frame, failed)
        self._count(name, args, result)
        return result

    def _iterate(self, name, inner):
        frame = self._open(name)
        stack = self.stack
        failed = False
        try:
            while True:
                began = perf_counter()
                stack.append(frame)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                except BaseException:
                    failed = True
                    raise
                finally:
                    elapsed = perf_counter() - began
                    frame.duration += elapsed
                    stack.pop()
                    if stack:
                        stack[-1].child += elapsed
                self.counters["closure_words"] += 1
                yield item
        finally:
            inner.close()
            self._close(frame, failed)

    def _count(self, name, args, result) -> None:
        counters = self.counters
        if name == "heaps.cyclic_orbit":
            counters["orbit_words"] += len(result)
        elif name == "rings.conjugacy_witness" and result is not None:
            counters["conjugator_letters"] += len(result.conjugator)
        elif name == "classify.enumerate_fc":
            counters["fc_kept"] += len(result)
            counters["fc_scanned"] += math.factorial(args[0] + 1)

    # --- installation ------------------------------------------------------------

    def install(self) -> None:
        wrappers = {}  # id of an original function -> its wrapper
        for name in FUNCTIONS:
            module_name, attr = name.split(".")
            fn = getattr(importlib.import_module(f"cfckit.{module_name}"), attr)
            wrappers[id(fn)] = self._wrapper(name, fn)
        modules = [importlib.import_module("cfckit")] + [
            importlib.import_module(f"cfckit.{m}") for m in LAYERS
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._replace(module, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if id(entry) in wrappers:
                            self._replace(value, key, wrappers[id(entry)])

    def _replace(self, owner, key, new) -> None:
        if isinstance(owner, dict):
            self._installed.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._installed.append((owner, key, getattr(owner, key)))
            setattr(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._installed):
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._installed.clear()

    def _wrapper(self, name, fn):
        if name in GENERATORS:

            def traced(*args, **kwargs):
                return self._iterate(name, fn(*args, **kwargs))

        else:

            def traced(*args, **kwargs):
                return self._call(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    # --- results -------------------------------------------------------------------

    def metrics(self, requests: int, overhead: float) -> dict[str, float]:
        total = self.run_seconds
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name in FUNCTIONS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = self.self_s[name] * 1e3
            layer_self[name.split(".")[0]] += self.self_s[name]
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = layer_self[layer] * 1e3
            out[f"{layer}.self_share"] = layer_self[layer] / total if total else 0.0
            out[f"{layer}.errors"] = self.errors[layer]
        c = self.counters
        out["words.closure_words"] = c["closure_words"]
        out["heaps.orbit_words"] = c["orbit_words"]
        out["rings.conjugator_letters"] = c["conjugator_letters"]
        out["classify.enumerate_fc.kept_ratio"] = c["fc_kept"] / c["fc_scanned"] if c["fc_scanned"] else 0.0
        out["words.is_reduced.calls_per_request"] = self.calls["words.is_reduced"] / max(requests, 1)
        out["trace_overhead"] = overhead
        return out

    def write_spans(self, path) -> int:
        """Write the kept spans as gzip'd tab-separated lines; returns the count."""
        kept = self.kept
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("span\tparent\tname\trequest\tstart_s\tduration_s\n")
            for row in zip(kept["span"], kept["parent"], kept["name"], kept["request"],
                           kept["start"], kept["duration"]):
                span, parent, name, request, start, duration = row
                handle.write(f"{span}\t{parent}\t{FUNCTIONS[name]}\t{request}\t{start:.9f}\t{duration:.9f}\n")
        return len(kept["span"])
