"""Layer tracing for the benchmark, applied from outside the package.

A Tracer rebinds the names that flagshift's modules look up at call
time, so every call across a layer boundary opens a span (name, start,
end, parent) kept in memory.  Callers bind imported names at import
time, so each wrapper sits where its caller looks the name up: the
oracle calls `cone_extension` and `flag_f` through its own module
globals, the construction calls `union`, `cone` and the shifting
helpers through its own, and so on (see TARGETS).  Leaving the `with`
block restores every rebound attribute.

Self time of a span is its duration minus the durations of its direct
children; spans nest strictly because the run is single-threaded.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name).  Several bindings of one function share
# a span name, so the layer is counted wherever it is entered from.
TARGETS = (
    ("flagshift.formats", "parse_complex", "formats.parse"),
    ("flagshift.formats", "emit_complex", "formats.emit"),
    ("flagshift.construction", "union", "complexes.union"),
    ("flagshift.construction", "cone", "complexes.cone"),
    ("flagshift.construction", "find_shift_violation", "shifting.violation"),
    ("flagshift.shifting", "find_shift_violation", "shifting.violation"),
    ("flagshift.construction", "shift_maximal_faces", "shifting.maximal"),
    ("flagshift.construction", "principal_downset", "shifting.downset"),
    ("flagshift.oracle", "cone_extension", "construction.cone_ext"),
    ("flagshift.oracle", "flag_f", "flags.flag_f"),
    ("flagshift.construction", "flag_f", "flags.flag_f"),
    ("flagshift.flags", "flag_f", "flags.flag_f"),
    ("flagshift.flags", "two_color_realizable", "flags.realizable"),
    ("flagshift.oracle", "verify_uniqueness", "oracle.verify"),
    ("flagshift.oracle", "find_color_shifted_with_flag", "oracle.find"),
    ("flagshift.oracle", "count_two_color_shifted_by_edges", "oracle.count"),
    ("flagshift.oracle", "enumerate_color_shifted_with_flag", "oracle.search"),
    ("flagshift.oracle", "enumerate_all_colored_complexes", "oracle.enum"),
    ("flagshift._kernels", "ideals_of_size", "kernels.ideals"),
    ("flagshift._kernels", "all_ideals", "kernels.all"),
    ("flagshift._kernels", "count_ideals_of_size", "kernels.count"),
)

# Span names whose calls are generators: each `next` is one span.
_STREAMS = {"oracle.enum"}

# Per-layer metrics: name -> unit.  The order is the report order.
LAYER_METRICS = {
    "formats.parse_calls": "count",
    "formats.parse_s": "s",
    "formats.emit_s": "s",
    "complexes.union_calls": "count",
    "complexes.union_s": "s",
    "complexes.cone_s": "s",
    "complexes.face_inits": "count",
    "shifting.violation_calls": "count",
    "shifting.violation_s": "s",
    "shifting.maximal_s": "s",
    "shifting.downset_s": "s",
    "construction.cone_ext_calls": "count",
    "construction.cone_ext_s": "s",
    "construction.cone_ext_self_s": "s",
    "flags.flag_f_calls": "count",
    "flags.flag_f_s": "s",
    "flags.realizable_s": "s",
    "oracle.search_calls": "count",
    "oracle.search_s": "s",
    "oracle.search_self_s": "s",
    "oracle.budget_stops": "count",
    "oracle.enum_items": "count",
    "oracle.enum_s": "s",
    "kernels.calls": "count",
    "kernels.nodes": "count",
    "kernels.busy_s": "s",
    "kernels.candidates": "count",
    "kernels.useful_ratio": "ratio",
    "kernels.forced_calls": "count",
    "kernels.forced_nodes": "count",
    "kernels.count_calls": "count",
    "kernels.count_nodes": "count",
    "kernels.count_busy_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Spans and counters for one traced pass; a context manager."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # TARGETS absent from the package

    # ---------------------------------------------------------- install

    def __enter__(self) -> "Tracer":
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                # The package no longer has this binding: the layer is not
                # entered this way, and its metrics read 0.
                self.missing.append(f"{module_name}.{attr}")
            elif span_name in _STREAMS:
                self._rebind(module, attr, self._stream(span_name, original))
            else:
                self._rebind(module, attr, self._call(span_name, original, _NOTES.get(span_name)))
        face = importlib.import_module("flagshift.complexes").Face
        self._rebind(face, "__init__", self._counted(face.__init__))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _counted(self, init):
        counts = self.counts

        def __init__(self, *args, **kwargs):
            counts["complexes.face_inits"] += 1
            init(self, *args, **kwargs)

        return __init__

    def _call(self, name, fn, note):
        spans, stack = self.spans, self._open

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                note(self.counts, args, result)
            return result

        return wrapper

    def _stream(self, name, fn):
        spans, stack, counts = self.spans, self._open, self.counts

        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                span = [name, 0.0, 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(span)
                span[1] = perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    span[2] = perf_counter()
                    stack.pop()
                counts[name + "_items"] += 1
                yield item

        return wrapper

    # ---------------------------------------------------------- report

    def layer_totals(self, duration=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        `duration(start, end)` gives a span's seconds; by default its
        wall time.
        """
        if duration is None:
            lengths = [end - start for _, start, end, _ in self.spans]
        else:
            lengths = [duration(start, end) for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for (_, _, _, parent), length in zip(self.spans, lengths):
            if parent >= 0:
                child[parent] += length
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for (name, _, _, _), length, inner in zip(self.spans, lengths, child):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += length
            row["self_s"] += length - inner
        return dict(table)

    def metrics(self, totals=None) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_ratio, from
        `totals` as layer_totals gives them (by default, wall times)."""
        t = self.layer_totals() if totals is None else totals
        c = self.counts

        def calls(name):
            return t.get(name, {}).get("calls", 0)

        def total(*names):
            return sum(t.get(n, {}).get("total_s", 0.0) for n in names)

        def own(name):
            return t.get(name, {}).get("self_s", 0.0)

        nodes = c["kernels.nodes"]
        return {
            "formats.parse_calls": calls("formats.parse"),
            "formats.parse_s": total("formats.parse"),
            "formats.emit_s": total("formats.emit"),
            "complexes.union_calls": calls("complexes.union"),
            "complexes.union_s": total("complexes.union"),
            "complexes.cone_s": total("complexes.cone"),
            "complexes.face_inits": c["complexes.face_inits"],
            "shifting.violation_calls": calls("shifting.violation"),
            "shifting.violation_s": total("shifting.violation"),
            "shifting.maximal_s": total("shifting.maximal"),
            "shifting.downset_s": total("shifting.downset"),
            "construction.cone_ext_calls": calls("construction.cone_ext"),
            "construction.cone_ext_s": total("construction.cone_ext"),
            "construction.cone_ext_self_s": own("construction.cone_ext"),
            "flags.flag_f_calls": calls("flags.flag_f"),
            "flags.flag_f_s": total("flags.flag_f"),
            "flags.realizable_s": total("flags.realizable"),
            "oracle.search_calls": calls("oracle.search"),
            "oracle.search_s": total("oracle.search"),
            "oracle.search_self_s": own("oracle.search"),
            "oracle.budget_stops": c["oracle.budget_stops"],
            "oracle.enum_items": c["oracle.enum_items"],
            "oracle.enum_s": total("oracle.enum"),
            "kernels.calls": calls("kernels.ideals") + calls("kernels.all"),
            "kernels.nodes": nodes,
            "kernels.busy_s": total("kernels.ideals", "kernels.all"),
            "kernels.candidates": c["kernels.candidates"],
            "kernels.useful_ratio": c["kernels.candidates"] / nodes if nodes else 0.0,
            "kernels.forced_calls": c["kernels.forced_calls"],
            "kernels.forced_nodes": c["kernels.forced_nodes"],
            "kernels.count_calls": calls("kernels.count"),
            "kernels.count_nodes": c["kernels.count_nodes"],
            "kernels.count_busy_s": total("kernels.count"),
        }


# Counters read from a call's arguments and result, by span name.  The
# kernels are called positionally: (preds, allowed, size, max_nodes) and
# (preds, allowed, max_nodes), returning (found, nodes, completed).

def _note_ideals(counts, args, result):
    masks, nodes, _completed = result
    counts["kernels.nodes"] += nodes
    counts["kernels.candidates"] += len(masks)
    if args[1].bit_count() == args[2]:
        counts["kernels.forced_calls"] += 1
        counts["kernels.forced_nodes"] += nodes


def _note_all(counts, args, result):
    masks, nodes, _completed = result
    counts["kernels.nodes"] += nodes
    counts["kernels.candidates"] += len(masks)


def _note_count(counts, args, result):
    counts["kernels.count_nodes"] += result[1]


def _note_search(counts, args, outcome):
    if not outcome.exhausted and not outcome.truncated:
        counts["oracle.budget_stops"] += 1


_NOTES = {
    "kernels.ideals": _note_ideals,
    "kernels.all": _note_all,
    "kernels.count": _note_count,
    "oracle.search": _note_search,
}
