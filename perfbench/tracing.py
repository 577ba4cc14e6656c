"""In-memory spans around the benchmark's calls into chamberlab's layers.

A span is (name, start, end, parent, op): the nesting is workload -> op (one
case, one bundle, one curve) -> stage (one call into a layer).  Spans stay in
memory and are written out once, after the traced batch.  A disabled tracer
records nothing, so an untraced run pays only for entering a null context.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()

# Calls made inside chamberlab's own functions that the benchmark cannot wrap
# at the call site: certify_case's stages and build_bundle's arclength
# derivatives.  They are looked up as module globals at call time, so
# replacing the global records every call without editing the program.
PATCHES = (
    ("chamberlab.certify", "build_bundle", "reduction.build_bundle"),
    ("chamberlab.certify", "compute_resultant", "resultant.compute"),
    ("chamberlab.certify", "chamber_root_scan", "certify.root_scan"),
    ("chamberlab.certify", "emit_certificate", "certify.emit"),
    ("chamberlab.reduction", "arc_derivative", "poly.arc_derivative"),
)


class Tracer:
    """Span recorder; `results` keeps return values the counters read later."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.ops: list[str] = []
        self.results: dict[str, list] = {}
        self._stack: list[int] = []
        self._op: int | None = None

    def span(self, name: str, op: str | None = None):
        """Context manager timing one span; `op` opens a new operation."""
        if not self.enabled:
            return _NULL
        return self._span(name, op)

    @contextmanager
    def _span(self, name, op):
        saved_op = self._op
        if op is not None:
            self.ops.append(op)
            self._op = len(self.ops) - 1
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self._op]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            self._op = saved_op

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args) inside a span; a traced call's result is kept for counters."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self._span(name, None):
            result = fn(*args, **kwargs)
        self.results.setdefault(name, []).append(result)
        return result

    @contextmanager
    def patched(self):
        """Route the PATCHES globals through spans for the duration."""
        saved = []
        for module_name, attr, span_name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, span_name))
        try:
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def _wrapper(self, fn, name):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    # -- analysis ------------------------------------------------------------

    def stage_table(self, root: str | None = None) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, and the longest call.

        With `root`, only spans below the first span of that name count.
        """
        inside = self._descendants(root) if root else set(range(len(self.spans)))
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        table: dict[str, dict] = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            if idx not in inside:
                continue
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0, "max_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[idx]
            row["max_s"] = max(row["max_s"], end - start)
        return table

    def _descendants(self, root: str) -> set[int]:
        first = next(i for i, s in enumerate(self.spans) if s[0] == root)
        found = {first}
        for idx in range(first + 1, len(self.spans)):
            if self.spans[idx][3] in found:
                found.add(idx)
        found.discard(first)
        return found

    def write(self, path, extra: dict) -> None:
        """Write every span (times relative to the first) and `extra` as JSON."""
        origin = self.spans[0][1] if self.spans else 0.0
        doc = dict(extra)
        doc["ops"] = self.ops
        doc["spans"] = [{"name": name, "start": start - origin, "end": end - origin,
                         "parent": parent, "op": op}
                        for name, start, end, parent, op in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
