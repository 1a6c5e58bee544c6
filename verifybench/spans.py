"""In-memory spans for the traced benchmark run.

A span is ``(name, start_ns, end_ns, parent, request)``: ``parent`` is the
index of the enclosing span (-1 at a root) and ``request`` numbers the
instance the span belongs to, so every span of one ``verify`` shares it.
Spans are kept in a list and only summarized or written out once a
traced pass has ended.  Library functions are traced by replacing the module
attribute their callers look up; ``unwrap`` puts the originals back.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.request = -1
        self.absent: set[str] = set()
        self._restore: list = []
        self._results: dict[str, list] = defaultdict(list)

    # -- recording ---------------------------------------------------------

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: int, end: int) -> None:
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[idx] = (name, start, end, parent, self.request)

    def wrap(self, name: str, targets, keep_result: bool = False) -> None:
        """Trace every call made through ``module.attr`` for each target.

        A target whose attribute no longer exists is skipped; when none
        exists the span name is recorded as absent.  With ``keep_result``
        the return values are kept for ``take_results``.
        """
        found = False
        for module, attr in targets:
            original = getattr(module, attr, None)
            if original is None:
                continue
            found = True
            setattr(module, attr, self._wrapper(name, original, keep_result))
            self._restore.append((module, attr, original))
        if not found:
            self.absent.add(name)

    def _wrapper(self, name, original, keep_result):
        results = self._results[name]

        def traced(*args, **kwargs):
            idx = self._open()
            start = perf_counter_ns()
            try:
                out = original(*args, **kwargs)
            finally:
                self._close(idx, name, start, perf_counter_ns())
            if keep_result:
                results.append(out)
            return out

        return traced

    def take_results(self, name: str) -> list:
        """Return values kept for ``name`` since the last call, and forget them."""
        kept = self._results[name]
        out = list(kept)
        kept.clear()
        return out

    def unwrap(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per-name call count, total time and self time over the recorded spans.

        Self time is a span's duration minus the durations of its direct
        children; children never overlap because calls nest.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _, _), child in zip(self.spans, child_ns):
            entry = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - child
        return out

    def write(self, path) -> None:
        """Write the recorded spans as JSON, times in nanoseconds from the first start."""
        origin = self.spans[0][1] if self.spans else 0
        rows = [[name, start - origin, end - origin, parent, request]
                for name, start, end, parent, request in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "request"],
                       "spans": rows}, handle, separators=(",", ":"))


class _Span:
    __slots__ = ("tracer", "name", "idx", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.idx = self.tracer._open()
        self.start = perf_counter_ns()

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.idx, self.name, self.start, perf_counter_ns())
