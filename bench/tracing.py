"""Spans recorded around calls into efp's layers, for the traced run.

A span is ``[name, start_ns, end_ns, parent, note, advance_calls,
advance_ns, advance_keys]``. Classifier ``advance`` calls are too many and
too short for one span each (hundreds per published event), so they are
folded into the enclosing span (always a ``traversal.traverse`` span) as a
count, a summed duration, and the set of distinct ``(cursor, state)``
pairs advanced.
"""

from __future__ import annotations

import time

NAME, START, END, PARENT, NOTE, ADV_CALLS, ADV_NS, ADV_KEYS = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, note=None):
        """``fn`` with a span around each call; ``note(result)`` is stored
        on the span when given."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, None, 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if note is not None:
                span[NOTE] = note(result)
            return result

        return traced

    def call(self, name, fn, *args, note=None, **kwargs):
        return self.wrap(name, fn, note)(*args, **kwargs)

    def wrap_advance(self, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(cursor, state):
            start = clock()
            result = fn(cursor, state)
            elapsed = clock() - start
            span = spans[stack[-1]]
            span[ADV_CALLS] += 1
            span[ADV_NS] += elapsed
            if span[ADV_KEYS] is None:
                span[ADV_KEYS] = set()
            key = cursor if isinstance(cursor, tuple) else cursor.tobytes()
            span[ADV_KEYS].add((key, state))
            return result

        return traced

    def instrument(self, classifier, layer: str):
        """Trace a classifier's calls through instance attributes, which
        shadow the class methods the traversal and the bus call. Returns a
        function that removes them again (a deep copy of an instrumented
        classifier would call into the original's methods)."""
        names = ("start", "train_online", "train", "fit_bins")
        for method in names:
            if hasattr(classifier, method):
                setattr(classifier, method,
                        self.wrap(f"{layer}.{method}", getattr(classifier, method)))
        classifier.advance = self.wrap_advance(classifier.advance)

        def remove():
            for method in names + ("advance",):
                classifier.__dict__.pop(method, None)

        return remove

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self nanoseconds, folded advance
        calls, their nanoseconds and distinct keys, and the summed notes.
        Self time is the span's duration minus its direct children and its
        folded advance calls."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        out: dict[str, dict] = {}
        for i, span in enumerate(self.spans):
            duration = span[END] - span[START]
            agg = out.setdefault(span[NAME], dict(
                calls=0, ns=0, self_ns=0, adv_calls=0, adv_ns=0, adv_distinct=0,
                note=0,
            ))
            agg["calls"] += 1
            agg["ns"] += duration
            agg["self_ns"] += duration - child_ns[i] - span[ADV_NS]
            agg["adv_calls"] += span[ADV_CALLS]
            agg["adv_ns"] += span[ADV_NS]
            agg["adv_distinct"] += len(span[ADV_KEYS] or ())
            agg["note"] += span[NOTE] or 0
        return out

    def children_of(self, parent_name: str, child_name: str) -> list[int]:
        """Durations (ns) of ``child_name`` spans directly under a
        ``parent_name`` span."""
        return [
            s[END] - s[START]
            for s in self.spans
            if s[NAME] == child_name and s[PARENT] >= 0
            and self.spans[s[PARENT]][NAME] == parent_name
        ]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart_ns\tend_ns\tparent\tnote"
                      "\tadvance_calls\tadvance_ns\tadvance_distinct\n")
            for i, s in enumerate(self.spans):
                out.write(
                    f"{i}\t{s[NAME]}\t{s[START]}\t{s[END]}\t{s[PARENT]}"
                    f"\t{s[NOTE] if s[NOTE] is not None else ''}"
                    f"\t{s[ADV_CALLS]}\t{s[ADV_NS]}\t{len(s[ADV_KEYS] or ())}\n"
                )
