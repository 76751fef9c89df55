"""In-memory span tracer that wraps the program's layer entry points.

The tracer patches attributes of the program's modules and classes from
the outside: each wrapped entry point records one span (name, start,
end, parent, request id) per call, plus optional counters computed from
its arguments and result.  Nothing under ``src/`` knows it is traced.
Spans stay in a list until the run ends; :meth:`Tracer.self_times`
reduces them to per-name self time, a span's duration minus the part of
it that its child spans cover.

Spans nest per thread (the serving daemon runs ``solve_many`` on a
worker thread while its event loop takes batches), so the parent of a
span is the innermost open span of the same thread.  Work inside pool
worker processes is not visible here; it shows up as the parent-side
round trip.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "request_id", "children", "marks")

    def __init__(self, name: str, start: float, parent, request_id) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request_id = request_id
        self.children: "list[Span]" = []
        #: Values wrapped callees attach to this span (routing decisions).
        self.marks: list = []


class Tracer:
    """Records spans and counters at wrapped layer boundaries."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self.counts: Counter = Counter()
        #: Free-form per-name sample lists (queue waits, batch sizes).
        self.samples: "defaultdict[str, list]" = defaultdict(list)
        self.enabled = False
        #: Stamped on every span opened from now on (the caller sets it
        #: per request, or per daemon batch).
        self.request_id = None
        self._local = threading.local()
        self._patches: "list[tuple[object, str, object]]" = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str):
        """Record one span around the body (a no-op while disabled)."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = Span(name, time.perf_counter(), parent, self.request_id)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.children.append(record)
            self.spans.append(record)

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        after: "Optional[Callable]" = None,
        before: "Optional[Callable]" = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(tracer, args, kwargs)`` runs inside the span before the
        call and its return value is handed to ``after(tracer, args,
        kwargs, result, token)``, which runs inside the span after a
        successful call; both feed counters.  :meth:`restore` undoes
        every patch.
        """
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        target = original.__func__ if isinstance(original, classmethod) else original
        tracer = self

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return target(*args, **kwargs)
            with tracer.span(name):
                token = before(tracer, args, kwargs) if before else None
                result = target(*args, **kwargs)
                if after is not None:
                    after(tracer, args, kwargs, result, token)
                return result

        replacement = classmethod(wrapper) if isinstance(original, classmethod) else wrapper
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back (reverse patch order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def mark(self) -> int:
        """Start a measured phase: clear counters and samples, and return
        the span-list position to pass as ``since=``."""
        self.counts.clear()
        self.samples.clear()
        return len(self.spans)

    def self_times(self, since: int = 0) -> "dict[str, float]":
        """Total self time per span name, in seconds."""
        totals: "dict[str, float]" = defaultdict(float)
        for span in self.spans[since:]:
            covered = 0.0
            cursor = span.start
            for child in sorted(span.children, key=lambda c: c.start):
                lo = max(child.start, cursor)
                if child.end > lo:
                    covered += child.end - lo
                    cursor = child.end
            totals[span.name] += (span.end - span.start) - covered
        return dict(totals)

    def dump(self, path) -> None:
        """Write every span as one JSON line; parents by line index."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": index.get(id(span.parent)) if span.parent else None,
                    "request_id": span.request_id,
                }) + "\n")

    def calls(self, name: str, since: int = 0) -> int:
        return sum(1 for span in self.spans[since:] if span.name == name)

    def durations(self, name: str, since: int = 0) -> "list[float]":
        return [s.end - s.start for s in self.spans[since:] if s.name == name]
