"""In-memory spans recorded by the benchmark around calls into layers.

A span has a name, start and end (``time.perf_counter`` seconds), the
index of its parent span and a request id.  The current span travels in
a context variable, so spans opened in concurrent asyncio tasks nest
under their own request.  Garbage-collector pauses become
``runtime.gc`` spans through ``gc.callbacks``, nested under whatever
span was open when the collector ran.  Spans stay in memory until
:meth:`Tracer.dump` writes them out at the end of a run.
"""

from __future__ import annotations

import contextvars
import gc
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

GC_SPAN = "runtime.gc"


class Tracer:
    def __init__(self) -> None:
        #: Span id -> ``[name, start, end, parent, request, extra]``.  Ids
        #: come from an atomic counter and need no lock, which matters
        #: because the collector may call back in the middle of ``_open``.
        self.spans: dict[int, list] = {}
        self._ids = itertools.count()
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._gc_open = threading.local()

    def _open(self, name: str, request: object, extra: object = None) -> int:
        parent = self._current.get()
        if request is None and parent is not None:
            request = self.spans[parent][4]
        index = next(self._ids)
        self.spans[index] = [name, time.perf_counter(), None, parent, request, extra]
        return index

    @contextmanager
    def span(self, name: str, request: object = None, extra: object = None):
        index = self._open(name, request, extra)
        token = self._current.set(index)
        try:
            yield index
        finally:
            self.spans[index][2] = time.perf_counter()
            self._current.reset(token)

    # -- garbage-collector pauses --------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_open.index = self._open(GC_SPAN, None, info["generation"])
        else:
            index = getattr(self._gc_open, "index", None)
            if index is not None:
                self.spans[index][2] = time.perf_counter()
                self._gc_open.index = None

    def __enter__(self) -> "Tracer":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc_info: object) -> None:
        gc.callbacks.remove(self._on_gc)

    # -- analysis ------------------------------------------------------

    def closed(self, name: str, since: float = 0.0) -> list[int]:
        """Indices of finished spans called ``name`` that started after ``since``."""
        return [
            i for i, s in self.spans.copy().items()
            if s[0] == name and s[2] is not None and s[1] >= since
        ]

    def duration(self, index: int) -> float:
        start, end = self.spans[index][1], self.spans[index][2]
        return (end - start) if end is not None else 0.0

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = defaultdict(list)
        for i, s in self.spans.copy().items():
            if s[3] is not None and s[2] is not None:
                out[s[3]].append(i)
        return out

    def self_time(self, index: int, children: dict[int, list[int]]) -> float:
        """Span duration minus the time its direct children cover."""
        return self.duration(index) - sum(self.duration(c) for c in children.get(index, ()))

    def self_by_request(self, name: str, requests: set, children: dict[int, list[int]]) -> dict:
        """Summed self time of ``name`` spans per request id, in seconds."""
        out: dict = defaultdict(float)
        for i, s in self.spans.copy().items():
            if s[0] == name and s[4] in requests and s[2] is not None:
                out[s[4]] += self.self_time(i, children)
        return out

    def gc_pauses(self, since: float) -> tuple[float, int]:
        """Total collector pause (s) and full collections since ``since``."""
        total, full = 0.0, 0
        for i in self.closed(GC_SPAN, since):
            total += self.duration(i)
            full += self.spans[i][5] == 2
        return total, full

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent", "request", "extra")
        with open(path, "w") as fh:
            for i, s in sorted(self.spans.copy().items()):
                fh.write(json.dumps({"id": i, **dict(zip(fields, s))}, default=str) + "\n")
