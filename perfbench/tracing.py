"""Span recording for the traced benchmark run.

The spans come from the benchmark's own files, never from the program:
:meth:`Tracer.shim` swaps a public function or method of the program
for a wrapper that opens one span around every call, and
:meth:`Tracer.close` puts the originals back.  Spans live in memory as
``[name, layer, start, end, parent]`` rows and are written out at the
end as Chrome ``trace_event`` JSON, the format ``repro stats
--trace-out`` writes, so both open in ``chrome://tracing`` or Perfetto.

A layer's *self time* is the time its spans cover minus the part their
child spans cover; :meth:`Tracer.self_times` sums it per layer.
:meth:`Tracer.inclusive` sums the outermost spans of a set of names,
so a recursive or nested entry point is not counted twice.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Callable, Dict, Iterable, List, Optional

#: row fields of one recorded span
NAME, LAYER, START, END, PARENT = range(5)


class Tracer:
    """An in-memory span recorder with call shims (see module docs)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    # -- recording -----------------------------------------------------

    def begin(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> float:
        """Close span ``index`` (the innermost open one); returns its
        duration in seconds."""
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order")
        row = self.spans[index]
        row[END] = time.perf_counter()
        return row[END] - row[START]

    def span(self, name: str, layer: str) -> "_OpenSpan":
        return _OpenSpan(self, name, layer)

    def shim(
        self,
        owner,
        attr: str,
        name: str,
        layer: str,
        on_result: Optional[Callable] = None,
    ) -> None:
        """Wrap ``owner.attr`` (a module function or a class method) so
        each call records a span; ``on_result`` sees every return value."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer.begin(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def close(self) -> None:
        """Restore every shimmed attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------

    def _subtree(self, under: int) -> range:
        """Indices of span ``under`` and its descendants (every span
        when ``under`` is -1).  Spans are stored in begin order and nest
        properly, so a subtree is the contiguous run of spans that begin
        before its root ends."""
        spans = self.spans
        if under < 0:
            return range(len(spans))
        stop = under + 1
        end = spans[under][END]
        while stop < len(spans) and spans[stop][START] < end:
            stop += 1
        return range(under, stop)

    def inclusive(self, names: Iterable[str], under: int = -1) -> float:
        """Seconds covered by the spans named in ``names`` below
        ``under`` that have no ancestor in ``names``."""
        wanted = set(names)
        spans = self.spans
        total = 0.0
        for index in self._subtree(under):
            row = spans[index]
            if row[NAME] not in wanted:
                continue
            parent = row[PARENT]
            while parent >= 0 and spans[parent][NAME] not in wanted:
                parent = spans[parent][PARENT]
            if parent < 0:
                total += row[END] - row[START]
        return total

    def self_times(self, under: int = -1) -> Dict[str, float]:
        """Per-layer self time of the spans below ``under``: each span's
        duration minus the part its child spans cover."""
        spans = self.spans
        subtree = self._subtree(under)
        child = {index: 0.0 for index in subtree}
        for index in subtree:
            row = spans[index]
            if row[PARENT] in child:
                child[row[PARENT]] += row[END] - row[START]
        out: Dict[str, float] = {}
        for index in subtree:
            row = spans[index]
            own = row[END] - row[START] - child[index]
            out[row[LAYER]] = out.get(row[LAYER], 0.0) + own
        return out

    def chrome_trace(self) -> dict:
        """The Chrome ``trace_event`` document (``ph: "X"`` complete
        events, microseconds from the first span)."""
        origin = self.spans[0][START] if self.spans else 0.0
        pid = os.getpid()
        events = [
            {
                "name": row[NAME],
                "cat": row[LAYER],
                "ph": "X",
                "ts": (row[START] - origin) * 1e6,
                "dur": (row[END] - row[START]) * 1e6,
                "pid": pid,
                "tid": 0,
                "args": {"id": index, "parent": row[PARENT]},
            }
            for index, row in enumerate(self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(self.chrome_trace(), fp)
            fp.write("\n")


class _OpenSpan:
    __slots__ = ("_tracer", "_name", "_layer", "index", "seconds")

    def __init__(self, tracer: Tracer, name: str, layer: str) -> None:
        self._tracer = tracer
        self._name = name
        self._layer = layer
        self.seconds = 0.0

    def __enter__(self) -> "_OpenSpan":
        self.index = self._tracer.begin(self._name, self._layer)
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = self._tracer.end(self.index)
