"""In-memory span recorder installed around ringca's public functions.

Spans are recorded by rebinding, at run time, the names that callers look
up (module attributes and class attributes); ringca's sources are not
touched.  Each span keeps its name, start, end, parent span, a tag (the
state count d of a tree call) and a work count (the call's result size).
The spans live in flat arrays and are written out when the run ends.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path


class Spans:
    """Span storage plus the patches that feed it."""

    FIELDS = ("name", "parent", "start", "end", "tag", "work")

    def __init__(self):
        self.names: list[str] = []
        self.name = array.array("B")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.tag = array.array("q")
        self.work = array.array("q")
        self.stack: list[int] = []
        self._replays: dict[str, tuple[object, list]] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, tag=None, work=None):
        """``fn`` with a span around each call.

        ``tag(*args)`` and ``work(result)`` give the span's tag and work
        count; both are computed outside the timed interval.
        """
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        tags, works, stack = self.tag, self.work, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            tags.append(tag(*args) if tag is not None else 0)
            works.append(0)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if work is not None:
                works[sid] = work(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, tag=None, work=None,
              replay: bool = False) -> None:
        """Rebind ``owner.attr`` to a span-recording wrapper.

        With ``replay``, the arguments of every call are kept for
        :meth:`alloc_peaks`.
        """
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        traced = self.wrap(name, original, tag, work)
        if replay:
            calls = self._replays.setdefault(name, (original, []))[1]
            spanned = traced

            @functools.wraps(original)
            def traced(*args, **kwargs):
                calls.append((args, kwargs))
                return spanned(*args, **kwargs)

        setattr(owner, attr, traced)

    def alloc_peaks(self, name: str) -> list[int]:
        """Peak bytes allocated by each recorded call of ``name``.

        The calls are replayed after the traced run, without spans, under
        tracemalloc; its slowdown therefore stays out of every span.
        """
        original, calls = self._replays.get(name, (None, []))
        peaks = []
        for args, kwargs in calls:
            tracemalloc.start()
            try:
                original(*args, **kwargs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- derived figures ----------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, busy time, self time, work and the sum of
        tags; per (name, tag): busy time and work.

        Busy time counts only spans with no ancestor of the same name, so
        nested calls are not counted twice; self time is busy time minus
        the time covered by direct child spans.
        """
        names, parents = self.name, self.parent
        count = len(names)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        covered = [0.0] * count
        for i in range(count):
            if parents[i] >= 0:
                covered[parents[i]] += dur[i]
        out = {n: {"calls": 0, "busy": 0.0, "self": 0.0, "work": 0, "tag_sum": 0}
               for n in self.names}
        by_tag = defaultdict(lambda: {"busy": 0.0, "work": 0})
        for i in range(count):
            nid = names[i]
            p = parents[i]
            while p >= 0 and names[p] != nid:
                p = parents[p]
            agg = out[self.names[nid]]
            agg["calls"] += 1
            agg["work"] += self.work[i]
            agg["tag_sum"] += self.tag[i]
            if p < 0:
                agg["busy"] += dur[i]
                agg["self"] += dur[i] - covered[i]
                tagged = by_tag[(self.names[nid], self.tag[i])]
                tagged["busy"] += dur[i]
                tagged["work"] += self.work[i]
        return {"names": out, "by_tag": dict(by_tag)}

    def write(self, stem: Path) -> None:
        """Write ``<stem>.json`` (names, field order) and ``<stem>.bin``
        (the arrays, one after the other, native byte order)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "count": len(self.name),
            "fields": [[f, getattr(self, f).typecode] for f in self.FIELDS],
            "byteorder": sys.byteorder,
        }
        stem.with_suffix(".json").write_text(json.dumps(header) + "\n")
        with open(stem.with_suffix(".bin"), "wb") as f:
            for field in self.FIELDS:
                getattr(self, field).tofile(f)
