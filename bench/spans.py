"""In-memory span recorder that wraps module-level functions from outside.

Modules in evobeam call each other through module globals, so replacing a
global with a timing wrapper records every call made through it without
editing the program. A span is (id, name, start, end, parent, episode);
calls nest in one thread, so a span's self time is its duration minus the
summed durations of its direct children. Per-name totals are kept for
every span; the spans themselves are kept up to a cap and written out when
the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

# spans kept for the file; about 6 MB of JSON lines
KEEP_SPANS = 50_000


class Tracer:
    def __init__(self):
        self.spans = []
        self.totals = {}  # name -> [calls, seconds, self seconds]
        self.episode = None
        self._stack = []  # open frames: [span id, start, child seconds]
        self._next_id = 0
        self._restore = []

    def _open(self):
        frame = [self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, name, frame):
        end = time.perf_counter()
        self._stack.pop()
        span_id, start, child_s = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - child_s
        if len(self.spans) < KEEP_SPANS:
            self.spans.append(
                (span_id, name, start, end, parent[0] if parent else None, self.episode)
            )
        return start, end

    @contextmanager
    def span(self, name):
        frame = self._open()
        try:
            yield
        finally:
            self._close(name, frame)

    def wrap(self, module, attr, name, on_result=None):
        """Replace module.attr by a traced wrapper until unwrap_all.

        on_result(args, result, start, end) runs after the span closes.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            frame = self._open()
            try:
                result = original(*args, **kwargs)
            finally:
                start, end = self._close(name, frame)
            if on_result is not None:
                on_result(args, result, start, end)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def unwrap_all(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def calls(self, name):
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def seconds(self, name):
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(self, name):
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def write(self, path):
        """Kept spans as JSON lines, times in seconds on the perf_counter clock."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, episode in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "episode": episode,
                        }
                    )
                    + "\n"
                )
