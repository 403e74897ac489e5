"""In-memory spans recorded from the benchmark's own files.

A span times one call into a public function of a layer, inclusively:
its duration covers everything the call did, including other layers it
called.  Names are ``<layer>.<function>``; spans the benchmark opens to
group calls (a construction, a Monte-Carlo trial, a CLI command) use the
layer name ``bench``.  Nothing is written until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "attrs": attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)
