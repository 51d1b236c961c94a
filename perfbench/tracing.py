"""In-memory spans around the benchmark's calls into the package.

A span is [name, start, end, parent index, op id]; the layer is the name's
first dotted part. Disabled, ``call`` is a plain function call, so the
untraced run pays only that indirection.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = 0
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = [name, perf_counter(), None, self._open[-1] if self._open else None, self.op_id]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._open.pop()

    def count(self, name: str, n: int) -> None:
        if self.enabled:
            self.counts[name] += n

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def self_seconds(self) -> dict[str, float]:
        """Per-layer self time: each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        layers: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            layers[name.split(".", 1)[0]] += end - start - inner
        return dict(layers)

    def dump(self, path, extra: dict) -> None:
        payload = dict(extra, fields=["name", "start", "end", "parent", "op"], spans=self.spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
