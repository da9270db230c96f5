"""In-memory spans and counters for the traced benchmark repetitions.

A span is recorded around each call into a framekit layer.  The
benchmark's own calls are wrapped directly; calls that framekit makes
internally (the oracle calling `frame_graph`, `evaluate` calling
`align`, the decoder calling `extract_features`, ...) are reached by
probes, which replace a public function in the namespace it is looked
up from for the duration of one traced repetition.  Nothing is traced
while the tracer is disabled: `span` then returns a shared no-op
context and no probe is installed.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

_OFF = nullcontext()


class Tracer:
    def __init__(self, enabled: bool, request: int = 0):
        self.enabled = enabled
        self.request = request  # shared by every span of one repetition
        # (id, parent id, request, name, start, end); kept until `write`.
        self.spans: list[tuple] = []
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self.missing_probes: list[str] = []
        self._ids = itertools.count()
        self._open: list[list] = []  # [id, name, start, seconds covered by children]

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _OFF

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.counters[name] += value

    def _enter(self, name: str) -> None:
        self._open.append([next(self._ids), name, perf_counter(), 0.0])

    def _exit(self) -> None:
        end = perf_counter()
        span_id, name, start, children = self._open.pop()
        duration = end - start
        parent = self._open[-1] if self._open else None
        if parent is not None:
            parent[3] += duration
        self.total_s[name] += duration
        self.self_s[name] += duration - children
        self.calls[name] += 1
        self.spans.append((span_id, parent[0] if parent else None, self.request,
                           name, start, end))

    def summary(self) -> dict:
        return {name: {"calls": self.calls[name], "total_s": self.total_s[name],
                       "self_s": self.self_s[name]}
                for name in sorted(self.calls)}

    def write(self, path: Path, header: dict) -> None:
        record = dict(header)
        record["missing_probes"] = self.missing_probes
        record["layers"] = self.summary()
        record["counters"] = dict(self.counters)
        record["span_fields"] = ["id", "parent", "request", "name", "start", "end"]
        record["spans"] = self.spans
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.tracer._enter(self.name)

    def __exit__(self, *exc) -> None:
        self.tracer._exit()


def _wrap(tracer: Tracer, function, name: str):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        with tracer.span(name):
            return function(*args, **kwargs)
    return traced


@contextmanager
def probes(tracer: Tracer, targets):
    """Wrap each `(owner, attribute, span name)` target in a span while
    the block runs.  A target the program no longer has is skipped and
    listed in `tracer.missing_probes`, so its layer reads zero."""
    if not tracer.enabled:
        yield
        return
    installed = []
    try:
        for owner, attribute, name in targets:
            original = getattr(owner, attribute, None)
            if original is None:
                tracer.missing_probes.append(f"{owner.__name__}.{attribute}")
                continue
            setattr(owner, attribute, _wrap(tracer, original, name))
            installed.append((owner, attribute, original))
        yield
    finally:
        for owner, attribute, original in reversed(installed):
            setattr(owner, attribute, original)
