"""Spans around calls into reca's modules, recorded from the benchmark's side.

``instrument`` swaps a timing wrapper in for a public function wherever a
reca module holds a reference to it, so calls that ``pipeline.run_once``
makes internally are timed too, with the span of the caller as parent.
Spans stay in memory until ``write_jsonl`` at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    op: int  # which benchmark operation the span belongs to
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans in call order; ``op`` tags each with the operation it belongs to."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self.calls: dict[str, list] = {}  # name -> [(args, result)] while capturing
        self.capturing = False
        self.enabled = True  # False: wrappers call straight through, recording nothing

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                        self.op, name, 0.0, 0.0)
            self.spans.append(span)
            self._stack.append(span.span_id)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if self.capturing:
                self.calls.setdefault(name, []).append((args, result))
            return result

        return traced

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_time(self, span: Span) -> float:
        children = [s for s in self.spans if s.parent_id == span.span_id]
        return span.duration - sum(c.duration for c in children)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def instrument(tracer: Tracer, qualnames: list[str]):
    """Wrap ``reca.<module>.<function>`` for each name; returns an undo callable."""
    swapped = []
    for qualname in qualnames:
        module_name, attr = qualname.split(".")
        original = getattr(importlib.import_module(f"reca.{module_name}"), attr)
        wrapped = tracer.wrap(qualname, original)
        for name, module in list(sys.modules.items()):
            if name != "reca" and not name.startswith("reca."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    swapped.append((module, key, original))

    def undo():
        for module, key, original in swapped:
            setattr(module, key, original)

    return undo
