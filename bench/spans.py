"""In-memory span recorder that wraps library boundaries from outside.

A span is one call through a wrapped name: its layer name, start and end
(``perf_counter`` seconds), the span that was open when it started, the
top-level call it belongs to, and a few sizes read off its arguments or
result. Wrapping replaces a module attribute or a dispatch-table entry;
``restore`` puts every original back. Nothing is written until the caller
asks for it, so the only cost inside a timed call is two clock reads and a
list append per wrapped call.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    span_id: int
    name: str
    call_id: int
    parent: Optional[int]
    start: float
    end: float = 0.0
    error: Optional[str] = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from every wrapped boundary of one process."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self._calls = 0
        self._patches: list = []

    def wrap(
        self,
        owner,
        key: str,
        name: str,
        measure: Optional[Callable] = None,
    ) -> None:
        """Route ``owner.key`` (or ``owner[key]`` for a dict) through a
        span named ``name``. ``measure(args, kwargs, result)`` may return
        a dict of sizes stored on the span; it runs after the span ends."""
        table = isinstance(owner, dict)
        original = owner[key] if table else getattr(owner, key)
        wrapped = self.traced(original, name, measure)
        if table:
            owner[key] = wrapped
        else:
            setattr(owner, key, wrapped)
        self._patches.append((owner, key, original))

    def traced(self, function, name: str, measure=None):
        """``function`` recording one span per call."""

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = function(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if measure is not None:
                span.info = measure(args, kwargs, result)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def _open(self, name: str) -> Span:
        if self._stack:
            parent = self._stack[-1]
            call_id, parent_id = parent.call_id, parent.span_id
        else:
            call_id, parent_id = self._calls, None
            self._calls += 1
        span = Span(len(self.spans), name, call_id, parent_id, 0.0)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def top_level(self, name: str) -> list:
        """Spans named ``name`` that no other span encloses."""
        return [s for s in self.spans if s.parent is None and s.name == name]

    def self_times(self) -> list:
        """Per span: its duration minus the time its child spans cover.
        Calls run on one thread, so children never overlap."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, covered)]

    def write_jsonl(self, path, origin: float) -> None:
        """One JSON object per span, times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": s.span_id,
                            "name": s.name,
                            "call": s.call_id,
                            "parent": s.parent,
                            "start": s.start - origin,
                            "end": s.end - origin,
                            "error": s.error,
                            **s.info,
                        }
                    )
                    + "\n"
                )
