"""In-memory spans around calls into the program's layers.

The benchmark measures the layers from outside: it replaces a class
method, or a name bound inside a calling module, with a wrapper that
records a span and calls the original.  A ``from x import f`` binds
``f`` in the importing module at import time, so the wrapper has to be
installed on *that* module's name, not on ``x.f``.

A span has a name, start, end, parent and operation id; spans named
``op.*`` open an operation, and the spans below one share its id.  A layer's self
time is a span's duration minus the part of it that child spans cover.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

#: ``(owner, attribute, span name)``; the name may instead be a function
#: of the call's arguments that returns the span name.
Target = Tuple[Any, str, Union[str, Callable[..., str]]]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    """Collects spans of one thread; operations group the spans below them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._ops = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span; a name starting with ``op.`` opens an operation."""
        parent = self._stack[-1] if self._stack else None
        if name.startswith("op."):
            self._ops += 1
            op: Optional[int] = self._ops
        else:
            op = self.spans[parent].op if parent is not None else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, op))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, func: Callable, name: Union[str, Callable[..., str]]) -> Callable:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label):
                return func(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self, targets: Sequence[Target]) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attribute, name in targets:
                own = attribute in vars(owner)
                raw = vars(owner)[attribute] if own else getattr(owner, attribute)
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped: Any = type(raw)(self.wrap(raw.__func__, name))
                else:
                    wrapped = self.wrap(raw, name)
                saved.append((owner, attribute, raw, own))
                setattr(owner, attribute, wrapped)
            yield self
        finally:
            for owner, attribute, raw, own in reversed(saved):
                if own:
                    setattr(owner, attribute, raw)
                else:
                    delattr(owner, attribute)

    # ------------------------------------------------------------ reduction
    def children(self) -> Dict[int, List[int]]:
        kids: Dict[int, List[int]] = {}
        for index, span in enumerate(self.spans):
            if span.parent is not None:
                kids.setdefault(span.parent, []).append(index)
        return kids

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        kids = self.children()
        totals: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            inner = [(self.spans[k].start, self.spans[k].end) for k in kids.get(index, [])]
            own = span.duration - covered(inner, span.start, span.end)
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0) + 1
        return totals

    def coverage(self) -> float:
        """Share of the operations' wall time covered by their child spans."""
        kids = self.children()
        wall = inside = 0.0
        for index, span in enumerate(self.spans):
            if span.parent is None and span.op is not None:
                inner = [(self.spans[k].start, self.spans[k].end) for k in kids.get(index, [])]
                wall += span.duration
                inside += covered(inner, span.start, span.end)
        return inside / wall if wall > 0 else 0.0
