"""In-memory spans and self time.

A span records a name, its start and end on the ``perf_counter`` clock,
the index of the span open when it began (its parent) and a dict of
counts.  Spans stay in memory until the run ends and are then written
out as JSON.  :meth:`Tracer.wrap` puts a span around every call of a
function by replacing it where a consuming module binds it, so the
traced program needs no change; :meth:`Tracer.restore` undoes that.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Annotate = Callable[[Dict[str, Any], Any], None]


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: Optional[int] = None   # index into the tracer's span list
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = Span(name, time.perf_counter(), parent=self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, module: Any, attr: str, name: str, annotate: Optional[Annotate] = None) -> None:
        """Record a ``name`` span around each call of ``module.attr``.

        ``annotate(attrs, result)`` runs after the span closes, so the
        bookkeeping it does is not charged to the span.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as span:
                result = original(*args, **kwargs)
            if annotate is not None:
                annotate(span.attrs, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def to_json(self) -> List[Dict[str, Any]]:
        return [asdict(span) for span in self.spans]


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, [])):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.duration - covered)
    return result


def ancestors(spans: List[Span], index: int) -> Iterator[int]:
    parent = spans[index].parent
    while parent is not None:
        yield parent
        parent = spans[parent].parent
