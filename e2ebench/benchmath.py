"""Arithmetic of the end-to-end benchmark: percentiles, spans, rates.

Everything here is pure Python over plain numbers so the unit tests in
``test_benchmath.py`` can pin it on hand-checked inputs.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

# A tail percentile is reported only where this many samples lie beyond it.
TAIL_SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``.  In ascending order the sample at
    index ``n - 11`` is the highest one with ten samples after it; its
    percentile is the share of samples at or below it.  With ten samples
    or fewer no such percentile exists, and the maximum is returned with
    percentile 100 so the caller can report that the rule was not met.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    k = n - 1 - TAIL_SAMPLES_BEYOND
    if k < 0:
        return float(ordered[-1]), 100.0, n
    return float(ordered[k]), 100.0 * (k + 1) / n, n


def error_rate(attempted: int, failed: int, refused: int = 0, wrong: int = 0) -> float:
    """Failed, refused and wrong operations over those attempted.

    The three kinds are disjoint: an operation that failed is not also
    checked for a wrong answer.
    """
    if attempted < 1:
        raise ValueError("error rate needs at least one attempted operation")
    bad = failed + refused + wrong
    if bad > attempted:
        raise ValueError(f"{bad} bad operations out of {attempted} attempted")
    return bad / attempted


# -- spans -------------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    trace_id: int
    span_id: int
    parent_id: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans: one tree per traced operation, kept until written.

    ``trace()`` opens a root span and gives every span under it the same
    trace id; ``span()`` nests under the innermost open span.  Calls come
    from one thread, so a stack is enough to find the parent.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._trace_id = -1

    @contextmanager
    def trace(self, name: str) -> Iterator[Span]:
        self._trace_id += 1
        with self.span(name) as root:
            yield root

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, self._trace_id, len(self.spans), parent)
        self.spans.append(record)
        self._stack.append(record.span_id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: Optional[Span]) -> Span:
        """Record an interval measured elsewhere; without a parent it opens a trace."""
        if parent is None:
            self._trace_id += 1
        record = Span(
            name, start, end,
            self._trace_id if parent is None else parent.trace_id,
            len(self.spans),
            None if parent is None else parent.span_id,
        )
        self.spans.append(record)
        return record

    @property
    def num_traces(self) -> int:
        return self._trace_id + 1

    def of_trace(self, trace_id: int) -> List[Span]:
        return [s for s in self.spans if s.trace_id == trace_id]

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "trace": s.trace_id, "id": s.span_id,
                    "parent": s.parent_id, "start": s.start, "end": s.end,
                }) + "\n")


def covered(interval: Tuple[float, float], children: Sequence[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``.

    Children are clipped to the interval first; overlapping children
    count once.
    """
    lo, hi = interval
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in children if min(hi, b) > max(lo, a)
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None:
            cur_a, cur_b = a, b
        elif a <= cur_b:
            cur_b = max(cur_b, b)
        else:
            total += cur_b - cur_a
            cur_a, cur_b = a, b
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per span name: summed duration minus the time child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append((s.start, s.end))
    out: Dict[str, float] = {}
    for s in spans:
        own = s.duration - covered((s.start, s.end), children.get(s.span_id, []))
        out[s.name] = out.get(s.name, 0.0) + own
    return out


def total_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per span name: summed duration."""
    out: Dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.duration
    return out


def median_of_traces(tracer: Tracer, per_trace) -> Dict[str, float]:
    """Median over traces of each key ``per_trace(spans)`` returns."""
    rows = [per_trace(tracer.of_trace(t)) for t in range(tracer.num_traces)]
    keys = sorted({k for row in rows for k in row})
    return {k: median([row.get(k, 0.0) for row in rows]) for k in keys}
