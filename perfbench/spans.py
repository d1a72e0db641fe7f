"""Spans around the benchmark's calls into the program's layers.

A :class:`Tracer` times every call the benchmark makes into a layer. With
``record`` on it also keeps each call as a span -- name, start, end, parent
span and run id -- in memory; :meth:`Tracer.write` writes them out when the
pass ends. A layer's *self time* is its spans' duration minus the part its
child spans cover, so the self times of all spans under a unit's root add
up to the unit's duration.

Time the calibration sampler spends inside a span (``Tracer.paused``) is
not the program's: every duration leaves it out.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    run: int = 0
    paused: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start - self.paused


class Tracer:
    """Times calls; with ``record`` also keeps them as spans."""

    def __init__(self, record: bool = False) -> None:
        self.record = record
        self.run = 0
        self.spans: List[Span] = []
        #: Running total of paused time (seconds), read at span edges.
        self.paused: Callable[[], float] = lambda: 0.0
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Time the body; the yielded span holds start, end and pauses."""
        parent = self._open[-1] if self._open else None
        current = Span(name, time.perf_counter(), parent=parent, run=self.run)
        paused = self.paused()
        if self.record:
            self._open.append(len(self.spans))
            self.spans.append(current)
        try:
            yield current
        finally:
            current.end = time.perf_counter()
            current.paused = self.paused() - paused
            if self.record:
                self._open.pop()

    def self_times(
        self,
        run: Optional[int] = None,
        scale: Callable[[Span], float] = lambda span: 1.0,
    ) -> Dict[str, float]:
        """Summed self time per span name (of one run, or all).

        Each span's self time is multiplied by ``scale(span)`` first.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        totals: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if run is None or span.run == run:
                own = (span.duration - child_time[index]) * scale(span)
                totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def write(self, path) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "paused": span.paused,
                            "parent": span.parent,
                            "run": span.run,
                        }
                    )
                    + "\n"
                )


__all__ = ["Span", "Tracer"]
