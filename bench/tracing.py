"""Host-time spans around the public entry points of each layer.

``instrument`` swaps wrappers onto public callables for the duration of
a ``with`` block and restores the originals afterwards; the program
itself is never edited.  Spans nest as scenario -> ``simulate`` ->
``run_until_idle`` -> leaf calls.  They are aggregated in memory (count,
total and self time per name) and written out by the caller at the end.
A span's self time is its duration minus the time of its direct child
spans.  ``RankRuntime.submit`` and ``sync`` are generators, so they are
counted but not timed.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List

from mdgpusim import cli, pipeline
from mdgpusim.comm import CommModel
from mdgpusim.costs import ApiSampler, CostTable
from mdgpusim.engine import Engine
from mdgpusim.runtime import RankRuntime, Stream

# (owner, attribute, span name); pipeline.simulate is reached through
# cli's own binding, so both names are swapped
_TIMED = (
    (pipeline, "simulate", "simulate"),
    (cli, "simulate", "simulate"),
    (Engine, "run_until_idle", "run_until_idle"),
    (Engine, "post", "post"),
    (Stream, "enqueue", "enqueue"),
    (ApiSampler, "draw", "api_draw"),
    (CostTable, "duration_ns", "kernel_cost"),
    (CommModel, "transfer_ns", "transfer"),
)
_COUNTED = (
    (RankRuntime, "submit", "submit"),
    (RankRuntime, "sync", "sync"),
)


class Spans:
    """In-memory span aggregate: count, total and self seconds per name."""

    def __init__(self):
        self.count: Counter = Counter()
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.charges = 0  # trace records left by every run_until_idle
        self._children: List[float] = [0.0]  # child time of each open span

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self._children.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(name, perf_counter() - t0)

    def _close(self, name: str, elapsed: float) -> None:
        children = self._children.pop()
        self._children[-1] += elapsed
        self.count[name] += 1
        self.total[name] += elapsed
        self.self_time[name] += elapsed - children

    def timed(self, name: str, fn):
        children = self._children
        close = self._close

        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(name, perf_counter() - t0)
            if name == "run_until_idle":  # its Trace holds every charge record
                self.charges += len(result.records)
            return result
        return wrapper

    def counted(self, name: str, fn):
        count = self.count

        def wrapper(*args, **kwargs):
            count[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def share_of_simulate(self, name: str, self_only: bool = False) -> float:
        part = (self.self_time if self_only else self.total)[name]
        return part / self.total["simulate"]

    def table(self) -> List[str]:
        lines = [f"{'span':<16}{'count':>10}{'total_s':>12}{'self_s':>12}"]
        for name in sorted(self.count, key=lambda n: -self.total.get(n, 0.0)):
            lines.append(f"{name:<16}{self.count[name]:>10}"
                         f"{self.total.get(name, 0.0):>12.4f}"
                         f"{self.self_time.get(name, 0.0):>12.4f}")
        return lines


@contextmanager
def instrument(spans: Spans) -> Iterator[Spans]:
    """Swap span wrappers onto the layer entry points inside the block."""
    originals = []
    wrapped = {}
    try:
        for owner, attr, name in _TIMED + _COUNTED:
            fn = owner.__dict__[attr]
            originals.append((owner, attr, fn))
            if fn not in wrapped:
                make = spans.counted if (owner, attr, name) in _COUNTED else spans.timed
                wrapped[fn] = make(name, fn)
            setattr(owner, attr, wrapped[fn])
        yield spans
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)
