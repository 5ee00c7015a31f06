"""Spans around the calls the benchmark makes into the program's public API.

A span records one call: the traced function's name (``module.function``),
the span that caused it, and its start and end on the monotonic clock. Spans
stay in memory until a tree of them is complete, then ``fold`` adds them to
per-function totals.

The program has no spans of its own yet, so a replay stands in for them:
after a call returns, the benchmark repeats its work one layer down through
public functions and records those calls as the span's children. A span's
self time is its duration minus its children's durations, which is the part
of the call the layer below does not account for. Children therefore run
after their parent's interval, not inside it, and a self time can read
slightly below zero when the replayed children took longer than the call.
"""

from __future__ import annotations

import time

ROOT = -1


class NullTracer:
    """Calls straight through; the untraced run uses it."""

    def open(self, name: str, parent: int) -> int:
        return ROOT

    def close(self, span: int) -> None:
        pass

    def call(self, name: str, parent: int, fn, *args):
        return ROOT, fn(*args)


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._parents: list[int] = []
        self._starts: list[int] = []
        self._ends: list[int] = []
        #: name -> [calls, total ns, self ns]
        self.totals: dict[str, list[int]] = {}
        self.root_ns = 0
        self.op_ns: list[int] = []
        self.counts: dict[str, int] = {}

    def open(self, name: str, parent: int) -> int:
        span = len(self._names)
        self._names.append(name)
        self._parents.append(parent)
        self._ends.append(0)
        self._starts.append(time.perf_counter_ns())
        return span

    def close(self, span: int) -> None:
        self._ends[span] = time.perf_counter_ns()

    def call(self, name: str, parent: int, fn, *args):
        span = self.open(name, parent)
        out = fn(*args)
        self.close(span)
        return span, out

    def add(self, counter: str, n: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + n

    def fold(self) -> None:
        """Add every finished tree to the totals and forget its spans."""
        durations = [e - s for s, e in zip(self._starts, self._ends)]
        children = [0] * len(durations)
        for parent, d in zip(self._parents, durations):
            if parent != ROOT:
                children[parent] += d
        for name, parent, d, c in zip(self._names, self._parents, durations, children):
            if parent == ROOT:
                self.root_ns += d
                if name == "op":
                    self.op_ns.append(d)
                    continue
            row = self.totals.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += d
            row[2] += d - c
        self._names.clear()
        self._parents.clear()
        self._starts.clear()
        self._ends.clear()

    def function_metrics(self, name: str, unit: str) -> dict[str, tuple[float, str]]:
        """``calls``, mean duration per call in ``unit`` and ``self_share``.

        ``self_share`` divides the function's self time by the time of every
        root span of the run: the ops, and the set-up and CLI calls traced
        outside them. A function the workload never calls reads 0.
        """
        calls, total, own = self.totals.get(name, (0, 0, 0))
        scale = {"us": 1e3, "ms": 1e6}[unit]
        per_call = total / calls / scale if calls else 0.0
        share = own / self.root_ns if self.root_ns else 0.0
        return {
            f"{name}.calls": (calls, "count"),
            f"{name}.{unit}_per_call": (per_call, unit),
            f"{name}.self_share": (share, "fraction"),
        }
