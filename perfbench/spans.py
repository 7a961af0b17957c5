"""In-memory spans around calls into ftsim, installed from the benchmark.

A span is (name, start, end, parent). Spans are kept in flat arrays while
the traced pass runs and are summarised or written out only afterwards, so
the cost inside the measured region is two clock reads and a few appends.
The program's own source is never edited: :meth:`Tracer.patch` replaces a
module or class attribute and :meth:`Tracer.uninstall` puts them all back.
"""

from __future__ import annotations

from array import array
from time import perf_counter


class Tracer:
    """Spans of one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self.ids = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        """``fn`` recorded as a span; the hooks run outside the span."""
        nid = self._name_id(name)
        ids, parents, starts, ends, stack = self.ids, self.parent, self.start, self.end, self._stack

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_call=None, on_result=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_call, on_result))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (total self seconds, span count). Self time is a
        span's duration minus the durations of its direct children."""
        n = len(self.start)
        child = [0.0] * n
        parents, starts, ends = self.parent, self.start, self.end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        totals = [0.0] * len(self.names)
        counts = [0] * len(self.names)
        for i in range(n):
            nid = self.ids[i]
            totals[nid] += ends[i] - starts[i] - child[i]
            counts[nid] += 1
        return {name: (totals[i], counts[i]) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """One span per line: index, parent index, name, start, end."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.ids[i]]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                )
