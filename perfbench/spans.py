"""In-memory spans around the benchmark's calls into pflight.

A span is a name, a start and an end (``perf_counter_ns``), the index of
the span open when it began (its parent, -1 for none) and optional
attributes such as a count of the work it did. Spans are kept in compact
arrays while the run lasts and written out once, at the end. Spans are
grouped into phases, contiguous runs of spans such as the workload's own
rounds or a probe. With ``enabled`` false, ``call`` and ``span`` only run
the wrapped code, so one code path serves traced and untraced rounds.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.attrs: dict[int, dict] = {}
        self.phases: list[tuple[int, str]] = [(0, "workload")]
        self._current = -1
        self._last = -1

    @property
    def phase(self) -> str:
        return self.phases[-1][1]

    @phase.setter
    def phase(self, name: str) -> None:
        self.phases.append((len(self.names), name))

    def phase_range(self, name: str) -> range:
        """Indices of the spans recorded in phase ``name`` (its first occurrence)."""
        bounds = self.phases + [(len(self.names), "")]
        for (start, phase), (stop, _) in zip(bounds, bounds[1:]):
            if phase == name:
                return range(start, stop)
        return range(0)

    def _open(self, name: str, attrs: dict | None) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._current)
        self.starts.append(0)
        self.ends.append(0)
        if attrs:
            self.attrs[idx] = attrs
        return idx

    def call(self, name: str, func, *args, count: int | None = None, **kwargs):
        """func(*args, **kwargs) inside a span; ``count`` is its unit of work."""
        if not self.enabled:
            return func(*args, **kwargs)
        idx = self._open(name, None if count is None else {"count": count})
        parent, self._current = self._current, idx
        self.starts[idx] = _now()
        try:
            return func(*args, **kwargs)
        finally:
            self.ends[idx] = _now()
            self._current, self._last = parent, idx

    def annotate(self, **attrs) -> None:
        """Add attributes to the span ``call`` closed last, such as a count known only after it."""
        if self.enabled:
            self.attrs.setdefault(self._last, {}).update(attrs)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """A span around a block; the block may add attributes to the dict it gets."""
        if not self.enabled:
            yield attrs
            return
        idx = self._open(name, None)
        self.attrs[idx] = attrs
        parent, self._current = self._current, idx
        self.starts[idx] = _now()
        try:
            yield attrs
        finally:
            self.ends[idx] = _now()
            self._current = parent

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """A span measured elsewhere, such as the interpreter's import of pflight."""
        idx = self._open(name, None)
        self.starts[idx], self.ends[idx] = start_ns, end_ns

    @contextlib.contextmanager
    def paused(self):
        """Run a block without recording spans."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def duration_ns(self, i: int) -> int:
        return self.ends[i] - self.starts[i]

    def children_index(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for j, p in enumerate(self.parents):
            kids.setdefault(p, []).append(j)
        return kids

    def write(self, path) -> None:
        """All spans as one JSON object of parallel columns."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"phases": self.phases, "name": self.names,
                       "start_ns": self.starts.tolist(), "end_ns": self.ends.tolist(),
                       "parent": self.parents.tolist(),
                       "attrs": {str(i): a for i, a in self.attrs.items()}}, fh)
            fh.write("\n")
