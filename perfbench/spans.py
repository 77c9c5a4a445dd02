"""In-memory span tracer that wraps calls into meshslam from outside the package.

A span records its name, start and end (``perf_counter_ns``) and the index of
the span that was open when it started.  The package is never edited: the
tracer replaces module attributes and class methods with timing wrappers, in
every namespace that binds the callee (``from x import f`` makes a second
binding that wrapping ``x.f`` alone would miss).

Self time is a span's duration minus the time its direct children cover;
calls are strictly nested because the simulator is single-threaded.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    # -- recording -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        """A wrapper that records one span per call.

        ``observe(counters, result)`` may update counters; it runs after the
        span closes, so its cost is not charged to the callee.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                observe(self.counters, result)
            return result
        return traced

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` (a module function or a class method) by a traced wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, observe))

    # -- analysis ----------------------------------------------------------------

    def durations(self) -> list[int]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[int]:
        durs = self.durations()
        own = list(durs)
        for dur, parent in zip(durs, self.parents):
            if parent >= 0:
                own[parent] -= dur
        return own

    def has_ancestor(self, idx: int, name: str) -> bool:
        p = self.parents[idx]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    def span_names(self, split: dict[str, tuple[str, str, str]] | None = None) -> list[str]:
        """Span names, with ``split[name] = (ancestor, under, otherwise)`` suffixes applied."""
        split = split or {}
        out = []
        for idx, name in enumerate(self.names):
            rule = split.get(name)
            if rule is not None:
                ancestor, under, otherwise = rule
                name = f"{name}.{under if self.has_ancestor(idx, ancestor) else otherwise}"
            out.append(name)
        return out

    def summary(self, split=None) -> dict[str, dict[str, float]]:
        """Per name: calls, self seconds and inclusive seconds.

        Inclusive time counts only the outermost span of a name, so a
        recursive call is not counted twice.
        """
        names = self.span_names(split)
        durs = self.durations()
        own = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for idx, name in enumerate(names):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own[idx] / 1e9
            if not self.has_ancestor(idx, self.names[idx]):
                row["incl_s"] += durs[idx] / 1e9
        return out

    def root_time_ns(self, start: int, end: int) -> int:
        """Time that parentless spans inside ``[start, end]`` cover.

        It equals the sum of the self times of every span in the window.
        """
        return sum(e - s for s, e, p in zip(self.starts, self.ends, self.parents)
                   if p < 0 and s >= start and e <= end)

    def to_json_dict(self, split=None) -> dict:
        names = self.span_names(split)
        table = sorted(set(names))
        code = {n: i for i, n in enumerate(table)}
        return {
            "names": table,
            "spans": [[code[n], s, e, p] for n, s, e, p
                      in zip(names, self.starts, self.ends, self.parents)],
        }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
