"""In-memory span tracer that wraps public functions by attribute patching.

A span is recorded around every call of a wrapped function: its name, start,
end, and the span that was open when it began.  Spans stay in memory until the
run ends; `self_times` then subtracts from each span the part of its interval
covered by its children.  Counters are computed by per-function hooks from the
call's arguments and result, after the span's end time is taken, so hook cost
falls to the caller rather than to the traced function.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: int        # perf_counter_ns
    end: int = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._main_ident = threading.get_ident()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[Span, list[Span]]:
        stack = self._stack()
        # a worker thread's outermost span belongs to the main thread's
        # innermost open span, the call that handed the work out
        owner = stack or self._main_stack
        parent = owner[-1].sid if owner else None
        with self._lock:
            span = Span(len(self.spans), parent, name, 0)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter_ns()
        return span, stack

    @staticmethod
    def _close(span: Span, stack: list[Span]) -> None:
        span.end = time.perf_counter_ns()
        stack.pop()

    @contextmanager
    def span(self, name: str):
        span, stack = self._open(name)
        try:
            yield span
        finally:
            self._close(span, stack)

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counts[counter] = self.counts.get(counter, 0) + value

    def sample(self, key: str, value) -> None:
        with self._lock:
            self.samples.setdefault(key, []).append(value)

    # -- patching ----------------------------------------------------------

    def wrap(self, fn, name: str, hook=None):
        """Return a traced stand-in for `fn`; `hook(tracer, arguments, result)`
        runs after the span closes, with `arguments` the call's arguments by
        parameter name, defaults filled in."""
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, stack = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, stack)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, hook=None, aliases=()) -> None:
        """Replace `owner.attr` (module or class) and every alias
        `(other_owner, other_attr)` bound to the same object."""
        def bound(target, target_attr):
            return (target.__dict__[target_attr] if isinstance(target, type)
                    else getattr(target, target_attr))

        original = bound(owner, attr)
        targets = ((owner, attr),) + tuple(aliases)
        for target, target_attr in targets:
            if bound(target, target_attr) is not original:
                raise RuntimeError(f"{target_attr} on {target!r} is not the traced object")
        traced = self.wrap(original, name, hook)
        for target, target_attr in targets:
            self._patches.append((target, target_attr, original))
            setattr(target, target_attr, traced)

    def unpatch(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Seconds of each span not covered by the union of its children."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered = 0
            cur_lo = cur_hi = None
            for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
                lo, hi = max(c.start, s.start), min(c.end, s.end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[s.sid] = (s.end - s.start - covered) * 1e-9
        return out

    def by_name(self) -> dict[str, dict]:
        """Per span name: call count, summed self time, and each call's duration."""
        selfs = self.self_times()
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "durations_s": []})
            row["calls"] += 1
            row["self_s"] += selfs[s.sid]
            row["durations_s"].append((s.end - s.start) * 1e-9)
        return out
