"""Span tracing installed from outside the program.

The benchmark measures per-layer time without touching ``src/``: it
replaces a layer's public functions with thin wrappers that record a
span around each call, and restores the originals afterwards.  Nothing
is wrapped unless a :class:`Tracer` is installed, so the end-to-end run
executes the program's own code unchanged.

Spans nest on one stack per thread.  A span's *self* time is its
duration minus the time of the spans it directly encloses on the same
thread, so per-layer self times never double-count and stay correct
when worker threads run spans concurrently (their sum may exceed the
wall clock; each thread's share is reported against that thread's busy
time, the summed duration of its outermost spans).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "merge_summaries"]


class _ThreadState:
    """One thread's span stack and accumulators (no locking needed:
    only the owning thread writes; readers merge after the run)."""

    def __init__(self) -> None:
        #: open spans: [name, start, enclosed child seconds]
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.amount: dict[str, float] = defaultdict(float)
        #: summed duration of this thread's outermost spans
        self.busy_s = 0.0
        #: time inside idle spans (waiting for work, not doing it)
        self.idle_s = 0.0


class Tracer:
    """Wraps functions with spans; aggregates self/total time per span.

    ``wrap`` patches one attribute of a class or module; ``uninstall``
    restores every patch in reverse order.  ``reset`` discards what was
    recorded so far (spans still open keep running and are attributed
    to the new window when they close).
    """

    def __init__(self, idle_spans=frozenset()) -> None:
        #: spans that wait for work to arrive (e.g. a socket read for
        #: the next request): recorded, but not counted as busy time
        self.idle_spans = frozenset(idle_spans)
        #: while set, wrapped calls run unrecorded (the benchmark's own
        #: checks between timed steps)
        self.paused = False
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def _enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._state().stack.append(frame)
        return frame

    def _exit(self, frame: list, amount: float | None) -> None:
        end = time.perf_counter()
        state = self._state()
        stack = state.stack
        stack.pop()  # try/finally keeps the stack balanced: ours is on top
        name, start, child = frame
        duration = end - start
        state.self_s[name] += duration - child
        state.total_s[name] += duration
        state.calls[name] += 1
        if amount is not None:
            state.amount[name] += amount
        if name in self.idle_spans:
            state.idle_s += duration
        if stack:
            stack[-1][2] += duration
        else:
            state.busy_s += duration

    # -- patching --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, measure=None) -> None:
        """Record span ``name`` around every call of ``owner.attr``.

        ``measure(result)``, when given, returns an amount (e.g. bytes)
        added to the span's ``amount`` accumulator.
        """
        original = owner.__dict__[attr] if isinstance(
            owner, type
        ) else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap descriptor {owner}.{attr}")
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return original(*args, **kwargs)
            frame = tracer._enter(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer._exit(
                    frame,
                    None if measure is None or result is None
                    else measure(result),
                )

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse patch order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far."""
        with self._states_lock:
            for state in self._states:
                state.self_s.clear()
                state.total_s.clear()
                state.calls.clear()
                state.amount.clear()
                state.busy_s = 0.0
                state.idle_s = 0.0

    def summary(self) -> dict:
        """Merged per-span totals: ``{name: {self_s, total_s, calls,
        amount}}`` plus ``busy_s`` (outermost span time minus idle span
        time, summed over threads) and ``threads`` (threads that
        recorded any span)."""
        spans: dict[str, dict] = {}
        busy = 0.0
        threads = 0
        with self._states_lock:
            states = list(self._states)
        for state in states:
            if state.busy_s > 0:
                threads += 1
            busy += state.busy_s - state.idle_s
            for name, calls in list(state.calls.items()):
                entry = spans.setdefault(
                    name,
                    {"self_s": 0.0, "total_s": 0.0, "calls": 0,
                     "amount": 0.0},
                )
                entry["self_s"] += state.self_s[name]
                entry["total_s"] += state.total_s[name]
                entry["calls"] += calls
                entry["amount"] += state.amount.get(name, 0.0)
        return {"spans": spans, "busy_s": busy, "threads": threads}


def merge_summaries(summaries: list[dict]) -> dict:
    """Add up several :meth:`Tracer.summary` results (e.g. one per
    daemon lifetime)."""
    spans: dict[str, dict] = {}
    for summary in summaries:
        for name, entry in summary["spans"].items():
            merged = spans.setdefault(
                name,
                {"self_s": 0.0, "total_s": 0.0, "calls": 0, "amount": 0.0},
            )
            for key in merged:
                merged[key] += entry[key]
    return {
        "spans": spans,
        "busy_s": sum(s["busy_s"] for s in summaries),
        "threads": max(s["threads"] for s in summaries),
    }
