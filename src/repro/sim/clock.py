"""Simulated wall clock with labelled time accounting.

Every expensive operation in the substrate advances a
:class:`SimulatedClock` by a model-derived duration, tagged with a label
(``"base-copy"``, ``"import"`` ...).  Figure 5a needs exactly this
breakdown: retrieval time split into base-image copy, guestfs handle
creation, VMI reset and package import.

Thread safety (DESIGN.md §12): one clock may be shared by the daemon's
connection threads.  ``now`` accumulates under a mutex and therefore
counts the *summed* work of all threads; measurement windows are
*thread-local*, so a ``measure()`` block captures exactly the time its
own thread charged — per-request breakdowns stay correct under
concurrent requests.  The batch executor derives critical-path
(overlapped) time from per-shard sums of per-item windows, never from
this global total.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

__all__ = ["SimulatedClock", "TimeBreakdown"]


@dataclass
class TimeBreakdown:
    """Per-label durations of one measured operation."""

    totals: dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(self.totals.values())

    def component(self, label: str) -> float:
        return self.totals.get(label, 0.0)

    def merged(self, other: "TimeBreakdown") -> "TimeBreakdown":
        merged: dict[str, float] = dict(self.totals)
        for k, v in other.totals.items():
            merged[k] = merged.get(k, 0.0) + v
        return TimeBreakdown(totals=merged)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = ", ".join(f"{k}={v:.2f}s" for k, v in self.totals.items())
        return f"<TimeBreakdown {parts} total={self.total:.2f}s>"


class SimulatedClock:
    """Monotonic simulated time with nested measurement windows."""

    def __init__(self) -> None:
        self._now = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def _windows(self) -> list[dict[str, float]]:
        """This thread's stack of open measurement windows."""
        stack: list[dict[str, float]] | None = getattr(
            self._local, "windows", None
        )
        if stack is None:
            stack = []
            self._local.windows = stack
        return stack

    @property
    def now(self) -> float:
        """Simulated seconds charged so far (summed across threads)."""
        return self._now

    def advance(self, seconds: float, label: str = "other") -> None:
        """Advance time; negative durations are a programming error."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds} s")
        with self._lock:
            self._now += seconds
        for window in self._windows:
            window[label] = window.get(label, 0.0) + seconds

    def advance_all(
        self, seconds: Sequence[float], labels: Sequence[str]
    ) -> None:
        """``advance(s, label)`` for each pair of ``seconds`` and
        ``labels``, in order: the same floats added in the same order
        to ``now`` and to every open window.  A negative duration
        anywhere raises before anything is charged."""
        for duration in seconds:
            if duration < 0:
                raise ValueError(f"cannot advance clock by {duration} s")
        with self._lock:
            now = self._now
            for duration in seconds:
                now += duration
            self._now = now
        for window in self._windows:
            for duration, label in zip(seconds, labels):
                window[label] = window.get(label, 0.0) + duration

    @contextmanager
    def measure(self) -> Iterator[TimeBreakdown]:
        """Capture all time charged inside the ``with`` block.

        The yielded :class:`TimeBreakdown` fills in as the block runs and
        is complete when the block exits.  Windows nest: an inner measure
        does not steal time from an outer one.
        """
        window: dict[str, float] = {}
        breakdown = TimeBreakdown(totals=window)
        self._windows.append(window)
        try:
            yield breakdown
        finally:
            self._windows.pop()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SimulatedClock now={self._now:.3f}s>"
