"""Server admission control: a bounded queue with fast rejection.

A long-running daemon in front of one repository must protect itself:
under overload, queueing more work only grows latency without growing
throughput — the workers are the bottleneck either way.  The
:class:`AdmissionController` therefore bounds the number of requests
that may be *anywhere* inside the server (executing or waiting for an
execution slot) at ``max_active + max_queued``, and rejects the rest
immediately with a machine-readable 429-style error the client can
back off on — backpressure over buffering.

The controller is deliberately tiny (one counter under one mutex, no
allocation per request) and self-contained, so the rejection paths can
be unit-tested exhaustively without sockets or threads.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.errors import AdmissionRejectedError

__all__ = ["AdmissionController"]


class AdmissionController:
    """Bounded-occupancy admission with non-blocking rejection."""

    def __init__(self, max_active: int, max_queued: int) -> None:
        """``max_active`` mirrors the server's execution slots;
        ``max_queued`` is the extra headroom requests may wait in.

        Raises:
            ValueError: non-positive worker count or negative queue.
        """
        if max_active < 1:
            raise ValueError(
                f"max_active must be positive, got {max_active}"
            )
        if max_queued < 0:
            raise ValueError(
                f"max_queued must be non-negative, got {max_queued}"
            )
        self.capacity = max_active + max_queued
        self._lock = threading.Lock()
        self._active = 0
        self._admitted = 0
        self._rejected = 0
        self._peak = 0

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------

    @property
    def active(self) -> int:
        """Requests currently admitted (queued or executing)."""
        return self._active

    @property
    def admitted(self) -> int:
        """Requests ever admitted."""
        return self._admitted

    @property
    def rejected(self) -> int:
        """Requests ever turned away at the door."""
        return self._rejected

    @property
    def peak_active(self) -> int:
        """High-water mark of concurrent occupancy."""
        return self._peak

    # ------------------------------------------------------------------
    # the door
    # ------------------------------------------------------------------

    @contextmanager
    def admit(self):
        """Hold one occupancy slot for the block; never blocks.

        Raises:
            AdmissionRejectedError: the server is at capacity (code
                ``overloaded``) — the caller should respond 429-style
                and let the client back off.
        """
        with self._lock:
            if self._active >= self.capacity:
                self._rejected += 1
                raise AdmissionRejectedError(
                    "overloaded",
                    f"server at capacity ({self._active} requests "
                    f"in flight, limit {self.capacity}) — back off "
                    "and retry",
                )
            self._active += 1
            self._admitted += 1
            self._peak = max(self._peak, self._active)
        try:
            yield
        finally:
            with self._lock:
                self._active -= 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<AdmissionController active={self._active}/"
            f"{self.capacity} rejected={self._rejected}>"
        )
