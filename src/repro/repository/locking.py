"""Repository locking — the concurrency core (DESIGN.md §12).

One :class:`RepositoryLock` guards one :class:`~repro.repository.repo.
Repository`: a reentrant reader-writer lock giving the coarse
transaction model the parallel service layer builds on —

* **writes are exclusive.**  A state-changing operation (a whole
  publish, delete, GC pass — not a single primitive) runs under
  :meth:`RepositoryLock.write`, so the repository only ever moves
  between operation boundaries.  Because the write lock also covers the
  operation's journal appends, op-log order equals application order
  and crash replay stays deterministic under parallel execution.
* **reads are shared.**  Retrievals and other read-only operations run
  under :meth:`RepositoryLock.read` and overlap freely with each other;
  a waiting writer blocks *new* readers (write preference), so a read
  storm cannot starve publishes.
* **reentrant.**  A thread may nest write-in-write, read-in-read and
  read-inside-write acquisitions arbitrarily — the repository's own
  primitives take the write lock themselves, so an executor holding the
  operation-level lock pays only a depth increment per primitive.
  Read→write *upgrades* are refused (two upgrading readers would
  deadlock each other): acquire the write lock first.
* **bounded waiting.**  Every acquisition takes an optional timeout;
  expiry raises :class:`~repro.errors.LockTimeoutError`, the
  repository-error subclass operators can catch to back off instead of
  hanging a service thread forever.

The lock is deliberately *coarse*: the paper's repository is a single
SQLite-plus-blobstore node, and one exclusive writer matches both its
consistency model and SQLite's own write serialization.  It is also
the only guard of the metadata index's dicts, which are not
synchronized themselves.  Parallel
throughput comes from overlapping the simulated I/O of independent
shards (see :mod:`repro.service.parallel`), not from interleaving
mutations — which is exactly how the differential suite can demand
parallel ≡ sequential, byte for byte.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from time import monotonic

from repro.errors import LockTimeoutError

__all__ = ["RepositoryLock"]


class _Held:
    """The ``with`` block of one acquisition: acquires on entry,
    releases on exit (slotted, cheaper than a generator-based context
    manager on the per-item path)."""

    __slots__ = ("_acquire", "_release", "_timeout")

    def __init__(
        self,
        acquire: Callable[[float | None], None],
        release: Callable[[], None],
        timeout: float | None,
    ) -> None:
        self._acquire = acquire
        self._release = release
        self._timeout = timeout

    def __enter__(self) -> None:
        self._acquire(self._timeout)

    def __exit__(self, *exc_info: object) -> None:
        self._release()


class RepositoryLock:
    """Reentrant reader-writer lock with write preference and timeouts."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        #: ident of the thread holding the write lock, None when free
        self._writer: int | None = None
        self._write_depth = 0
        #: per-thread read depth (readers may nest their own reads)
        self._readers: dict[int, int] = {}
        #: threads blocked in acquire_write — new readers hold back
        self._waiting_writers = 0

    # ------------------------------------------------------------------
    # probes (tests and assertions)
    # ------------------------------------------------------------------

    @property
    def write_held(self) -> bool:
        """Is the write lock held by the *calling* thread?"""
        return self._writer == threading.get_ident()

    @property
    def active_readers(self) -> int:
        """Distinct threads currently holding read access."""
        with self._cond:
            return len(self._readers)

    # ------------------------------------------------------------------
    # acquisition / release
    # ------------------------------------------------------------------

    def _wait(self, deadline: float | None) -> bool:
        """One bounded wait on the condition; False when time is up."""
        if deadline is None:
            self._cond.wait()
            return True
        remaining = deadline - monotonic()
        if remaining <= 0:
            return False
        self._cond.wait(remaining)
        return True

    def acquire_read(self, timeout: float | None = None) -> None:
        """Take shared access; blocks while a writer runs or waits.

        Raises:
            LockTimeoutError: the lock stayed unavailable for
                ``timeout`` seconds.
        """
        me = threading.get_ident()
        with self._cond:
            if self._writer == me or me in self._readers:
                # reentrant: nested read, or read inside the held write
                self._readers[me] = self._readers.get(me, 0) + 1
                return
            deadline = None if timeout is None else monotonic() + timeout
            while self._writer is not None or self._waiting_writers:
                if not self._wait(deadline):
                    raise LockTimeoutError("read", timeout)
            self._readers[me] = 1

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            depth = self._readers.get(me, 0)
            if depth == 0:
                raise RuntimeError(
                    "release_read without a held read lock"
                )
            if depth == 1:
                del self._readers[me]
                self._cond.notify_all()
            else:
                self._readers[me] = depth - 1

    def acquire_write(self, timeout: float | None = None) -> None:
        """Take exclusive access; blocks while anyone else holds the lock.

        Raises:
            LockTimeoutError: the lock stayed unavailable for
                ``timeout`` seconds.
            RuntimeError: the calling thread holds a *read* lock — an
                upgrade would deadlock against any other upgrader, so
                it is refused outright.
        """
        me = threading.get_ident()
        if self._writer == me:
            # reentrant, without the condition: only the owning thread
            # ever sets _writer to its own ident (or clears it), so this
            # unlocked compare cannot see another thread's write
            self._write_depth += 1
            return
        with self._cond:
            if me in self._readers:
                raise RuntimeError(
                    "read->write upgrade is not supported: release "
                    "the read lock (or take the write lock first)"
                )
            deadline = None if timeout is None else monotonic() + timeout
            self._waiting_writers += 1
            try:
                while self._writer is not None or self._readers:
                    if not self._wait(deadline):
                        raise LockTimeoutError("write", timeout)
                self._writer = me
                self._write_depth = 1
            finally:
                self._waiting_writers -= 1
                # a timed-out writer must not leave readers parked
                # behind a waiting-writers count that just dropped
                self._cond.notify_all()

    def release_write(self) -> None:
        if self._write_depth > 1 and self._writer == threading.get_ident():
            # nested release: the owner only drops a depth level, and
            # nobody else reads or writes the depth meanwhile
            self._write_depth -= 1
            return
        with self._cond:
            if self._writer != threading.get_ident():
                raise RuntimeError(
                    "release_write by a thread not holding the write lock"
                )
            self._write_depth -= 1
            if self._write_depth == 0:
                self._writer = None
                self._cond.notify_all()

    # ------------------------------------------------------------------
    # context managers — the API everything programs against
    # ------------------------------------------------------------------

    def read(self, timeout: float | None = None) -> _Held:
        """Shared access for the ``with`` block."""
        return _Held(self.acquire_read, self.release_read, timeout)

    def write(self, timeout: float | None = None) -> _Held:
        """Exclusive access for the ``with`` block."""
        return _Held(self.acquire_write, self.release_write, timeout)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<RepositoryLock writer={self._writer} "
            f"readers={len(self._readers)} "
            f"waiting_writers={self._waiting_writers}>"
        )
