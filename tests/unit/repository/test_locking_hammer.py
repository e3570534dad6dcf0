"""Hammer the repository lock's fast paths (DESIGN.md §12).

A re-entrant ``acquire_write`` and a nested ``release_write`` skip the
lock's condition variable: only the owning thread ever sets the writer
field to its own ident, so the unlocked compare is safe.  Eight threads
at a tiny interpreter switch interval mix nested writes, reads nested
inside writes, plain nested reads and writers that time out; a side
ledger checks that no section ever overlaps a write, and the lock must
end fully released.
"""

import random
import sys
import threading
import time

import pytest

from repro.errors import LockTimeoutError
from repro.repository.locking import RepositoryLock

N_THREADS = 8
ROUNDS = 300


@pytest.fixture
def tiny_switch_interval():
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(before)


class _Ledger:
    """Who is inside a locked section, kept under its own mutex."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self.writers = 0
        self.readers = 0
        self.violations: list[str] = []

    def enter(self, write: bool) -> None:
        with self._mutex:
            if self.writers or (write and self.readers):
                self.violations.append(
                    f"{'write' if write else 'read'} entered with "
                    f"{self.writers} writer(s), {self.readers} reader(s)"
                )
            if write:
                self.writers += 1
            else:
                self.readers += 1

    def leave(self, write: bool) -> None:
        with self._mutex:
            if write:
                self.writers -= 1
            else:
                self.readers -= 1


def _worker(lock, ledger, seed, start, timeouts, errors):
    rng = random.Random(seed)
    try:
        start.wait()
        for _ in range(ROUNDS):
            kind = rng.randrange(4)
            if kind == 0:
                # nested writes, with a read nested inside
                with lock.write():
                    ledger.enter(write=True)
                    for _ in range(rng.randrange(1, 4)):
                        with lock.write():
                            assert lock.write_held
                            time.sleep(0)  # let the others contend
                            with lock.read():
                                assert lock.write_held
                    assert lock.write_held
                    ledger.leave(write=True)
                assert not lock.write_held
            elif kind == 1:
                # a writer that gives up quickly
                try:
                    lock.acquire_write(timeout=rng.choice((0.0, 1e-5)))
                except LockTimeoutError:
                    timeouts.append(1)
                    continue
                try:
                    ledger.enter(write=True)
                    time.sleep(0)
                    lock.acquire_write()  # nested, via the fast path
                    lock.release_write()
                    assert lock.write_held
                    ledger.leave(write=True)
                finally:
                    lock.release_write()
            else:
                with lock.read():
                    ledger.enter(write=False)
                    time.sleep(0)
                    with lock.read():
                        assert not lock.write_held
                    ledger.leave(write=False)
    except BaseException as exc:  # relayed to the test thread
        errors.append(exc)


def test_eight_threads_mixing_nested_writes_reads_and_timeouts(
    tiny_switch_interval,
):
    lock = RepositoryLock()
    ledger = _Ledger()
    timeouts: list[int] = []
    errors: list[BaseException] = []
    start = threading.Barrier(N_THREADS)
    threads = [
        threading.Thread(
            target=_worker,
            args=(lock, ledger, seed, start, timeouts, errors),
            daemon=True,
        )
        for seed in range(N_THREADS)
    ]
    for t in threads:
        t.start()
    deadline = time.monotonic() + 60
    for t in threads:
        t.join(timeout=max(0.0, deadline - time.monotonic()))
    assert not any(t.is_alive() for t in threads), "a worker hung"
    if errors:
        raise errors[0]
    assert ledger.violations == []
    assert timeouts, "no writer ever timed out"
    assert ledger.writers == ledger.readers == 0
    # fully released: no holder, no depth, no parked writer count
    assert not lock.write_held
    assert lock.active_readers == 0
    assert "writer=None" in repr(lock)
    assert "waiting_writers=0" in repr(lock)
    box = []
    t = threading.Thread(
        target=lambda: box.append(lock.acquire_write(timeout=5)),
        daemon=True,
    )
    t.start()
    t.join(timeout=10)
    assert box == [None]


def test_nested_release_by_another_thread_is_refused():
    lock = RepositoryLock()
    failures = []

    def stranger():
        try:
            lock.release_write()
        except RuntimeError as exc:
            failures.append(exc)

    with lock.write():
        with lock.write():
            t = threading.Thread(target=stranger)
            t.start()
            t.join(timeout=10)
            assert lock.write_held
        assert lock.write_held
    assert not lock.write_held
    assert len(failures) == 1


def test_context_managers_release_on_error():
    lock = RepositoryLock()
    with pytest.raises(ValueError):
        with lock.write():
            with lock.write():
                raise ValueError("boom")
    assert not lock.write_held
    with pytest.raises(ValueError):
        with lock.read():
            raise ValueError("boom")
    assert lock.active_readers == 0
