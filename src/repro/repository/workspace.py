"""Durable repository workspaces: snapshot + write-ahead op-log.

A *workspace* is a directory that makes one repository survive process
exits the way the paper's SQLite-on-SSD store does:

* ``snapshot.bin`` — the last checkpoint (snapshot format v2, exact
  round-trip: master revisions, mutation counter, dirty state);
* ``oplog.bin`` — the write-ahead journal of every repository primitive
  applied since that checkpoint.

Opening a workspace loads the snapshot, replays the op-log on top, and
re-attaches the journal — so reopen cost is O(ops since checkpoint),
not O(repository), and a process crash loses at most a torn tail
record (an operation whose journal entry never became durable, i.e. an
operation that never logically happened).

Checkpointing writes a fresh snapshot atomically (temp file +
``os.replace``) and *then* starts a fresh op-log.  The crash window
between the two leaves a snapshot newer than the log header; since no
operation can run inside that window, the stale log is provably
subsumed by the snapshot and is discarded on the next open.  Any other
snapshot/op-log disagreement is a real pairing error and raises
:class:`~repro.errors.WorkspaceError` instead of replaying garbage.

**Advisory locking.**  A workspace admits one live process at a time:
opening (or adopting into) a directory takes an exclusive
``flock(2)`` on its ``lock`` file and records the holder's pid in it
for diagnostics.  A second live process fails fast with
:class:`~repro.errors.WorkspaceLockedError` naming the holder — the
contract the CI workspace-roundtrip gate asserts — instead of
interleaving two journals over one op-log.  The kernel releases the
lock when its holder dies, so a crashed run can never wedge the store
and there is no stale-lock breaking to race on; a handle abandoned by
*this* process (a crash simulated without :meth:`Workspace.close`) is
closed — releasing its lock — when the process reopens the path.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.errors import WorkspaceError, WorkspaceLockedError
from repro.repository.oplog import (
    UNLOADABLE,
    OpLog,
    replay_ops,
    unloadable_error,
)
from repro.repository.persistence import restore_into, save_repository
from repro.repository.repo import Repository

__all__ = ["Workspace"]

_SNAPSHOT_NAME = "snapshot.bin"
_OPLOG_NAME = "oplog.bin"
_LOCK_NAME = "lock"

#: locks this process holds, keyed by resolved lock-file path, valued
#: ``(token, fd)`` — lets a later open of the same workspace break its
#: own *abandoned* handle (the crash-simulation idiom the restart
#: suites use) by closing the old fd, which releases its flock.  The
#: per-acquisition token lets the abandoned handle's own eventual
#: ``close()`` recognise it was taken over (fd numbers get reused, so
#: the fd alone could not)
_HELD_LOCKS: dict[str, tuple[object, int]] = {}


class Workspace:
    """One durable repository rooted at a directory."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._repo: Repository | None = None
        self._oplog: OpLog | None = None
        self._holds_lock = False
        self._lock_token: object | None = None
        #: ops replayed by the last :meth:`load` (reopen cost probe)
        self.replayed_ops = 0
        #: checkpoints written through this instance
        self.checkpoints_written = 0

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------

    @property
    def snapshot_path(self) -> Path:
        return self.path / _SNAPSHOT_NAME

    @property
    def oplog_path(self) -> Path:
        return self.path / _OPLOG_NAME

    @property
    def lock_path(self) -> Path:
        return self.path / _LOCK_NAME

    def is_initialized(self) -> bool:
        """Has this directory ever held a repository?"""
        return self.snapshot_path.exists() or self.oplog_path.exists()

    # ------------------------------------------------------------------
    # advisory cross-process locking
    # ------------------------------------------------------------------

    def lock_holder(self) -> int | None:
        """Pid recorded in the lock file, None when unlocked/unreadable."""
        try:
            return int(self.lock_path.read_text().strip())
        except (OSError, ValueError):
            return None

    @property
    def _lock_key(self) -> str:
        return str(self.lock_path.resolve())

    def _acquire_lock(self) -> None:
        """Claim the workspace for this process via ``flock``.

        The kernel owns liveness: a holder that exits or crashes drops
        its lock automatically, so there is no stale-lock detection to
        race on.  A handle this process itself abandoned (crash
        simulation) is closed first, releasing its lock.

        Raises:
            WorkspaceLockedError: another live process holds it.
        """
        abandoned = _HELD_LOCKS.pop(self._lock_key, None)
        if abandoned is not None:
            os.close(abandoned[1])
        fd = os.open(self.lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        if fcntl is not None:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError as exc:
                holder = self.lock_holder()
                os.close(fd)
                raise WorkspaceLockedError(self.path, holder or 0) from exc
        os.ftruncate(fd, 0)
        os.write(fd, f"{os.getpid()}\n".encode())
        self._lock_token = object()
        _HELD_LOCKS[self._lock_key] = (self._lock_token, fd)
        self._holds_lock = True

    def _release_lock(self) -> None:
        if not self._holds_lock:
            return
        self._holds_lock = False
        token = self._lock_token
        self._lock_token = None
        held = _HELD_LOCKS.get(self._lock_key)
        if held is None or held[0] is not token:
            # an abandoned handle this process already took over (and
            # whose fd it already closed) — nothing left to release
            return
        del _HELD_LOCKS[self._lock_key]
        # empty the diagnostics pid before the flock drops, so
        # lock_holder() reads None the instant we are out; the file
        # itself stays (unlinking a contended flock file is the
        # classic lost-lock race, so we never do)
        os.ftruncate(held[1], 0)
        os.close(held[1])

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def repo(self) -> Repository:
        """The loaded repository.

        Raises:
            WorkspaceError: :meth:`load` has not run.
        """
        if self._repo is None:
            raise WorkspaceError(f"workspace {self.path} is not loaded")
        return self._repo

    def load(self) -> Repository:
        """Open (or initialise) the workspace; returns its repository.

        Snapshot restore + op-log replay + journal re-attachment.  A
        fresh directory comes up as an empty repository with an empty
        journal — durability starts with the first operation.

        Raises:
            WorkspaceError: mismatched snapshot/op-log pair, or an
                unreadable op-log.
            WorkspaceLockedError: another live process holds the
                workspace's advisory lock.
        """
        if self._repo is not None:
            return self._repo
        self.path.mkdir(parents=True, exist_ok=True)
        self._acquire_lock()
        try:
            repo = self._load_locked()
        except BaseException:
            # a broken store must not stay locked against other
            # processes for this process's lifetime
            if self._oplog is not None:
                self._oplog.close()
                self._oplog = None
            self._release_lock()
            raise
        self._repo = repo
        return repo

    def _load_locked(self) -> Repository:
        """The snapshot-restore + replay body; lock already held."""
        repo = Repository()
        if self.snapshot_path.exists():
            try:
                state = pickle.loads(self.snapshot_path.read_bytes())
            except UNLOADABLE as exc:
                raise unloadable_error(
                    f"snapshot {self.snapshot_path}", exc
                ) from exc
            try:
                restore_into(repo, state)
            except ValueError as exc:
                raise WorkspaceError(
                    f"workspace {self.path}: {exc}"
                ) from exc

        self.replayed_ops = 0
        if self.oplog_path.exists():
            paired = OpLog.read_header(self.oplog_path)
            if paired == repo.mutations:
                oplog, scan = OpLog.open(self.oplog_path)
                self.replayed_ops = replay_ops(repo, scan.ops)
                self._oplog = oplog
            elif paired < repo.mutations:
                # crash between checkpoint's snapshot write and its
                # op-log reset: nothing ran in that window, so the
                # snapshot subsumes every logged op — start fresh
                self._oplog = OpLog.create(
                    self.oplog_path, snapshot_mutations=repo.mutations
                )
            else:
                raise WorkspaceError(
                    f"workspace {self.path}: op-log continues a "
                    f"snapshot at mutation {paired}, but the stored "
                    f"snapshot is at {repo.mutations} — not a "
                    "matching pair"
                )
        else:
            self._oplog = OpLog.create(
                self.oplog_path, snapshot_mutations=repo.mutations
            )

        repo.attach_journal(self._oplog)
        return repo

    def adopt(self, repo: Repository) -> int:
        """Become durable storage for an existing in-memory repository.

        Writes the first checkpoint and journals the repository from
        now on; returns the snapshot bytes.  Refuses a directory that
        already holds a repository — adopting over one would silently
        discard it.

        Raises:
            WorkspaceError: the directory is already initialised, or
                this workspace already carries a repository.
            WorkspaceLockedError: another live process holds the
                workspace's advisory lock.
        """
        if self._repo is not None:
            raise WorkspaceError(
                f"workspace {self.path} already carries a repository"
            )
        if self.is_initialized():
            raise WorkspaceError(
                f"workspace {self.path} already holds a repository — "
                "open it instead of adopting over it"
            )
        self.path.mkdir(parents=True, exist_ok=True)
        self._acquire_lock()
        self._repo = repo
        try:
            return self.checkpoint()
        except BaseException:
            self._repo = None
            self._release_lock()
            raise

    def checkpoint(self) -> int:
        """Write a snapshot and truncate the op-log; returns its bytes.

        After a checkpoint the op-log is empty, so the next reopen
        pays pure snapshot-load cost.  The snapshot write is atomic
        (temp + rename); see the module docstring for the crash window
        between the write and the log reset.
        """
        repo = self.repo
        size = save_repository(repo, self.snapshot_path)
        if self._oplog is not None:
            self._oplog.close()
        self._oplog = OpLog.create(
            self.oplog_path, snapshot_mutations=repo.mutations
        )
        repo.attach_journal(self._oplog)
        self.checkpoints_written += 1
        return size

    @property
    def ops_since_checkpoint(self) -> int:
        """Journal length — the replay work a reopen would pay now."""
        return self._oplog.op_count if self._oplog is not None else 0

    def checkpoint_if_due(self, every_ops: int | None) -> bool:
        """Checkpoint when the journal reached ``every_ops`` entries.

        The single home of the op-count policy (the facade and the
        maintenance service both delegate here): bounds the replay
        work a reopen pays without re-snapshotting per operation.
        ``None`` disables it.
        """
        if every_ops is None:
            return False
        if self.ops_since_checkpoint < max(every_ops, 1):
            return False
        self.checkpoint()
        return True

    def close(self) -> None:
        """Detach the journal, close the op-log, release the lock
        (state stays)."""
        if self._repo is not None:
            self._repo.detach_journal()
        if self._oplog is not None:
            self._oplog.close()
        self._repo = None
        self._oplog = None
        self._release_lock()

    def __enter__(self) -> "Workspace":
        self.load()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Workspace {self.path} "
            f"ops_since_checkpoint={self.ops_since_checkpoint}>"
        )
