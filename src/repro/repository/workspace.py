"""Durable repository workspaces: snapshot + write-ahead op-log.

A *workspace* is a directory that makes one repository survive process
exits the way the paper's SQLite-on-SSD store does:

* ``content-<generation>.bin`` — the append-only content file: every
  package, base image and user-data payload, written once, by the
  first checkpoint that finds it stored;
* ``snapshot.bin`` — the last checkpoint's metadata (snapshot format
  v3, exact round-trip: master revisions by blob key, mutation counter,
  dirty state, and the content file's generation and committed length);
* ``oplog.bin`` — the write-ahead journal of every repository primitive
  applied since that checkpoint.

Opening a workspace loads the snapshot, replays the op-log on top, and
re-attaches the journal — so reopen cost is O(ops since checkpoint),
not O(repository), and a process crash loses at most a torn tail
record (an operation whose journal entry never became durable, i.e. an
operation that never logically happened).

Checkpointing runs four steps, each safe to crash after:

1. append the content stored since the last checkpoint as one frame
   (or, when the content file's dead bytes exceed its live bytes,
   write the live content as the next generation).  A crash leaves
   bytes past the committed length, or an unnamed generation: the old
   snapshot never reads them, and the next checkpoint truncates or
   removes them;
2. replace the snapshot atomically (temp file + ``os.replace``); it
   names the content file's new generation and length;
3. start a fresh op-log.  A crash between 2 and 3 leaves a snapshot
   newer than the log header; since no operation can run inside that
   window, the stale log is provably subsumed by the snapshot and is
   discarded on the next open;
4. remove the content files of other generations.

Any other snapshot/op-log disagreement is a real pairing error and
raises :class:`~repro.errors.WorkspaceError` instead of replaying
garbage.  A snapshot in an older format (v1/v2, every object by value)
loads through the legacy loader and no file changes until the first
checkpoint, which writes the content file and a v3 snapshot.

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

import gc
import os
import pickle
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.errors import (
    RepositoryError,
    WorkspaceError,
    WorkspaceLockedError,
)
from repro.repository.oplog import (
    UNLOADABLE,
    OpLog,
    replay_ops,
    unloadable_error,
)
from repro.repository.persistence import (
    ContentFile,
    repository_content,
    repository_state,
    restore_into,
    write_state,
)
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
        self._content = ContentFile(self.path)
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
        """The snapshot-restore + replay body; lock already held.

        Restore and replay run under one hold of the repository write
        lock, so each replayed primitive only re-enters it.  The loaded
        objects live as long as the repository, so one young-generation
        collection promotes them at once; left young, they would be
        traversed again by each of the next requests' collections.
        """
        repo = Repository()
        with repo.lock.write():
            self._restore_snapshot(repo)
            self._replay_oplog(repo)
        repo.attach_journal(self._oplog)
        gc.collect(1)
        return repo

    def _restore_snapshot(self, repo: Repository) -> None:
        """Fill ``repo`` from ``snapshot.bin`` when there is one.

        Raises:
            WorkspaceError: the snapshot is unreadable (truncated,
                corrupt, or naming a class this process lacks), or its
                content does not restore.
        """
        self._content = ContentFile(self.path)
        if not self.snapshot_path.exists():
            return
        try:
            state = pickle.loads(self.snapshot_path.read_bytes())
        except UNLOADABLE as exc:
            raise unloadable_error(
                f"snapshot {self.snapshot_path}", exc
            ) from exc
        except Exception as exc:
            raise WorkspaceError(
                f"snapshot {self.snapshot_path} is unreadable: {exc}"
            ) from exc
        objects = None
        position = state.get("content") if isinstance(state, dict) else None
        if position is not None:
            objects = self._load_content(*position)
        try:
            restore_into(repo, state, objects)
        except (ValueError, RepositoryError) as exc:
            raise WorkspaceError(
                f"workspace {self.path}: snapshot {self.snapshot_path} "
                f"does not restore: {exc}"
            ) from exc

    def _load_content(self, generation: int, length: int) -> dict:
        """Read the content file the snapshot names; its objects by
        blob key.

        Raises:
            WorkspaceError: the file is missing, short, damaged, or
                holds a record naming a class this process lacks.
        """
        content = ContentFile(self.path, generation, length)
        try:
            self._content, objects = ContentFile.load(
                self.path, generation, length
            )
        except UNLOADABLE as exc:
            raise unloadable_error(f"content file {content.path}", exc) from exc
        except Exception as exc:
            raise WorkspaceError(
                f"content file {content.path} is unreadable: {exc}"
            ) from exc
        return objects

    def _replay_oplog(self, repo: Repository) -> None:
        """Replay the op-log on top of the snapshot and open it for
        appending (creating a fresh one when there is none).

        Raises:
            WorkspaceError: the op-log does not continue the snapshot,
                or is unreadable.
        """
        self.replayed_ops = 0
        if not self.oplog_path.exists():
            self._oplog = OpLog.create(
                self.oplog_path, snapshot_mutations=repo.mutations
            )
            return
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
        """Write new content and a snapshot, truncate the op-log;
        returns the snapshot's bytes.

        After a checkpoint the op-log is empty, so the next reopen
        pays pure snapshot-load cost.  See the module docstring for
        the four steps and the crash window after each.
        """
        repo = self.repo
        live = repository_content(repo)
        content = self._content
        if content.needs_compaction(live):
            content = content.rewrite(live.items())
        else:
            content.append(live.items())
        state = repository_state(repo)
        state["content"] = content.position
        size = write_state(self.snapshot_path, state)
        self._content = content
        if self._oplog is not None:
            self._oplog.close()
        self._oplog = OpLog.create(
            self.oplog_path, snapshot_mutations=repo.mutations
        )
        repo.attach_journal(self._oplog)
        content.remove_other_generations()
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
