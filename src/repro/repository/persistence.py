"""Repository snapshots: save/close/reopen the whole store.

The paper's repository survives process restarts (SQLite on an external
SSD).  The reproduction keeps payload *accounting* in memory, so this
module provides the equivalent durability: a snapshot captures every
stored object (packages, base images, user data, master graphs, VMI
records) and restores a fully functional repository — publish, retrieve
and GC all work on the reloaded instance.

Format v2 makes the round-trip *exact*, not merely functional: master
graphs carry their membership ``revision`` and the repository carries
its ``mutations`` counter, so derived-state caches persisted across
sessions (assembly plans take integer fast paths on ``mutations``
and on master revisions) can never falsely validate against a
reloaded repository.  Dirty-base state rides along as in v1.

Restoring is one :meth:`~repro.repository.repo.Repository.restore`
call: one write-lock hold that fills the object maps, the blob store,
the metadata index, the masters and the records in the orders the
store/record primitives would insert them, journals nothing, and
counts the liveness refcounts and zero-reference sets in one pass over
the records' contributions — the arithmetic of
:meth:`~repro.repository.repo.Repository.rebuild_refcounts`, which
fsck's ``refcount-drift`` check compares against.

Snapshots use pickle over the repository's plain-data state, read and
written **only through the repository's public iteration API**
(:meth:`~repro.repository.repo.Repository.packages`,
:meth:`~repro.repository.repo.Repository.stored_user_data`,
:meth:`~repro.repository.repo.Repository.vmi_contribution`, ...), so
snapshot code cannot desynchronise from internal refactors.  Pickle is
appropriate here because snapshots are produced and consumed by the
same trusted application (never load snapshots from untrusted sources);
the metadata index is regenerated on load rather than serialised, so a
snapshot cannot desynchronise the two views.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import IO, Callable, TypeVar

from repro.repository.master_graphs import master_state
from repro.repository.repo import Repository

__all__ = [
    "save_repository",
    "load_repository",
    "replace_atomically",
    "restore_into",
    "repository_state",
]

T = TypeVar("T")

_FORMAT_VERSION = 2
#: versions load_repository still understands (v1: no revisions, no
#: mutation counter — restored masters start at revision 0)
_READABLE_VERSIONS = (1, 2)


def repository_state(repo: Repository) -> dict:
    """The repository's full durable state as a plain-data dict.

    Built exclusively from the public iteration API.  The returned
    structure references live objects (package graphs are mutable) —
    serialise eagerly, as :func:`save_repository` does.
    """
    return {
        "version": _FORMAT_VERSION,
        "packages": repo.packages(),
        "bases": repo.base_images(),
        "data": repo.stored_user_data(),
        "masters": [master_state(m) for m in repo.master_graphs()],
        "records": [
            (rec, repo.vmi_contribution(rec.name))
            for rec in repo.vmi_records()
        ],
        # deletions not yet swept: the reloaded repository's next
        # incremental GC pass must still re-derive these bases
        "dirty_bases": sorted(repo.dirty_bases()),
        # derived-cache freshness token — must survive exactly
        "mutations": repo.mutations,
    }


def replace_atomically(path: str | Path, write: Callable[[IO[bytes]], T]) -> T:
    """Write ``path`` through a temp file that then atomically replaces
    it; returns what ``write`` returned.

    ``write`` streams into the temp file (opened ``"wb"``), so a large
    state is never built whole in memory.  At no instant does ``path``
    hold a partial file: a crash leaves the old file or the new one.
    """
    path = Path(path)
    tmp = path.with_suffix(".tmp")
    with tmp.open("wb") as file:
        result = write(file)
    os.replace(tmp, path)
    return result


def save_repository(repo: Repository, path: str | Path) -> int:
    """Write a snapshot, pickled straight through
    :func:`replace_atomically`; returns the snapshot size in bytes."""

    def write(file) -> int:
        pickle.dump(
            repository_state(repo), file, protocol=pickle.HIGHEST_PROTOCOL
        )
        return file.tell()

    return replace_atomically(path, write)


def restore_into(repo: Repository, state: dict) -> Repository:
    """Apply a snapshot state dict to an empty repository.

    One :meth:`~repro.repository.repo.Repository.restore` call: one
    write-lock hold, nothing journaled.

    Raises:
        ValueError: not a snapshot state, an unknown snapshot format
            version, or a repository that is not empty.
        NotInRepositoryError: a master names a base the snapshot does
            not store.
    """
    version = state.get("version") if isinstance(state, dict) else None
    if version not in _READABLE_VERSIONS:
        raise ValueError(f"unsupported snapshot version {version!r}")
    repo.restore(
        bases=state["bases"],
        packages=state["packages"],
        user_data=state["data"],
        masters=state["masters"],
        records=state["records"],
        dirty_bases=state.get("dirty_bases", ()),
        mutations=state.get("mutations"),
    )
    return repo


def load_repository(path: str | Path) -> Repository:
    """Rebuild a repository from a snapshot.

    Raises:
        ValueError: unknown snapshot format version.
        FileNotFoundError: missing snapshot file.
    """
    state = pickle.loads(Path(path).read_bytes())
    return restore_into(Repository(), state)
