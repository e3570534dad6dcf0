"""The VMI repository (right-hand side of Figure 2).

Three layers:

* :class:`~repro.repository.blobstore.BlobStore` — content-addressed
  payload storage for packaged ``.deb`` archives, base-image qcow2
  files and user-data tarballs, with exact byte accounting;
* :class:`~repro.repository.database.MetadataDatabase` — the metadata
  tables the paper keeps in SQLite (Section VI-A), here dict indexes
  rebuilt from the workspace: VMI records, base-image records,
  package index;
* :class:`~repro.repository.repo.Repository` — the facade Algorithms
  1-3 program against: packages, base images, user data, master graphs.

Durability rides on top: :class:`~repro.repository.workspace.Workspace`
pairs a snapshot (:mod:`~repro.repository.persistence`, format v2) with
a write-ahead op-log (:mod:`~repro.repository.oplog`), so one store
survives process restarts and crashes across CLI invocations — one
live process at a time, enforced by the workspace's advisory lock.

Concurrency rides alongside: every repository carries a
:class:`~repro.repository.locking.RepositoryLock` (reentrant
reader-writer, write-preferring, timeouts), the transaction core the
parallel service executors serialize whole operations on.
"""

from repro.repository.blobstore import BlobKind, BlobStore
from repro.repository.database import MetadataDatabase
from repro.repository.locking import RepositoryLock
from repro.repository.oplog import OpLog
from repro.repository.repo import Repository, VMIRecord
from repro.repository.workspace import Workspace

__all__ = [
    "BlobKind",
    "BlobStore",
    "MetadataDatabase",
    "OpLog",
    "Repository",
    "RepositoryLock",
    "VMIRecord",
    "Workspace",
]
