"""Content-addressed payload store with exact byte accounting.

Everything Expelliarmus persists is a *blob*: a packaged ``.deb``, a
base image serialised as qcow2, or a user-data tarball.  Blobs are keyed
by deterministic 64-bit content ids, so storing the same package twice
is a no-op — which is precisely the deduplication the repository-size
experiments measure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import DuplicateEntryError, NotInRepositoryError

__all__ = ["BlobKind", "BlobRecord", "BlobStore"]


class BlobKind(enum.Enum):
    PACKAGE = "package"
    BASE_IMAGE = "base-image"
    USER_DATA = "user-data"


@dataclass(frozen=True)
class BlobRecord:
    """One stored blob: its key, kind, size and a display label."""

    key: int
    kind: BlobKind
    size: int
    label: str


class BlobStore:
    """In-memory content-addressed store (the repository disk)."""

    def __init__(self) -> None:
        self._blobs: dict[int, BlobRecord] = {}
        #: running byte totals, updated by :meth:`put` / :meth:`remove`
        #: so :meth:`total_bytes` is O(1) however large the store grows
        self._total = 0
        self._kind_totals = dict.fromkeys(BlobKind, 0)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def put(
        self, key: int, kind: BlobKind, size: int, label: str
    ) -> BlobRecord:
        """Store a blob.

        Raises:
            DuplicateEntryError: the key is already stored (callers must
                check :meth:`contains` first — accidental double-store
                would corrupt the byte accounting the experiments rely
                on).
            ValueError: negative size.
        """
        if size < 0:
            raise ValueError(f"blob size must be >= 0, got {size}")
        if key in self._blobs:
            raise DuplicateEntryError(
                f"blob {key:#x} ({label}) already stored"
            )
        record = BlobRecord(key=key, kind=kind, size=size, label=label)
        self._blobs[key] = record
        self._total += size
        self._kind_totals[kind] += size
        return record

    def remove(self, key: int) -> BlobRecord:
        """Delete a blob, reclaiming its bytes.

        Raises:
            NotInRepositoryError: unknown key.
        """
        try:
            record = self._blobs.pop(key)
        except KeyError:
            raise NotInRepositoryError("blob", key) from None
        self._total -= record.size
        self._kind_totals[record.kind] -= record.size
        return record

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def contains(self, key: int) -> bool:
        return key in self._blobs

    def get(self, key: int) -> BlobRecord:
        """Fetch a blob record.

        Raises:
            NotInRepositoryError: unknown key.
        """
        try:
            return self._blobs[key]
        except KeyError:
            raise NotInRepositoryError("blob", key) from None

    def records(self, kind: BlobKind | None = None) -> list[BlobRecord]:
        if kind is None:
            return list(self._blobs.values())
        return [r for r in self._blobs.values() if r.kind is kind]

    def total_bytes(self, kind: BlobKind | None = None) -> int:
        """Bytes on the repository disk, optionally per blob kind."""
        return self._total if kind is None else self._kind_totals[kind]

    def __len__(self) -> int:
        return len(self._blobs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<BlobStore blobs={len(self._blobs)} "
            f"bytes={self.total_bytes()}>"
        )
