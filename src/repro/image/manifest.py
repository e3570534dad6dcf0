"""File manifests: the content of a file tree, at laptop scale.

A real 2 GB Ubuntu image holds ~80 000 files.  Every storage scheme the
paper evaluates is a pure function of three per-file facts:

* the *content identity* (two files dedup iff their bytes are equal),
* the *size* in bytes,
* the *compressibility* (for the Qcow2+Gzip baseline).

A :class:`FileManifest` therefore carries exactly those three facts as
parallel numpy arrays, so Mirage-style file-level dedup over millions of
file records (the 40-IDE-build scenario of Figure 3c) runs in
milliseconds via vectorised set operations instead of per-file Python
loops — following the vectorisation guidance of the HPC coding guides.

Manifests are value objects: all operations return new manifests and the
arrays are never mutated after construction, so a manifest's total size
is computed once and memoized (never pickled).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np

from repro.ids import content_id

__all__ = ["FileManifest", "SMALL_FILE_THRESHOLD", "ordered_digest"]

#: Hemera stores files below this size in its database (Section VI-C).
SMALL_FILE_THRESHOLD: int = 1_000_000

#: the pickled record's column dtypes, fixed little-endian so a
#: snapshot reads the same on any host
_ID_DTYPE = np.dtype("<u8")
_SIZE_DTYPE = np.dtype("<i8")
_RATIO_DTYPE = np.dtype("<f8")


class FileManifest:
    """Immutable collection of (content id, size, gzip ratio) records."""

    __slots__ = ("_ids", "_sizes", "_ratios", "_total")

    def __init__(
        self,
        content_ids: np.ndarray,
        sizes: np.ndarray,
        gzip_ratios: np.ndarray,
    ) -> None:
        ids = np.asarray(content_ids, dtype=np.uint64)
        sz = np.asarray(sizes, dtype=np.int64)
        rt = np.asarray(gzip_ratios, dtype=np.float64)
        if not (ids.shape == sz.shape == rt.shape) or ids.ndim != 1:
            raise ValueError("manifest arrays must be 1-D and equal length")
        if sz.size and sz.min() < 0:
            raise ValueError("file sizes must be non-negative")
        self._ids = ids
        self._sizes = sz
        self._ratios = rt
        self._total: int | None = None
        for a in (self._ids, self._sizes, self._ratios):
            a.setflags(write=False)

    # A manifest pickles as a call of _unpickle_manifest with its record
    # count and one buffer: ids, then sizes, then ratios, little-endian.
    # The total_size memo stays out of snapshots and op-log records.
    def __reduce__(self) -> tuple:
        buffer = b"".join((
            self._ids.astype(_ID_DTYPE, copy=False).tobytes(),
            self._sizes.astype(_SIZE_DTYPE, copy=False).tobytes(),
            self._ratios.astype(_RATIO_DTYPE, copy=False).tobytes(),
        ))
        return (_unpickle_manifest, (self.n_files, buffer))

    def __setstate__(self, state: tuple[None, dict[str, np.ndarray]]) -> None:
        # snapshots and op-logs written before __reduce__ pickle the
        # three arrays as a (None, slots) state
        _, slots = state
        self._ids = slots["_ids"]
        self._sizes = slots["_sizes"]
        self._ratios = slots["_ratios"]
        self._total = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls) -> "FileManifest":
        return cls(
            np.empty(0, dtype=np.uint64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )

    @classmethod
    def from_records(
        cls, records: Iterable[tuple[int, int, float]]
    ) -> "FileManifest":
        """Build from an iterable of ``(content_id, size, gzip_ratio)``."""
        rows = list(records)
        if not rows:
            return cls.empty()
        ids, sizes, ratios = zip(*rows, strict=True)
        return cls(
            np.array(ids, dtype=np.uint64),
            np.array(sizes, dtype=np.int64),
            np.array(ratios, dtype=np.float64),
        )

    @classmethod
    def synthesize(
        cls,
        seed: str,
        n_files: int,
        total_size: int,
        gzip_ratio: float = 0.36,
    ) -> "FileManifest":
        """Deterministically generate a realistic file population.

        File sizes follow a lognormal distribution (what file-size surveys
        of OS installs report: many tiny files, a long tail of large
        binaries), rescaled so the manifest sums to ``total_size``
        exactly.  All randomness is seeded from ``seed`` so that the same
        package always yields byte-identical manifests — the property
        cross-image dedup depends on.
        """
        if n_files < 0 or total_size < 0:
            raise ValueError("n_files and total_size must be non-negative")
        if n_files == 0:
            return cls.empty()
        rng = np.random.default_rng(content_id(seed) % (2**63))
        raw = rng.lognormal(mean=8.5, sigma=2.2, size=n_files)
        sizes = np.maximum(1, raw / raw.sum() * total_size).astype(np.int64)
        # exact byte accounting: put the remainder on the largest file
        drift = total_size - int(sizes.sum())
        if drift != 0:
            idx = int(np.argmax(sizes))
            sizes[idx] = max(0, sizes[idx] + drift)
        base = content_id(seed)
        offsets = rng.integers(1, 2**62, size=n_files, dtype=np.uint64)
        ids = (np.uint64(base) + offsets).astype(np.uint64)
        ratios = np.clip(
            rng.normal(loc=gzip_ratio, scale=0.05, size=n_files), 0.05, 0.98
        )
        return cls(ids, sizes, ratios)

    @classmethod
    def concat(cls, manifests: Sequence["FileManifest"]) -> "FileManifest":
        """Concatenate manifests (duplicates preserved, order kept)."""
        manifests = [m for m in manifests if m.n_files]
        if not manifests:
            return cls.empty()
        return cls(
            np.concatenate([m._ids for m in manifests]),
            np.concatenate([m._sizes for m in manifests]),
            np.concatenate([m._ratios for m in manifests]),
        )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def content_ids(self) -> np.ndarray:
        return self._ids

    @property
    def sizes(self) -> np.ndarray:
        return self._sizes

    @property
    def gzip_ratios(self) -> np.ndarray:
        return self._ratios

    @property
    def n_files(self) -> int:
        return int(self._ids.size)

    @property
    def total_size(self) -> int:
        """Sum of file sizes in bytes (the mounted footprint)."""
        total = self._total
        if total is None:
            total = int(self._sizes.sum()) if self._sizes.size else 0
            self._total = total
        return total

    def compressed_size(self) -> int:
        """Bytes after per-file gzip (the Qcow2+Gzip encoding)."""
        if not self._sizes.size:
            return 0
        return int(np.ceil(self._sizes * self._ratios).sum())

    # ------------------------------------------------------------------
    # set operations (the dedup primitives)
    # ------------------------------------------------------------------

    def unique(self) -> "FileManifest":
        """Collapse duplicate content ids, keeping one record each."""
        _, first = np.unique(self._ids, return_index=True)
        first.sort()
        return FileManifest(
            self._ids[first], self._sizes[first], self._ratios[first]
        )

    def select(self, mask: np.ndarray) -> "FileManifest":
        """Boolean-mask selection."""
        return FileManifest(
            self._ids[mask], self._sizes[mask], self._ratios[mask]
        )

    def new_against(self, known_ids: np.ndarray) -> "FileManifest":
        """Records whose content is *not* among ``known_ids``, dedup'd.

        This is the core write-path of a content-addressed store: of the
        incoming files, which bytes actually need storing?
        """
        fresh = self.unique()
        if known_ids.size == 0:
            return fresh
        mask = ~np.isin(fresh._ids, known_ids, assume_unique=False)
        return fresh.select(mask)

    def duplicate_bytes_against(self, known_ids: np.ndarray) -> int:
        """Bytes of this manifest already present in ``known_ids``."""
        if known_ids.size == 0 or not self._ids.size:
            return 0
        mask = np.isin(self._ids, known_ids)
        return int(self._sizes[mask].sum())

    def small_file_mask(
        self, threshold: int = SMALL_FILE_THRESHOLD
    ) -> np.ndarray:
        """Mask of files below Hemera's database threshold."""
        return self._sizes < threshold

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.n_files

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FileManifest):
            return NotImplemented
        return (
            np.array_equal(self._ids, other._ids)
            and np.array_equal(self._sizes, other._sizes)
            and np.array_equal(self._ratios, other._ratios)
        )

    def __hash__(self) -> int:  # content-based, order-sensitive
        return hash(
            (self._ids.tobytes(), self._sizes.tobytes())
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FileManifest files={self.n_files} "
            f"bytes={self.total_size}>"
        )


def _unpickle_manifest(n: int, buffer: bytes) -> FileManifest:
    """Rebuild a pickled :class:`FileManifest` from its record buffer.

    The arrays are read-only views of ``buffer``: ``n`` content ids,
    then ``n`` sizes, then ``n`` gzip ratios.  Its name is part of the
    snapshot and op-log format.  A build that predates it fails to look
    it up (``AttributeError``, which loaders treat as an unloadable
    record) and refuses the workspace, changing no file.
    """
    manifest = object.__new__(FileManifest)
    manifest._ids = np.frombuffer(buffer, _ID_DTYPE, n, 0)
    manifest._sizes = np.frombuffer(buffer, _SIZE_DTYPE, n, 8 * n)
    manifest._ratios = np.frombuffer(buffer, _RATIO_DTYPE, n, 16 * n)
    manifest._total = None
    return manifest


def ordered_digest(manifests: Iterable[FileManifest]) -> str:
    """Process-stable content digest of manifests laid end to end.

    blake2b over the content-id vectors, then the size vectors, of
    ``manifests`` in order: exactly the digest of their
    :meth:`FileManifest.concat`, without building it.  Two file trees
    are byte-identical iff their digests match, and the digest is
    stable across processes (``hash()`` is not), so a server reply can
    be compared with a local retrieval.
    """
    manifests = list(manifests)
    h = hashlib.blake2b(digest_size=16)
    for m in manifests:
        h.update(m.content_ids.tobytes())
    for m in manifests:
        h.update(m.sizes.tobytes())
    return h.hexdigest()
