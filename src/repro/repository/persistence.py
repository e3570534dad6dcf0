"""Repository snapshots and the content file.

The paper's repository survives process restarts (SQLite on an external
SSD).  The reproduction keeps payload *accounting* in memory, so this
module provides the equivalent durability in two parts:

* the **content file** (:class:`ContentFile`) holds the immutable
  objects — packages, base images, user data — each written once, when
  a checkpoint first finds it stored, and named by its blob key;
* the **snapshot** (format v3) holds only metadata: the VMI records and
  their package keys, each stored package's blob key (its size is its
  ``deb_size``), each stored base image's and user-data payload's blob
  key and size, the master graphs by reference
  (:class:`~repro.repository.master_graphs.MasterRefs`: each vertex as
  its blob key when the package store or the master's base holds it,
  both of which the content file holds, else by value), the dirty
  bases, the ``mutations`` counter and the content file's generation
  and committed length.

Content file layout: ``content-<generation>.bin`` is a sequence of
frames, each an 8-byte header (payload length and CRC32, little-endian
``u32`` each) and a payload of pickled ``(blob key, object)`` entries
written by one pickler, so later entries of a frame share the strings
of earlier ones.  A base image's entry holds its attributes, its
packages' blob keys and its skeleton; its packages are entries of their
own, written before it.  Reading stops at the committed length the
snapshot names: bytes past it are a frame whose checkpoint never
completed, and the next append truncates them.

A checkpoint (:meth:`repro.repository.workspace.Workspace.checkpoint`)
appends the content stored since the last one as one frame, or, when
the file's dead bytes (entries no stored object needs any more) exceed
its live bytes, rewrites the live content as the next generation.  The
rule is a constant: a file is never more than twice its live content
plus what one checkpoint adds.

Crash windows, one per checkpoint step.  After the frame append or the
new generation's write, the old snapshot still names the old
generation and length: the bytes past the length, or the unnamed
generation, are never read, and the next checkpoint truncates or
replaces them.  After the snapshot replace, the new snapshot names
everything it needs, and the op-log, still continuing the old one, is
discarded as subsumed on the next open.  After the op-log reset the
checkpoint is complete; the next one removes any content file of
another generation a crash left behind.

Format v3 also makes the round-trip exact, as v2 did: master graphs
carry their membership ``revision`` and the repository its
``mutations`` counter, so derived-state caches persisted across
sessions can never falsely validate against a reloaded repository.

Restoring is one :meth:`~repro.repository.repo.Repository.restore`
call: one write-lock hold that fills the object maps, the blob store,
the metadata index, the masters and the records in the orders the
store/record primitives would insert them, with the blob keys and sizes
the snapshot names (none is re-derived), journals nothing, and counts
the liveness refcounts in one pass over the records.

Snapshots written in format v1 or v2 (every object by value, no content
file) still load, through :func:`restore_into`'s one legacy branch; the
workspace's next checkpoint writes them as v3.  A build that predates
v3 refuses a v3 snapshot ("unsupported snapshot version 3") before
changing any file.

Snapshot code reads repository state only through the repository's
public API (:meth:`~repro.repository.repo.Repository.stored_objects`,
:meth:`~repro.repository.repo.Repository.master_refs`,
:meth:`~repro.repository.repo.Repository.vmi_contribution`, ...), so it
cannot desynchronise from internal refactors.  Pickle is appropriate
because snapshots and content files are produced and consumed by the
same trusted application (never load them from untrusted sources).
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import zlib
from collections.abc import Iterable
from pathlib import Path
from typing import IO, Callable, TypeVar

from repro.errors import NotInRepositoryError
from repro.model.vmi import BaseImage, UserData
from repro.repository.master_graphs import master_from_refs, master_from_state
from repro.repository.repo import Repository

__all__ = [
    "ContentFile",
    "replace_atomically",
    "repository_content",
    "repository_state",
    "restore_into",
    "write_state",
]

T = TypeVar("T")

_FORMAT_VERSION = 3
#: versions the legacy branch of restore_into reads (v1: no revisions,
#: no mutation counter — restored masters start at revision 0)
_LEGACY_VERSIONS = (1, 2)
#: a content frame's header: payload length, CRC32 of the payload
_FRAME = struct.Struct("<II")


def repository_content(repo: Repository) -> dict[int, object]:
    """Every object a snapshot of ``repo`` names by blob key, in the
    order a content file writes them: each stored base's own packages
    and then the base, the stored packages, the user data."""
    packages, bases, data = repo.stored_objects()
    content: dict[int, object] = {}
    for key, _, base in bases:
        content.update(repo.own_packages(base))
        content[key] = base
    for key, pkg in packages:
        content.setdefault(key, pkg)
    for key, _, payload in data:
        content[key] = payload
    return content


def repository_state(repo: Repository) -> dict:
    """The repository's durable metadata (format v3) as a plain dict.

    Its blob keys name objects :func:`repository_content` holds.  The
    records reference live objects — serialise eagerly, as
    :func:`write_state` does.
    """
    packages, bases, data = repo.stored_objects()
    return {
        "version": _FORMAT_VERSION,
        "packages": [key for key, _ in packages],
        "bases": [(key, size) for key, size, _ in bases],
        "data": [(key, size) for key, size, _ in data],
        "masters": [repo.master_refs(m) for m in repo.master_graphs()],
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


def write_state(path: str | Path, state: dict) -> int:
    """Pickle ``state`` straight through :func:`replace_atomically`;
    returns the bytes written."""

    def write(file) -> int:
        pickle.dump(state, file, protocol=pickle.HIGHEST_PROTOCOL)
        return file.tell()

    return replace_atomically(path, write)


def restore_into(
    repo: Repository, state: dict, content: dict | None = None
) -> Repository:
    """Apply a snapshot state dict to an empty repository.

    A v3 state's blob keys read back through ``content`` (blob key →
    object, as :meth:`ContentFile.load` returns it).  A v1 or v2 state
    holds every object by value; this is the one legacy loader.  One
    :meth:`~repro.repository.repo.Repository.restore` call: one
    write-lock hold, nothing journaled.

    Raises:
        ValueError: not a snapshot state, an unknown snapshot format
            version, a blob key the content lacks, or a repository that
            is not empty.
        NotInRepositoryError: a master names a base the snapshot does
            not store.
    """
    version = state.get("version") if isinstance(state, dict) else None
    if version in _LEGACY_VERSIONS:
        # the legacy loader: keys and sizes derived from the objects,
        # each master's package graph adopted as it unpickled
        bases, user_data = (
            [(obj.blob_key(), None, obj) for obj in state[section]]
            for section in ("bases", "data")
        )
        packages = [(pkg.blob_key(), pkg) for pkg in state["packages"]]
        stored = {key: base for key, _, base in bases}
        masters = []
        for m in state["masters"]:
            if m["base_key"] not in stored:
                raise NotInRepositoryError("base image", m["base_key"])
            masters.append(master_from_state(stored[m["base_key"]], m))
    elif version == _FORMAT_VERSION:
        if content is None:
            raise ValueError("a v3 snapshot restores through its content")
        try:
            bases, user_data = (
                [(key, size, content[key]) for key, size in state[section]]
                for section in ("bases", "data")
            )
            packages = [(key, content[key]) for key in state["packages"]]
            masters = [
                master_from_refs(content[m.base_key], m, content.__getitem__)
                for m in state["masters"]
            ]
        except KeyError as exc:
            raise _missing(exc.args[0]) from None
    else:
        raise ValueError(f"unsupported snapshot version {version!r}")
    repo.restore(
        bases=bases,
        packages=packages,
        user_data=user_data,
        masters=masters,
        records=state["records"],
        dirty_bases=state.get("dirty_bases", ()),
        mutations=state.get("mutations"),
    )
    return repo


def _missing(key) -> ValueError:
    return ValueError(f"snapshot names blob {key!r}, which no content holds")


# ----------------------------------------------------------------------
# content entries
# ----------------------------------------------------------------------


def _entries(
    objects: Iterable[tuple[int, object]], written
) -> Iterable[tuple[int, object]]:
    """``(blob key, payload)`` entries for the objects whose key is not
    in ``written``: a base image as its attributes, its packages' keys
    and its skeleton (its packages precede it in ``objects``)."""
    for key, obj in objects:
        if key in written:
            continue
        if isinstance(obj, BaseImage):
            obj = (
                obj.attrs,
                tuple(pkg.blob_key() for pkg in obj.packages),
                obj.skeleton,
            )
        yield key, obj


def _decode(entries: Iterable[tuple[int, object]], objects: dict) -> dict:
    """Add each entry's object to ``objects`` (blob key → object) and
    return it.  The stored key fills the object's blob-key cache, so
    nothing re-derives it."""
    for key, payload in entries:
        if isinstance(payload, tuple):
            attrs, package_keys, skeleton = payload
            payload = BaseImage(
                attrs=attrs,
                packages=tuple(objects[k] for k in package_keys),
                skeleton=skeleton,
            )
        if not isinstance(payload, UserData):
            # Package and BaseImage keep their key in this cache slot
            payload.__dict__["_blob_key"] = key
        objects[key] = payload
    return objects


class ContentFile:
    """One generation of a workspace's append-only content file.

    Tracks the committed length (what the snapshot names) and the
    bytes of each entry it holds, by blob key, which the compaction
    rule weighs.  Nothing is written until :meth:`append` or
    :meth:`rewrite`, so loading a workspace changes no file.
    """

    def __init__(
        self, directory: str | Path, generation: int = 1, length: int = 0
    ) -> None:
        self.directory = Path(directory)
        self.generation = generation
        #: committed bytes: frames a snapshot names
        self.length = length
        #: blob key -> bytes of its entry, for every entry held
        self.sizes: dict[int, int] = {}

    @property
    def path(self) -> Path:
        return self.directory / f"content-{self.generation}.bin"

    @property
    def position(self) -> tuple[int, int]:
        """``(generation, committed length)``, as snapshots name it."""
        return self.generation, self.length

    @classmethod
    def load(
        cls, directory: str | Path, generation: int, length: int
    ) -> tuple["ContentFile", dict]:
        """Read the committed frames of one generation; returns the
        file and its objects by blob key.

        Raises:
            ValueError: the file is shorter than ``length``, or a frame
                fails its length or CRC check.
            FileNotFoundError: missing content file.
        """
        content = cls(directory, generation, length)
        if not length:
            return content, {}
        with open(content.path, "rb") as file:
            data = file.read(length)
        if len(data) < length:
            raise ValueError(
                f"content file {content.path} holds {len(data)} bytes, "
                f"the snapshot names {length}"
            )
        objects: dict = {}
        offset = 0
        while offset < length:
            end = offset + _FRAME.size
            payload = b""
            if end <= length:
                size, crc = _FRAME.unpack_from(data, offset)
                payload = data[end:end + size]
            if not payload or len(payload) != size or (
                zlib.crc32(payload) != crc
            ):
                raise ValueError(
                    f"content file {content.path}: damaged frame at "
                    f"byte {offset}"
                )
            content._read_frame(payload, objects)
            offset = end + size
        return content, objects

    def _read_frame(self, payload: bytes, objects: dict) -> None:
        buffer = io.BytesIO(payload)
        unpickler = pickle.Unpickler(buffer)
        sizes = self.sizes
        start = 0
        while start < len(payload):
            entry = unpickler.load()
            end = buffer.tell()
            sizes[entry[0]] = end - start
            _decode((entry,), objects)
            start = end

    def _frame(
        self, objects: Iterable[tuple[int, object]]
    ) -> tuple[bytes, dict[int, int]]:
        """One frame of entries for the objects not yet held (empty
        when there are none), and the bytes of each entry."""
        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        sizes: dict[int, int] = {}
        start = 0
        for entry in _entries(objects, self.sizes):
            pickler.dump(entry)
            end = buffer.tell()
            sizes[entry[0]] = end - start
            start = end
        if not start:
            return b"", sizes
        payload = buffer.getvalue()
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        return frame, sizes

    def append(self, objects: Iterable[tuple[int, object]]) -> int:
        """Append the objects not yet held as one frame, after dropping
        any bytes past the committed length; returns the bytes added.
        The new length is committed once a snapshot names it."""
        frame, sizes = self._frame(objects)
        if not frame:
            return 0
        mode = "r+b" if self.path.exists() else "wb"
        with open(self.path, mode) as file:
            file.seek(self.length)
            file.truncate()
            file.write(frame)
        self.length += len(frame)
        self.sizes.update(sizes)
        return len(frame)

    def needs_compaction(self, live) -> bool:
        """The compaction rule: the bytes of the entries whose key is
        not in ``live`` exceed those of the entries whose key is."""
        sizes = self.sizes
        live_bytes = sum(sizes[key] for key in live if key in sizes)
        return sum(sizes.values()) - live_bytes > live_bytes

    def rewrite(self, objects: Iterable[tuple[int, object]]) -> "ContentFile":
        """Write ``objects`` as the next generation, one frame; returns
        it.  This generation's file stays until
        :meth:`remove_other_generations`."""
        successor = ContentFile(self.directory, self.generation + 1)
        frame, successor.sizes = successor._frame(objects)
        with open(successor.path, "wb") as file:
            file.write(frame)
        successor.length = len(frame)
        return successor

    def remove_other_generations(self) -> None:
        """Delete every content file of another generation (compacted
        away, or left by a checkpoint that never completed)."""
        for path in self.directory.glob("content-*.bin"):
            if path != self.path:
                path.unlink()
