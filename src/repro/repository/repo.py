"""The repository facade Algorithms 1-3 program against.

Combines the blob store (payload bytes), the metadata index (the
tables the algorithms query by name) and the in-memory master graphs
and object caches.
All state-changing operations keep the three views consistent; time is
*not* charged here — the algorithms charge the cost model explicitly so
each figure can attribute durations to the operations the paper names.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import wraps

from repro.errors import NotInRepositoryError
from repro.guestos.filesystem import package_manifest
from repro.image.manifest import FileManifest
from repro.image.qcow2 import Qcow2Image
from repro.model.graph import SemanticGraph
from repro.model.package import Package
from repro.model.vmi import BaseImage, UserData
from repro.repository.blobstore import BlobKind, BlobStore
from repro.repository.database import (
    BaseImageRow,
    MetadataDatabase,
    PackageRow,
)
from repro.repository.locking import RepositoryLock
from repro.repository.master_graphs import (
    MasterGraph,
    MasterRefs,
    issue_revision,
    master_refs,
)
from repro.similarity.base import compatible_arch, same_release_version

__all__ = ["Repository", "VMIRecord", "base_image_qcow2"]


def _exclusive(method):
    """Run a state-changing primitive under the repository write lock.

    Primitives self-protect so interleaved threads can never tear the
    journal/mutation-counter pairing; the lock is reentrant, so a
    service holding the *operation-level* write lock (a whole publish
    or GC pass) pays only a depth increment per primitive.
    """

    @wraps(method)
    def wrapper(self, *args, **kwargs):
        with self.lock.write():
            return method(self, *args, **kwargs)

    return wrapper


def base_image_qcow2(base: BaseImage) -> Qcow2Image:
    """Serialise a base image as the qcow2 blob the repository stores."""
    manifests = [package_manifest(p) for p in base.packages]
    manifests.append(base.skeleton)
    return Qcow2Image(
        name=str(base.attrs), manifest=FileManifest.concat(manifests)
    )


@dataclass(frozen=True)
class VMIRecord:
    """What the repository remembers about one published VMI."""

    name: str
    base_key: int
    primary_names: tuple[str, ...]
    data_label: str | None
    #: original upload footprint (Table II bookkeeping)
    mounted_size: int
    n_files: int
    #: exact (name, version, arch) of each primary — disambiguates
    #: when several versions of a primary were published over time
    primary_identities: tuple[tuple[str, str, str], ...] = ()

    def primary_version(self, name: str) -> str | None:
        """The recorded version of one primary (None if unrecorded)."""
        for pname, version, _ in self.primary_identities:
            if pname == name:
                return version
        return None


class Repository:
    """Packages + base images + user data + master graphs + VMI index."""

    def __init__(self) -> None:
        #: the coarse transaction lock (DESIGN.md §12): primitives
        #: below take it for writes; services take it around whole
        #: operations (reentrancy makes the nesting free) and use
        #: ``lock.read()`` for shared read-only access
        self.lock = RepositoryLock()
        self.blobs = BlobStore()
        self.db = MetadataDatabase()
        self._packages: dict[int, Package] = {}
        self._bases: dict[int, BaseImage] = {}
        self._data: dict[str, UserData] = {}
        self._masters: dict[int, MasterGraph] = {}
        self._vmi_records: dict[str, VMIRecord] = {}
        #: memo for the graded release-equivalence test between two
        #: spellings (tiny domain: distinct release strings per distro)
        self._release_class: dict[tuple[str, str], bool] = {}
        #: master graphs indexed by the exact (T, D, V, A) quadruple
        self._masters_by_attrs: dict[
            tuple[str, str, str, str], list[int]
        ] = {}
        #: bumped on every state-changing operation; cheap freshness
        #: probe for caches derived from repository state (assembly
        #: plans revalidate only when this moved)
        self._mutations = 0
        #: reference counts per stored object (DESIGN.md §10):
        #: packages count live records whose retrieval-import closure
        #: contains the blob, bases and user data count live records
        #: pointing at them.  Maintained eagerly at publish/delete time
        #: so GC liveness never requires a full rescan.
        self._pkg_refs: dict[int, int] = {}
        self._data_refs: dict[str, int] = {}
        self._base_refs: dict[int, int] = {}
        #: zero-reference sweep candidates awaiting the next GC pass;
        #: always exactly the stored objects with refcount 0
        self._zero_packages: set[int] = set()
        self._zero_data: set[str] = set()
        self._zero_bases: set[int] = set()
        #: bases whose master graph and record contributions must be
        #: re-derived by the next GC pass (a deletion or base
        #: replacement touched them since the last pass)
        self._dirty_bases: set[int] = set()
        #: stored base key -> its own packages by blob key, built on
        #: first use (journal records name those packages by key)
        self._own: dict[int, dict[int, Package]] = {}
        #: write-ahead journal sink (the workspace op-log); every
        #: state-changing primitive appends its op *before* applying
        self._journal = None

    # ------------------------------------------------------------------
    # write-ahead journaling
    # ------------------------------------------------------------------

    @_exclusive
    def attach_journal(self, journal) -> None:
        """Journal every state-changing primitive to ``journal``.

        ``journal`` needs one method, ``append(op, args)``, and must
        serialise its arguments *eagerly* — some ops pass live mutable
        state that later operations mutate in place: the package graph
        a ``put_master_graph`` entry carries is the live master's, which
        later publishes grow (``add_master_member`` carries only the
        upload's own subgraph).  Ops are appended before the mutation
        is applied (write-ahead), so a journal that reached durable
        storage always describes at least the state the repository
        reached.

        The swap runs under the write lock, and every primitive both
        journals and applies under that same lock — so under parallel
        execution the op-log's append order *is* the application order
        and crash replay stays deterministic.
        """
        self._journal = journal

    @_exclusive
    def detach_journal(self) -> None:
        """Stop journaling (snapshot load / op-log replay run bare)."""
        self._journal = None

    # reprolint: unlocked — only called inside locked primitives; the
    # append order is the application order because both happen under
    # the same write-lock hold
    def _log(self, op: str, *args) -> None:
        if self._journal is not None:
            self._journal.append(op, args)

    # ------------------------------------------------------------------
    # revision hooks (cache invalidation)
    # ------------------------------------------------------------------

    @property
    def mutations(self) -> int:
        """Count of state-changing operations applied so far.

        Monotonic within a repository instance.  Equal counts guarantee
        identical state; unequal counts mean derived caches must
        revalidate against the content they depend on.
        """
        return self._mutations

    # reprolint: unlocked — only called inside locked primitives,
    # paired with their journal append under one write-lock hold
    def _mutated(self) -> None:
        self._mutations += 1

    @_exclusive
    def restore(
        self,
        *,
        bases,
        packages,
        user_data,
        masters,
        records,
        dirty_bases=(),
        mutations: int | None = None,
    ) -> None:
        """Fill this empty repository with snapshot content in one pass.

        Lands exactly the state the primitives would reach applying the
        same content one object at a time (``bases`` and ``user_data``
        as ``(blob key, size, object)`` triples, ``packages`` as
        ``(blob key, object)`` pairs, then ``masters``, master graphs
        over the restored bases, then ``records``, a list of
        ``(record, package keys)`` pairs): the same insertion orders in
        every map, the blob store and the metadata index, and the
        refcounts :meth:`record_vmi` would have counted, including the
        entries of keys a record names but nothing stores.  The keys
        and sizes are taken as given, not re-derived (a base or
        user-data size of None is derived; a package's size is its
        ``deb_size``).
        Nothing is journaled.  ``mutations`` restores the saved counter
        exactly; without it (snapshot format v1) the counter ends at
        the number of primitives the content stands for.

        Raises:
            ValueError: the repository is not empty, or ``mutations``
                is behind the primitive count of the content.
            NotInRepositoryError: a master names a base not restored.
            DuplicateEntryError: the content holds an object twice.
        """
        if self._mutations or len(self.blobs) or self._vmi_records:
            raise ValueError("restore needs an empty repository")
        applied = 0
        for key, size, base in bases:
            self._add_base_image(key, base, size)
            applied += 1
        for key, pkg in packages:
            self._add_package(key, pkg)
            applied += 1
        for key, size, data in user_data:
            self._add_user_data(data, key, size)
            applied += 1
        for master in masters:
            self.get_base_image(master.base_key)
            self._add_master(master)
            applied += 1
        base_refs, data_refs = self._base_refs, self._data_refs
        pkg_refs = self._pkg_refs
        for record, package_keys in records:
            self._vmi_records[record.name] = record
            self.db.insert_vmi(
                record.name, record.base_key, record.data_label, package_keys
            )
            base_refs[record.base_key] = base_refs.get(record.base_key, 0) + 1
            label = record.data_label
            if label is not None:
                data_refs[label] = data_refs.get(label, 0) + 1
            for key in set(package_keys):
                pkg_refs[key] = pkg_refs.get(key, 0) + 1
            applied += 1
        self._zero_bases = {k for k, n in base_refs.items() if n == 0}
        self._zero_data = {k for k, n in data_refs.items() if n == 0}
        self._zero_packages = {k for k, n in pkg_refs.items() if n == 0}
        self._dirty_bases.update(dirty_bases)
        if mutations is None:
            mutations = applied
        elif mutations < applied:
            raise ValueError(
                f"mutation counter may not move backwards "
                f"({applied} -> {mutations})"
            )
        self._mutations = mutations

    def find_master_graph(self, base_key: int) -> MasterGraph | None:
        """The master graph of a base, ``None`` when absent.

        The non-raising lookup retrieval plans revalidate through: a
        plan stays fresh while this master's revision is unchanged or
        its own dependency closure is (DESIGN.md §9).
        """
        return self._masters.get(base_key)

    # ------------------------------------------------------------------
    # liveness bookkeeping (refcounts + dirty bases)
    # ------------------------------------------------------------------

    def package_refs(self, key: int) -> int:
        """Live records whose import closure contains this package."""
        return self._pkg_refs.get(key, 0)

    def data_refs(self, label: str) -> int:
        """Live records labelled with this user data."""
        return self._data_refs.get(label, 0)

    def base_refs(self, key: int) -> int:
        """Live records published on this base."""
        return self._base_refs.get(key, 0)

    def refcounts(self) -> dict[str, dict]:
        """A snapshot of all three refcount maps (test/fsck probe)."""
        return {
            "packages": dict(self._pkg_refs),
            "data": dict(self._data_refs),
            "bases": dict(self._base_refs),
        }

    def dirty_bases(self) -> frozenset[int]:
        """Bases the next GC pass must re-derive."""
        return frozenset(self._dirty_bases)

    @_exclusive
    def mark_base_dirty(self, key: int) -> None:
        self._log("mark_base_dirty", key)
        self._dirty_bases.add(key)

    @_exclusive
    def clear_base_dirty(self, key: int) -> None:
        self._log("clear_base_dirty", key)
        self._dirty_bases.discard(key)

    def zero_ref_packages(self) -> frozenset[int]:
        """Stored package blobs no live record references."""
        return frozenset(self._zero_packages)

    def zero_ref_data(self) -> frozenset[str]:
        """Stored user-data labels no live record references."""
        return frozenset(self._zero_data)

    def zero_ref_bases(self) -> frozenset[int]:
        """Stored bases no live record is published on."""
        return frozenset(self._zero_bases)

    def reclaimable_bytes(self) -> int:
        """Bytes the next GC pass would free (exact, from refcounts)."""
        total = 0
        for key in self._zero_packages:
            total += self.blobs.get(key).size
        for label in self._zero_data:
            total += self.blobs.get(self._data[label].blob_key()).size
        for key in self._zero_bases:
            total += self.blobs.get(key).size
        return total

    def _incr(self, refs: dict, zero: set, key) -> None:
        refs[key] = refs.get(key, 0) + 1
        zero.discard(key)

    def _decr(self, refs: dict, zero: set, key) -> None:
        count = refs.get(key, 0) - 1
        if count < 0:  # pragma: no cover - guards bookkeeping bugs
            raise ValueError(f"refcount underflow for {key!r}")
        refs[key] = count
        if count == 0:
            zero.add(key)

    @_exclusive
    def rebuild_refcounts(self) -> None:
        """Recompute every refcount from the records and join rows.

        The full GC pass's verification anchor: incremental maintenance
        must always leave the counters in exactly the state this
        recomputation produces (the fsck ``refcount-drift`` check and
        the differential property suite compare the two).
        """
        self._pkg_refs = {
            row.blob_key: 0 for row in self.db.all_packages()
        }
        self._data_refs = {label: 0 for label in self._data}
        self._base_refs = {
            row.blob_key: 0 for row in self.db.base_images()
        }
        join_rows = self.db.all_vmi_package_keys()
        for record in self.vmi_records():
            if record.base_key in self._base_refs:
                self._base_refs[record.base_key] += 1
            if record.data_label in self._data_refs:
                self._data_refs[record.data_label] += 1
            for key in set(join_rows.get(record.name, ())):
                if key in self._pkg_refs:
                    self._pkg_refs[key] += 1
        self._zero_packages = {
            k for k, n in self._pkg_refs.items() if n == 0
        }
        self._zero_data = {
            label for label, n in self._data_refs.items() if n == 0
        }
        self._zero_bases = {
            k for k, n in self._base_refs.items() if n == 0
        }

    @_exclusive
    def reassign_vmi_packages(
        self, name: str, package_keys: list[int]
    ) -> bool:
        """Replace a record's package contribution (GC re-derivation).

        Adjusts the package refcounts by the set difference and rewrites
        the join rows; returns True when the contribution changed.
        """
        old = set(self.db.vmi_package_keys(name))
        new = set(package_keys)
        if old == new:
            return False
        self._log("reassign_vmi_packages", name, sorted(new))
        self._mutated()
        for key in old - new:
            self._decr(self._pkg_refs, self._zero_packages, key)
        for key in new - old:
            self._incr(self._pkg_refs, self._zero_packages, key)
        self.db.replace_vmi_packages(name, sorted(new))
        return True

    # ------------------------------------------------------------------
    # packages
    # ------------------------------------------------------------------

    def has_package(self, pkg: Package) -> bool:
        """Does this exact (name, version, arch) package exist?"""
        return self.blobs.contains(pkg.blob_key())

    @_exclusive
    def store_package(self, pkg: Package) -> bool:
        """Store a packaged ``.deb``; False when already present."""
        key = pkg.blob_key()
        if self.blobs.contains(key):
            return False
        self._log("store_package", pkg)
        self._mutated()
        self._add_package(key, pkg)
        return True

    # reprolint: unlocked — only called inside locked primitives
    def _add_package(self, key: int, pkg: Package) -> None:
        """Put a package into the blob store, the object map and the
        index, at refcount 0 unless records already count it."""
        self.blobs.put(key, BlobKind.PACKAGE, pkg.deb_size, str(pkg))
        self._packages[key] = pkg
        self._pkg_refs.setdefault(key, 0)
        if self._pkg_refs[key] == 0:
            self._zero_packages.add(key)
        self.db.insert_package(
            PackageRow(
                blob_key=key,
                name=pkg.name,
                version=str(pkg.version),
                arch=pkg.arch,
                deb_size=pkg.deb_size,
                installed_size=pkg.installed_size,
            )
        )

    def get_package(self, key: int) -> Package:
        """Fetch a stored package object.

        Raises:
            NotInRepositoryError: unknown key.
        """
        try:
            return self._packages[key]
        except KeyError:
            raise NotInRepositoryError("package", key) from None

    def find_package(self, key: int) -> Package | None:
        """The stored package object with blob key ``key``, else None."""
        return self._packages.get(key)

    def packages_named(self, name: str) -> list[Package]:
        return [
            self._packages[row.blob_key]
            for row in self.db.packages_named(name)
        ]

    def packages(self) -> list[Package]:
        """All stored packages, in signed 64-bit blob-key order (the
        metadata index's order; snapshot bytes depend on it).

        The public iteration surface snapshot code uses — persistence
        must never reach into the object caches directly, or it
        silently desynchronises from internal refactors.
        """
        return [
            self._packages[row.blob_key]
            for row in self.db.all_packages()
        ]

    # ------------------------------------------------------------------
    # user data
    # ------------------------------------------------------------------

    @_exclusive
    def store_user_data(self, data: UserData) -> bool:
        """Store a user-data payload; False when already present."""
        if self.blobs.contains(data.blob_key()):
            return False
        self._log("store_user_data", data)
        self._mutated()
        self._add_user_data(data)
        return True

    # reprolint: unlocked — only called inside locked primitives
    def _add_user_data(
        self, data: UserData, key: int | None = None, size: int | None = None
    ) -> None:
        """Put a user-data payload into the blob store and the object
        map, at refcount 0 unless records already count it."""
        if key is None:
            key = data.blob_key()
        if size is None:
            size = data.size
        self.blobs.put(key, BlobKind.USER_DATA, size, data.label)
        self._data[data.label] = data
        self._data_refs.setdefault(data.label, 0)
        if self._data_refs[data.label] == 0:
            self._zero_data.add(data.label)

    def has_user_data(self, label: str) -> bool:
        """Is a user-data payload stored under ``label``?  The public
        probe fsck and services use — reaching into the object cache
        is an RL003 violation."""
        return label in self._data

    def get_user_data(self, label: str) -> UserData:
        """Raises NotInRepositoryError for unknown labels."""
        try:
            return self._data[label]
        except KeyError:
            raise NotInRepositoryError("user data", label) from None

    def user_data_labels(self) -> list[str]:
        return sorted(self._data)

    def stored_user_data(self) -> list[UserData]:
        """All stored user-data payloads, label order."""
        return [self._data[label] for label in self.user_data_labels()]

    def stored_objects(self) -> tuple[list, list, list]:
        """Every stored package as a ``(blob key, object)`` pair, and
        every base image and user-data payload as a ``(blob key, size,
        object)`` triple: packages in :meth:`packages` order, bases in
        :meth:`base_images` order and user data in label order
        (snapshot bytes depend on them).  A package's size is its
        ``deb_size``."""
        blobs = self.blobs
        packages = [
            (row.blob_key, self._packages[row.blob_key])
            for row in self.db.all_packages()
        ]
        bases = [
            (row.blob_key, row.size, self._bases[row.blob_key])
            for row in self.db.base_images()
        ]
        data_blobs = {
            blob.label: blob for blob in blobs.records(BlobKind.USER_DATA)
        }
        data = []
        for label in self.user_data_labels():
            blob = data_blobs[label]
            data.append((blob.key, blob.size, self._data[label]))
        return packages, bases, data

    # ------------------------------------------------------------------
    # base images
    # ------------------------------------------------------------------

    @_exclusive
    def store_base_image(self, base: BaseImage) -> bool:
        """Store a base image qcow2; False when already present."""
        key = base.blob_key()
        if self.blobs.contains(key):
            return False
        self._log("store_base_image", base)
        self._mutated()
        self._add_base_image(key, base)
        return True

    # reprolint: unlocked — only called inside locked primitives
    def _add_base_image(
        self, key: int, base: BaseImage, size: int | None = None
    ) -> None:
        """Put a base image into the blob store (as its qcow2), the
        object map and the index, at refcount 0 unless records already
        count it."""
        if size is None:
            size = base_image_qcow2(base).size
        self.blobs.put(key, BlobKind.BASE_IMAGE, size, str(base.attrs))
        self._bases[key] = base
        self._base_refs.setdefault(key, 0)
        if self._base_refs[key] == 0:
            self._zero_bases.add(key)
        self.db.insert_base_image(
            BaseImageRow(
                blob_key=key,
                os_type=base.attrs.os_type,
                distro=base.attrs.distro,
                version=base.attrs.version,
                arch=base.attrs.arch,
                size=size,
                n_packages=len(base.packages),
            )
        )

    @_exclusive
    def remove_base_image(self, key: int) -> BaseImage:
        """Delete an obsolete base (Algorithm 1 line 27) and its master.

        Raises:
            NotInRepositoryError: unknown key.
        """
        if key not in self._bases:
            raise NotInRepositoryError("base image", key)
        self._log("remove_base_image", key)
        base = self._bases.pop(key)
        self._mutated()
        self.blobs.remove(key)
        self.db.delete_base_image(key)
        self._base_refs.pop(key, None)
        self._zero_bases.discard(key)
        self._dirty_bases.discard(key)
        self._own.pop(key, None)
        if self._masters.pop(key, None) is not None:
            siblings = self._masters_by_attrs.get(base.attrs.key(), [])
            if key in siblings:
                siblings.remove(key)
        return base

    def get_base_image(self, key: int) -> BaseImage:
        """Raises NotInRepositoryError for unknown keys."""
        try:
            return self._bases[key]
        except KeyError:
            raise NotInRepositoryError("base image", key) from None

    def base_images(self) -> list[BaseImage]:
        """All stored bases (Algorithm 2 line 3), in signed 64-bit
        blob-key order — the metadata index's order, not insertion
        order."""
        return [self._bases[row.blob_key] for row in self.db.base_images()]

    def base_images_matching(self, attrs) -> list[BaseImage]:
        """Stored bases with ``simBI(attrs, stored) = 1``, via the index.

        Exactly the bases a full scan of :meth:`base_images` filtered by
        :func:`~repro.similarity.base.same_base_attrs` would yield, in
        the same signed blob-key order — but the metadata index serves
        only the rows sharing ``(os_type, distro)`` (its family index),
        already in that order, and only the graded factors
        (portable arch, release-equivalence classes, memoised per
        spelling pair) are checked per row.  Per-query work scales with
        the matching family, not with the repository.
        """
        matching: list[BaseImage] = []
        for row in self.db.base_images_with_attrs(
            attrs.os_type, attrs.distro
        ):
            # same factor order as the scan's same_base_attrs: arch
            # before release, so unparseable releases behave identically
            if not compatible_arch(attrs.arch, row.arch):
                continue
            if not self._same_release(row.version, attrs.version):
                continue
            matching.append(self._bases[row.blob_key])
        return matching

    def stores_family(self, os_type: str, distro: str) -> bool:
        """Is a base of the ``(os_type, distro)`` family stored?  One
        family-index probe."""
        return bool(self.db.base_images_with_attrs(os_type, distro))

    # reprolint: unlocked — benign-race memo of a pure function: two
    # racing writers store the same value, and dict item assignment is
    # atomic under the GIL
    def _same_release(self, stored: str, query: str) -> bool:
        if stored == query:
            return True
        memo_key = (stored, query)
        hit = self._release_class.get(memo_key)
        if hit is None:
            hit = same_release_version(stored, query)
            self._release_class[memo_key] = hit
        return hit

    def base_image_size(self, key: int) -> int:
        """On-disk qcow2 bytes of a stored base."""
        return self.blobs.get(key).size

    # ------------------------------------------------------------------
    # master graphs
    # ------------------------------------------------------------------

    def get_master_graph(self, base_key: int) -> MasterGraph:
        """Raises NotInRepositoryError when the base has no master."""
        try:
            return self._masters[base_key]
        except KeyError:
            raise NotInRepositoryError("master graph", base_key) from None

    def has_master_graph(self, base_key: int) -> bool:
        return base_key in self._masters

    @_exclusive
    def put_master_graph(self, master: MasterGraph) -> None:
        # the journal entry is the master's *content* by reference: the
        # base and the stored packages are journaled by their own store
        # ops, so the entry carries exactly what a reload cannot
        # re-derive
        if self._journal is not None:
            self._log("put_master_graph", self.master_refs(master))
        self._mutated()
        self._add_master(master)

    # reprolint: unlocked — only called inside locked primitives
    def _add_master(self, master: MasterGraph) -> None:
        siblings = self._masters_by_attrs.setdefault(
            master.attrs.key(), []
        )
        if master.base_key not in siblings:
            siblings.append(master.base_key)
        self._masters[master.base_key] = master

    @_exclusive
    def add_master_member(
        self,
        base_key: int,
        subgraph: SemanticGraph,
        vmi_name: str,
        revision: int | None = None,
    ) -> None:
        """Merge one upload's primary subgraph into a stored master.

        Algorithm 1 line 21 as a journaled primitive: the entry carries
        the upload's subgraph, its name and the master's resulting
        revision, so its size follows the upload, not the master.
        Replay passes the journaled ``revision`` back and so restores
        the exact ``(base_key, revision)`` pair.

        Raises:
            NotInRepositoryError: the base has no master.
            GraphModelError: the subgraph is incompatible with the base
                (checked before anything is journaled).
        """
        master = self.get_master_graph(base_key)
        master.require_compatible(subgraph)
        if revision is None:
            revision = issue_revision()
        if self._journal is not None:
            self._log(
                "add_master_member",
                base_key,
                subgraph.to_refs(self._package_ref(master.base)),
                vmi_name,
                revision,
            )
        self._mutated()
        master.add_compatible_subgraph(subgraph, vmi_name, revision=revision)

    def master_graphs(self) -> list[MasterGraph]:
        return list(self._masters.values())

    def master_refs(self, master: MasterGraph) -> MasterRefs:
        """``master`` by reference: each vertex payload as its blob key
        when the package store or the master's base holds it, else as
        itself — what a journal record or a snapshot can name, since a
        checkpoint writes every stored package and every stored base's
        own packages to the content file."""
        return master_refs(master, self._package_ref(master.base))

    # reprolint: unlocked — benign-race memo of an immutable base's
    # packages: two racing writers store equal maps
    def own_packages(self, base: BaseImage) -> dict[int, Package]:
        """A base image's own packages by blob key (memoised per stored
        base; treat as read-only)."""
        key = base.blob_key()
        own = self._own.get(key)
        if own is None:
            own = {pkg.blob_key(): pkg for pkg in base.packages}
            self._own[key] = own
        return own

    def _package_ref(self, base: BaseImage) -> Callable[[Package], object]:
        """A payload's journal form in a master over ``base``: its blob
        key when the package store or the base holds it, else itself."""
        stored, own = self._packages, self.own_packages(base)

        def ref(pkg: Package) -> object:
            key = pkg.blob_key()
            return key if key in stored or key in own else pkg

        return ref

    def package_resolver(self, base_key: int) -> Callable[[int], Package]:
        """How a journal record's blob keys in a master over the stored
        base ``base_key`` read back: the stored package, else the
        base's own.

        Raises:
            NotInRepositoryError: unknown base key.
        """
        stored = self._packages
        own = self.own_packages(self.get_base_image(base_key))

        def resolve(key: int) -> Package:
            pkg = stored.get(key)
            return own[key] if pkg is None else pkg

        return resolve

    def masters_with_attrs(self, attrs) -> list[MasterGraph]:
        """Masters whose base shares the (T, D, V, A) quadruple.

        Indexed by the exact quadruple, so the semantic analyzer's
        per-upload lookup is independent of how many master graphs other
        families carry.  ``_masters`` stays the source of truth: index
        entries whose master has vanished (lost in-memory state) are
        skipped.
        """
        return [
            self._masters[key]
            for key in self._masters_by_attrs.get(attrs.key(), ())
            if key in self._masters
        ]

    # ------------------------------------------------------------------
    # VMI records
    # ------------------------------------------------------------------

    @_exclusive
    def record_vmi(self, record: VMIRecord, package_keys: list[int]) -> None:
        """Index a published VMI; ``package_keys`` is its retrieval
        import closure (stored blobs Algorithm 3 would install), the
        contribution the liveness refcounts track."""
        self._log("record_vmi", record, list(package_keys))
        self._mutated()
        self._vmi_records[record.name] = record
        self.db.insert_vmi(
            record.name, record.base_key, record.data_label, package_keys
        )
        self._incr(self._base_refs, self._zero_bases, record.base_key)
        if record.data_label is not None:
            self._incr(self._data_refs, self._zero_data, record.data_label)
        for key in set(package_keys):
            self._incr(self._pkg_refs, self._zero_packages, key)

    def get_vmi_record(self, name: str) -> VMIRecord:
        """Raises NotInRepositoryError for unpublished names."""
        try:
            return self._vmi_records[name]
        except KeyError:
            raise NotInRepositoryError("VMI", name) from None

    def has_vmi(self, name: str) -> bool:
        """Is ``name`` a published VMI?  O(1) against the live index —
        the publish-path duplicate check must not read the whole VMI
        table per upload."""
        return name in self._vmi_records

    def vmi_count(self) -> int:
        """Number of published VMIs (O(1), the live index)."""
        return len(self._vmi_records)

    def vmi_records(self) -> list[VMIRecord]:
        return [self._vmi_records[r.name] for r in self.db.vmis()]

    def vmi_contribution(self, name: str) -> list[int]:
        """The stored blob keys a record's retrieval imports (its
        liveness contribution — the join rows ``record_vmi`` wrote)."""
        return self.db.vmi_package_keys(name)

    def vmi_records_for_base(self, base_key: int) -> list[VMIRecord]:
        """Live records on one base, record order (indexed lookup)."""
        return [
            self._vmi_records[row.name]
            for row in self.db.vmis_for_base(base_key)
        ]

    @_exclusive
    def delete_vmi_record(self, name: str) -> VMIRecord:
        """Drop a published VMI from the index (blobs stay until GC).

        Decrements the refcounts of everything the record referenced
        and marks its base dirty, so the next incremental GC pass knows
        exactly what to sweep and which master graph to rebuild.

        Raises:
            NotInRepositoryError: unpublished name.
        """
        record = self.get_vmi_record(name)
        contribution = self.db.vmi_package_keys(name)
        self._log("delete_vmi_record", name)
        self._mutated()
        self.db.delete_vmi(name)
        del self._vmi_records[name]
        self._decr(self._base_refs, self._zero_bases, record.base_key)
        if record.data_label is not None:
            self._decr(self._data_refs, self._zero_data, record.data_label)
        for key in set(contribution):
            self._decr(self._pkg_refs, self._zero_packages, key)
        self._dirty_bases.add(record.base_key)
        return record

    @_exclusive
    def remove_package(self, key: int) -> Package:
        """Delete a stored package blob (garbage collection only).

        Raises:
            NotInRepositoryError: unknown key.
        """
        if key not in self._packages:
            raise NotInRepositoryError("package", key)
        self._log("remove_package", key)
        pkg = self._packages.pop(key)
        self._mutated()
        self.blobs.remove(key)
        self.db.delete_package(key)
        self._pkg_refs.pop(key, None)
        self._zero_packages.discard(key)
        return pkg

    @_exclusive
    def remove_user_data(self, label: str) -> UserData:
        """Delete a stored user-data blob (garbage collection only).

        Raises:
            NotInRepositoryError: unknown label.
        """
        if label not in self._data:
            raise NotInRepositoryError("user data", label)
        self._log("remove_user_data", label)
        data = self._data.pop(label)
        self._mutated()
        self.blobs.remove(data.blob_key())
        self._data_refs.pop(label, None)
        self._zero_data.discard(label)
        return data

    @_exclusive
    def repoint_vmis(self, old_base_key: int, new_base_key: int) -> int:
        """Re-point published VMIs after a base replacement; returns count."""
        records = self.vmi_records_for_base(old_base_key)
        if records:
            self._log("repoint_vmis", old_base_key, new_base_key)
        n = 0
        for rec in records:
            updated = VMIRecord(
                name=rec.name,
                base_key=new_base_key,
                primary_names=rec.primary_names,
                data_label=rec.data_label,
                mounted_size=rec.mounted_size,
                n_files=rec.n_files,
                primary_identities=rec.primary_identities,
            )
            self._mutated()
            self._vmi_records[rec.name] = updated
            self.db.update_vmi_base(rec.name, new_base_key)
            self._decr(self._base_refs, self._zero_bases, old_base_key)
            self._incr(self._base_refs, self._zero_bases, new_base_key)
            n += 1
        if n:
            # migrated records' contributions were derived against the
            # old base's package population; the next GC pass must
            # re-derive them against the new base
            self._dirty_bases.add(new_base_key)
        return n

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def total_bytes(self) -> int:
        """Repository size — what Figure 3 plots for Expelliarmus."""
        return self.blobs.total_bytes()

    def bytes_by_kind(self) -> dict[str, int]:
        return {
            kind.value: self.blobs.total_bytes(kind) for kind in BlobKind
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Repository vmis={len(self._vmi_records)} "
            f"bases={len(self._bases)} packages={len(self._packages)} "
            f"bytes={self.total_bytes()}>"
        )
