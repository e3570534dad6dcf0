"""The metadata index: base images, VMIs, packages and their join rows.

The paper keeps VMI metadata in SQLite on disk (Section VI-A), in the
tables of Figure 2's "VMI DATABASE" boxes — base images, VMIs and
software packages — plus the join rows mapping a published VMI to the
stored packages its retrieval imports.  Here those tables are plain
dict indexes in memory: nothing recovers from them, because a
workspace's snapshot and write-ahead op-log are the durable state and
replaying them rebuilds the index (DESIGN.md §5, §11).  The semantic
graphs themselves live in :class:`~repro.model.graph.SemanticGraph`.

Result orders are part of the contract, because Algorithm 2's
candidate order, GC's base basis and the snapshot bytes read them.
They are the orders the SQLite schema produced:

* bases and packages come back in *signed* 64-bit blob-key order (the
  key was SQLite's rowid, so keys ``>= 2**63`` sort first);
* a VMI's package keys are de-duplicated, in signed-key order;
* VMIs come back in publish sequence order;
* :meth:`MetadataDatabase.all_vmi_package_keys` groups by the first
  join row still stored, and a VMI's keys keep their insertion order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from repro.errors import DuplicateEntryError, NotInRepositoryError

__all__ = ["MetadataDatabase", "PackageRow", "VMIRow", "BaseImageRow"]

#: the first uint64 key that is negative as a signed 64-bit integer
_SIGN_BIT = 1 << 63


@dataclass(frozen=True)
class BaseImageRow:
    blob_key: int
    os_type: str
    distro: str
    version: str
    arch: str
    size: int
    n_packages: int


@dataclass(frozen=True)
class PackageRow:
    blob_key: int
    name: str
    version: str
    arch: str
    deb_size: int
    installed_size: int


@dataclass(frozen=True)
class VMIRow:
    name: str
    base_key: int
    data_label: str | None
    seq: int


def _signed_order(keys) -> list[int]:
    """uint64 keys in signed 64-bit order: the keys ``>= 2**63``
    (negative when signed) first, each half ascending."""
    ordered = sorted(keys)
    split = bisect_left(ordered, _SIGN_BIT)
    return ordered[split:] + ordered[:split]


class MetadataDatabase:
    """Typed metadata tables over dict indexes.

    Not synchronized: callers hold the repository lock, writes under
    ``lock.write()`` and reads under ``lock.read()`` (or the write
    lock).  Concurrent readers are safe because no query mutates
    anything; a query racing a write is not.
    """

    def __init__(self) -> None:
        self._bases: dict[int, BaseImageRow] = {}
        #: (os_type, distro) -> {blob key: row}
        self._families: dict[tuple[str, str], dict[int, BaseImageRow]] = {}
        self._packages: dict[int, PackageRow] = {}
        #: package name -> {blob key: row}
        self._packages_by_name: dict[str, dict[int, PackageRow]] = {}
        #: name -> row, in seq order (an update keeps its place)
        self._vmis: dict[str, VMIRow] = {}
        #: base key -> {seq: VMI name}
        self._vmis_by_base: dict[int, dict[int, str]] = {}
        #: VMI name -> its package keys as an ordered set; groups in
        #: the order of their first stored join row
        self._joins: dict[str, dict[int, None]] = {}
        self._seq = 0

    # ------------------------------------------------------------------
    # base images
    # ------------------------------------------------------------------

    def insert_base_image(self, row: BaseImageRow) -> None:
        if row.blob_key in self._bases:
            raise DuplicateEntryError(
                f"base image {row.blob_key:#x} already indexed"
            )
        self._bases[row.blob_key] = row
        self._families.setdefault((row.os_type, row.distro), {})[
            row.blob_key
        ] = row

    def delete_base_image(self, blob_key: int) -> None:
        row = self._bases.pop(blob_key, None)
        if row is None:
            raise NotInRepositoryError("base image", blob_key)
        family_key = (row.os_type, row.distro)
        family = self._families[family_key]
        del family[blob_key]
        if not family:
            del self._families[family_key]

    def base_images(self) -> list[BaseImageRow]:
        bases = self._bases
        return [bases[key] for key in _signed_order(bases)]

    def base_images_with_attrs(
        self,
        os_type: str,
        distro: str,
        version: str | None = None,
        arch: str | None = None,
    ) -> list[BaseImageRow]:
        """Stored bases matching an attribute quadruple prefix, exactly.

        Served by the ``(os_type, distro)`` family index, so candidate
        generation touches only the family's rows instead of every
        base.  ``version`` / ``arch`` narrow the prefix when given.
        Matching here is exact string equality; the graded
        ``simBI = 1`` classes (portable ``"all"`` arch, equivalent
        release spellings) are the repository facade's concern.
        """
        family = self._families.get((os_type, distro))
        if not family:
            return []
        rows = [family[key] for key in _signed_order(family)]
        if version is not None:
            rows = [row for row in rows if row.version == version]
        if arch is not None:
            rows = [row for row in rows if row.arch == arch]
        return rows

    def base_image_count(self) -> int:
        return len(self._bases)

    # ------------------------------------------------------------------
    # packages
    # ------------------------------------------------------------------

    def insert_package(self, row: PackageRow) -> None:
        if row.blob_key in self._packages:
            raise DuplicateEntryError(
                f"package {row.name} {row.version} already indexed"
            )
        self._packages[row.blob_key] = row
        self._packages_by_name.setdefault(row.name, {})[row.blob_key] = row

    def has_package(self, blob_key: int) -> bool:
        return blob_key in self._packages

    def packages_named(self, name: str) -> list[PackageRow]:
        named = self._packages_by_name.get(name)
        if not named:
            return []
        return [named[key] for key in _signed_order(named)]

    def all_packages(self) -> list[PackageRow]:
        packages = self._packages
        return [packages[key] for key in _signed_order(packages)]

    def package_count(self) -> int:
        return len(self._packages)

    def delete_package(self, blob_key: int) -> None:
        row = self._packages.pop(blob_key, None)
        if row is None:
            raise NotInRepositoryError("package", blob_key)
        named = self._packages_by_name[row.name]
        del named[blob_key]
        if not named:
            del self._packages_by_name[row.name]

    # ------------------------------------------------------------------
    # VMIs
    # ------------------------------------------------------------------

    def insert_vmi(
        self, name: str, base_key: int, data_label: str | None,
        package_keys: list[int],
    ) -> VMIRow:
        # a rejected duplicate still uses up its sequence number
        self._seq += 1
        if name in self._vmis:
            raise DuplicateEntryError(f"VMI {name!r} already published")
        row = VMIRow(name, base_key, data_label, self._seq)
        self._vmis[name] = row
        self._vmis_by_base.setdefault(base_key, {})[row.seq] = name
        if package_keys:
            # a key already joined keeps its first place
            self._joins.setdefault(name, {}).update(
                dict.fromkeys(package_keys)
            )
        return row

    def update_vmi_base(self, name: str, base_key: int) -> None:
        """Re-point a VMI at a replacement base image (Algorithm 2)."""
        row = self._vmis.get(name)
        if row is None:
            raise NotInRepositoryError("VMI", name)
        self._unindex_base(row)
        self._vmis[name] = VMIRow(name, base_key, row.data_label, row.seq)
        self._vmis_by_base.setdefault(base_key, {})[row.seq] = name

    def get_vmi(self, name: str) -> VMIRow:
        try:
            return self._vmis[name]
        except KeyError:
            raise NotInRepositoryError("VMI", name) from None

    def vmis(self) -> list[VMIRow]:
        return list(self._vmis.values())

    def vmis_for_base(self, base_key: int) -> list[VMIRow]:
        """Published VMIs on one base, seq order (the per-base index).

        The incremental GC's per-base record lookup: work scales with
        the base's own family, not with the repository.
        """
        group = self._vmis_by_base.get(base_key)
        if not group:
            return []
        return [self._vmis[group[seq]] for seq in sorted(group)]

    def delete_vmi(self, name: str) -> None:
        row = self._vmis.pop(name, None)
        if row is None:
            raise NotInRepositoryError("VMI", name)
        self._unindex_base(row)
        self._joins.pop(name, None)

    def _unindex_base(self, row: VMIRow) -> None:
        group = self._vmis_by_base[row.base_key]
        del group[row.seq]
        if not group:
            del self._vmis_by_base[row.base_key]

    def vmi_package_keys(self, name: str) -> list[int]:
        return _signed_order(self._joins.get(name, ()))

    def all_vmi_package_keys(self) -> dict[str, list[int]]:
        """Every VMI's join rows in one call (refcount rebuilds).

        The full-GC verification anchor and fsck call this over the
        whole store.  A VMI with no join rows has no entry.
        """
        return {name: list(keys) for name, keys in self._joins.items()}

    def replace_vmi_packages(self, name: str, package_keys: list[int]) -> None:
        """Overwrite a VMI's package join rows (GC re-derivation)."""
        self._joins.pop(name, None)
        if package_keys:
            self._joins[name] = dict.fromkeys(package_keys)
