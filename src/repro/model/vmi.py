"""The virtual machine image ``I = (BI, PS, DS, Data)`` (Section III-A).

A :class:`VirtualMachineImage` is the *working object* the algorithms
manipulate: Algorithm 1 removes primary packages, unused dependencies and
user data from it until only the base image remains; Algorithm 3 builds
one up from a stored base image plus packages.

State model
-----------

* every installed package is an immutable :class:`InstalledPackage`
  row holding the :class:`~repro.model.package.Package` plus its role
  (primary / dependency / base member) and the dpkg-style *auto* mark
  used by ``remove_unused_dependencies`` (apt's autoremove); a role
  change replaces the row, so clones share rows;
* every byte on the guest filesystem belongs to an *owner*: a package,
  the base-OS skeleton, or user data.  Owners map to
  :class:`~repro.image.manifest.FileManifest` objects, so mounted size
  and file counts are always exact.  Both, and the manifest digest, are
  computed on first read and dropped by every change to the owner map;
  :meth:`VirtualMachineImage.clone` shares them with the copy until
  either side changes its files.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.errors import PackageStateError
from repro.ids import combine
from repro.image.manifest import FileManifest, ordered_digest
from repro.model.attributes import BaseImageAttrs
from repro.model.graph import PackageRole, SemanticGraph
from repro.model.package import Package

__all__ = ["BaseImage", "InstalledPackage", "UserData", "VirtualMachineImage"]

_SKELETON_OWNER = "skeleton"
_USERDATA_OWNER = "userdata"
_RESIDUE_OWNER = "residue"


@lru_cache(maxsize=4096)
def _pkg_owner(name: str) -> str:
    # one key string per package name, shared by every image's owner
    # map (a cached plan's templates hold one map each)
    return f"pkg:{name}"


@dataclass(frozen=True)
class BaseImage:
    """A standalone guest OS: attributes, OS packages, skeleton files.

    The *skeleton* manifest covers files no package owns (``/etc``
    configuration written by the installer, empty mount points, boot
    loader payload...).
    """

    attrs: BaseImageAttrs
    packages: tuple[Package, ...]
    skeleton: FileManifest

    def blob_key(self) -> int:
        """Content identity of this base image for the blob store.

        Two bases are the same stored object iff they have the same
        attribute quadruple *and* the same package population.
        Computed once per instance — Algorithm 2 keys its candidate
        caches by this value on every publish.
        """
        cached: int | None = self.__dict__.get("_blob_key")
        if cached is None:
            pkgs = ",".join(sorted(str(p) for p in self.packages))
            cached = combine("base", self.attrs.key(), pkgs)
            object.__setattr__(self, "_blob_key", cached)
        return cached

    def package_names(self) -> frozenset[str]:
        return frozenset(p.name for p in self.packages)

    def find_package(self, name: str) -> Package | None:
        for p in self.packages:
            if p.name == name:
                return p
        return None

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"BaseImage({self.attrs}, {len(self.packages)} packages)"


@dataclass(frozen=True)
class UserData:
    """Opaque user payload (``Data`` of Section III-A).

    Not recognised by the guest package manager — home directories,
    logs, build artifacts.  Identified for storage purposes by a label.
    """

    label: str
    manifest: FileManifest

    def blob_key(self) -> int:
        return combine("data", self.label)

    @property
    def size(self) -> int:
        return self.manifest.total_size


class _Footprint:
    """Lazily computed facts of one owner → manifest map.

    Shared by an image and its clones while none of them changes its
    files; a change gives the changed image a fresh one, so filling a
    shared footprint is always filling it with the same values.
    """

    __slots__ = ("mounted_size", "n_files", "digest")

    def __init__(self) -> None:
        self.mounted_size: int | None = None
        self.n_files: int | None = None
        self.digest: str | None = None


@dataclass(frozen=True, slots=True)
class InstalledPackage:
    """One row of the guest's installed-package database.

    Immutable, so an image and its clones share their rows: a role
    change replaces the changed image's row and never shows on
    another.  Slotted: a cached plan's template holds one row per
    installed package.
    """

    package: Package
    role: PackageRole
    auto: bool = False

    @property
    def name(self) -> str:
        return self.package.name


class VirtualMachineImage:
    """A mutable VMI: base image + installed packages + user data."""

    def __init__(
        self,
        name: str,
        base: BaseImage,
        user_data: UserData | None = None,
    ) -> None:
        self.name = name
        self.base = base
        self._installed: dict[str, InstalledPackage] = {}
        self._manifests: dict[str, FileManifest] = {}
        self._footprint: _Footprint | None = None
        self._manifests[_SKELETON_OWNER] = base.skeleton
        for pkg in base.packages:
            self._register(pkg, PackageRole.BASE_MEMBER, auto=False)
        self.user_data: UserData | None = None
        if user_data is not None:
            self.attach_user_data(user_data)

    # ------------------------------------------------------------------
    # package state
    # ------------------------------------------------------------------

    def _register(
        self, pkg: Package, role: PackageRole, *, auto: bool
    ) -> None:
        from repro.guestos.filesystem import package_manifest

        self._installed[pkg.name] = InstalledPackage(pkg, role, auto)
        self._set_owner(_pkg_owner(pkg.name), package_manifest(pkg))

    def _set_owner(self, owner: str, manifest: FileManifest) -> None:
        self._manifests[owner] = manifest
        self._footprint = None

    def _drop_owner(self, owner: str) -> FileManifest:
        self._footprint = None
        return self._manifests.pop(owner)

    def install_package(
        self, pkg: Package, role: PackageRole, *, auto: bool = False
    ) -> None:
        """Record ``pkg`` as installed with the given role.

        Raises:
            PackageStateError: if another version of the same package is
                already installed.
        """
        existing = self._installed.get(pkg.name)
        if existing is not None:
            if existing.package.identity == pkg.identity:
                # role strengthening only (dependency -> primary)
                if _stronger(role, existing.role):
                    self._installed[pkg.name] = InstalledPackage(
                        existing.package, role, existing.auto and auto
                    )
                return
            raise PackageStateError(
                f"{self.name}: {pkg.name} already installed at version "
                f"{existing.package.version}, cannot install {pkg.version}"
            )
        self._register(pkg, role, auto=auto)

    def remove_package(self, name: str) -> Package:
        """Remove an installed package (its files leave the guest).

        Raises:
            PackageStateError: if the package is not installed or is a
                base member (the OS must stay bootable during
                decomposition; Algorithm 1 only removes PS/DS/Data).
        """
        rec = self._installed.get(name)
        if rec is None:
            raise PackageStateError(f"{self.name}: {name} is not installed")
        if rec.role is PackageRole.BASE_MEMBER:
            raise PackageStateError(
                f"{self.name}: {name} belongs to the base OS"
            )
        del self._installed[name]
        self._drop_owner(_pkg_owner(name))
        return rec.package

    def mark_manual(self, name: str) -> None:
        """apt-mark manual: the installed ``name`` becomes a primary
        package, no longer auto-removable.

        Raises:
            PackageStateError: if ``name`` is not installed.
        """
        row = self._installed.get(name)
        if row is None:
            raise PackageStateError(f"{self.name}: {name} is not installed")
        self._installed[name] = InstalledPackage(
            row.package, PackageRole.PRIMARY, False
        )

    def has_package(self, name: str) -> bool:
        return name in self._installed

    def installed(self, name: str) -> InstalledPackage | None:
        return self._installed.get(name)

    def installed_packages(self) -> list[InstalledPackage]:
        return list(self._installed.values())

    def packages_with_role(self, role: PackageRole) -> list[Package]:
        return [
            r.package for r in self._installed.values() if r.role is role
        ]

    def primary_names(self) -> list[str]:
        return [
            r.name
            for r in self._installed.values()
            if r.role is PackageRole.PRIMARY
        ]

    def remove_unused_dependencies(self) -> list[str]:
        """apt-style autoremove (Algorithm 1 line 10).

        Removes every dependency-role package not reachable, along
        Depends edges, from a primary package or a base member.  Returns
        the removed names (in removal order).  Runs to a fixpoint in one
        mark-and-sweep pass.
        """
        marked: set[str] = set()
        stack = [
            r.name
            for r in self._installed.values()
            if r.role is not PackageRole.DEPENDENCY
        ]
        while stack:
            name = stack.pop()
            if name in marked:
                continue
            marked.add(name)
            rec = self._installed.get(name)
            if rec is None:
                continue
            for dep in rec.package.dependency_names():
                if dep in self._installed and dep not in marked:
                    stack.append(dep)
        removed = [
            name
            for name, rec in self._installed.items()
            if rec.role is PackageRole.DEPENDENCY and name not in marked
        ]
        for name in removed:
            del self._installed[name]
            self._drop_owner(_pkg_owner(name))
        return removed

    # ------------------------------------------------------------------
    # user data
    # ------------------------------------------------------------------

    def attach_user_data(self, data: UserData) -> None:
        if self.user_data is not None:
            raise PackageStateError(f"{self.name}: user data already attached")
        self.user_data = data
        self._set_owner(_USERDATA_OWNER, data.manifest)

    def detach_user_data(self) -> UserData | None:
        """Remove and return the user data (Algorithm 1 line 11)."""
        data = self.user_data
        if data is not None:
            self.user_data = None
            self._drop_owner(_USERDATA_OWNER)
        return data

    # ------------------------------------------------------------------
    # build residue (caches, logs, apt lists)
    # ------------------------------------------------------------------

    def attach_residue(self, manifest: FileManifest) -> None:
        """Attach build residue: bytes on disk that neither the package
        manager nor the user-data model accounts for (logs, caches,
        downloaded archive lists).  Whole-image schemes store it; the
        decomposer cleans it up (Section V-3: "cleaning up the cached
        repository files")."""
        if _RESIDUE_OWNER in self._manifests:
            raise PackageStateError(f"{self.name}: residue already attached")
        self._set_owner(_RESIDUE_OWNER, manifest)

    def clear_residue(self) -> int:
        """Delete residue; returns the bytes removed (0 when clean)."""
        if _RESIDUE_OWNER not in self._manifests:
            return 0
        return self._drop_owner(_RESIDUE_OWNER).total_size

    @property
    def residue_size(self) -> int:
        m = self._manifests.get(_RESIDUE_OWNER)
        return m.total_size if m is not None else 0

    # ------------------------------------------------------------------
    # filesystem view
    # ------------------------------------------------------------------

    def full_manifest(self) -> FileManifest:
        """Every file on the guest, duplicates (hard links) preserved."""
        return FileManifest.concat(list(self._manifests.values()))

    def _facts(self) -> _Footprint:
        footprint = self._footprint
        if footprint is None:
            footprint = self._footprint = _Footprint()
        return footprint

    @property
    def mounted_size(self) -> int:
        """Bytes of the mounted filesystem (Table II column 3)."""
        facts = self._facts()
        size = facts.mounted_size
        if size is None:
            size = facts.mounted_size = sum(
                m.total_size for m in self._manifests.values()
            )
        return size

    @property
    def n_files(self) -> int:
        """File count of the guest filesystem (Table II column 4)."""
        facts = self._facts()
        count = facts.n_files
        if count is None:
            count = facts.n_files = sum(
                m.n_files for m in self._manifests.values()
            )
        return count

    def manifest_digest(self) -> str:
        """:func:`~repro.image.manifest.ordered_digest` of every file on
        the guest — the digest of :meth:`full_manifest`."""
        facts = self._facts()
        digest = facts.digest
        if digest is None:
            digest = facts.digest = ordered_digest(self._manifests.values())
        return digest

    def clone(self, name: str) -> "VirtualMachineImage":
        """An independent copy of this image named ``name``.

        The copy gets its own installed-row table over the same
        immutable :class:`InstalledPackage` rows (a role change replaces
        the changed image's row, so it never shows on the other) and
        its own owner map over the same immutable manifests: two dict
        copies.  It shares the lazily computed footprint until either
        image changes its files.
        """
        twin = VirtualMachineImage.__new__(VirtualMachineImage)
        twin.name = name
        twin.base = self.base
        twin._installed = dict(self._installed)
        twin._manifests = dict(self._manifests)
        twin._footprint = self._facts()
        twin.user_data = self.user_data
        return twin

    # ------------------------------------------------------------------
    # semantic graph (Section III-B)
    # ------------------------------------------------------------------

    def semantic_graph(self) -> SemanticGraph:
        """Build ``GI`` from the current installed state.

        Vertices: the base image plus every installed package; edges:
        ``Depends`` entries whose target is installed.
        """
        g = SemanticGraph()
        g.add_base_image(self.base.attrs)
        keys: dict[str, str] = {}
        for rec in self._installed.values():
            keys[rec.name] = g.add_package(rec.package, rec.role)
        for rec in self._installed.values():
            for dep in rec.package.dependency_names():
                if dep in keys:
                    g.add_dependency_edge(keys[rec.name], keys[dep])
        return g

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def is_base_only(self) -> bool:
        """True when only the base OS remains (Algorithm 1 line 12)."""
        return (
            self.user_data is None
            and _RESIDUE_OWNER not in self._manifests
            and all(
                r.role is PackageRole.BASE_MEMBER
                for r in self._installed.values()
            )
        )

    def to_base_image(self) -> BaseImage:
        """Freeze the current (decomposed) state as a base image.

        Raises:
            PackageStateError: if primaries or user data are still
                present — the caller must finish Algorithm 1 lines 7-11
                first.
        """
        if not self.is_base_only():
            raise PackageStateError(
                f"{self.name}: cannot freeze base image, decomposition "
                "incomplete"
            )
        return BaseImage(
            attrs=self.base.attrs,
            packages=tuple(
                r.package for r in self._installed.values()
            ),
            skeleton=self._manifests[_SKELETON_OWNER],
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<VMI {self.name!r} base={self.base.attrs} "
            f"packages={len(self._installed)} "
            f"size={self.mounted_size}>"
        )


def _stronger(a: PackageRole, b: PackageRole) -> bool:
    rank = {
        PackageRole.DEPENDENCY: 0,
        PackageRole.BASE_MEMBER: 1,
        PackageRole.PRIMARY: 2,
    }
    return rank[a] > rank[b]
