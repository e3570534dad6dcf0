"""Software packages and dependency constraints.

A :class:`Package` is the unit the decomposer extracts, the blob store
deduplicates, and the semantic graph uses as a vertex.  It corresponds to
one versioned binary package of the guest distribution (one ``.deb``).

Sizes follow the distinction the paper leans on in Section VI-C:

* ``installed_size`` — bytes the package occupies once installed on the
  guest filesystem (drives install/import time and mounted image size);
* ``deb_size`` — bytes of the packaged ``.deb`` archive (drives repository
  storage and export/copy time), always smaller than the installed size.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields

from repro.ids import combine, intern_identity
from repro.model.attributes import ARCH_ALL, PackageAttrs
from repro.model.versions import Version

__all__ = ["DependencySpec", "Package", "make_package"]

_OPS = {
    ">=": operator.ge,
    "<=": operator.le,
    ">>": operator.gt,
    "<<": operator.lt,
    "=": operator.eq,
}


@dataclass(frozen=True, slots=True)
class DependencySpec:
    """One entry of a package's ``Depends`` field.

    ``DependencySpec("libc6", ">=", Version.parse("2.17"))`` states the
    dependent needs libc6 at version 2.17 or newer; a bare
    ``DependencySpec("libc6")`` accepts any version.
    """

    name: str
    op: str | None = None
    version: Version | None = None

    # explicit pickle state: see BaseImageAttrs.__getstate__
    def __getstate__(self) -> list:
        return [self.name, self.op, self.version]

    def __setstate__(self, state: list) -> None:
        # unrolled: a snapshot loads one per dependency of every package
        name, op, version = state
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "version", version)

    def __post_init__(self) -> None:
        if (self.op is None) != (self.version is None):
            raise ValueError("op and version must be given together")
        if self.op is not None and self.op not in _OPS:
            raise ValueError(f"unknown dependency operator {self.op!r}")

    def satisfied_by(self, version: Version) -> bool:
        """Does ``version`` of the named package satisfy this constraint?"""
        if self.op is None or self.version is None:
            return True
        return bool(_OPS[self.op](version, self.version))

    def __str__(self) -> str:  # pragma: no cover - trivial
        if self.op is None:
            return self.name
        return f"{self.name} ({self.op} {self.version})"


#: per-instance caches a :class:`Package` fills in lazily (``_node_key``
#: is set by :mod:`repro.model.graph`)
_CACHES = frozenset({"_identity", "_identity_id", "_blob_key", "_node_key"})


@dataclass(frozen=True)
class Package:
    """A versioned binary package of the synthetic guest distribution.

    Attributes:
        name: binary package name (``"postgresql-9.5"``).
        version: Debian-style :class:`~repro.model.versions.Version`.
        arch: CPU architecture, or ``"all"`` for portable packages.
        installed_size: bytes on the guest filesystem once installed.
        deb_size: bytes of the packaged archive stored in a repository.
        n_files: number of files the package ships.
        depends: dependency constraints (may form cycles at the catalog
            level, mirroring libc6/dpkg/perl-base in Figure 1a).
        section: archive section (``"libs"``, ``"database"``, ...).
        essential: whether the package belongs to the minimal OS and may
            never be autoremoved.
        gzip_ratio: average compressed/uncompressed ratio of the
            package's installed payload (drives the Qcow2+Gzip baseline).
    """

    name: str
    version: Version
    arch: str
    installed_size: int
    deb_size: int
    n_files: int
    depends: tuple[DependencySpec, ...] = ()
    section: str = "misc"
    essential: bool = False
    gzip_ratio: float = 0.36

    def __post_init__(self) -> None:
        if self.installed_size < 0 or self.deb_size < 0:
            raise ValueError("package sizes must be non-negative")
        if self.n_files < 0:
            raise ValueError("n_files must be non-negative")
        if not (0.0 < self.gzip_ratio <= 1.0):
            raise ValueError("gzip_ratio must be in (0, 1]")

    @property
    def attrs(self) -> PackageAttrs:
        """The ``(pkg, ver, arch)`` attribute triple of Section III-E."""
        return PackageAttrs(self.name, self.version, self.arch)

    @property
    def identity(self) -> tuple[str, str, str]:
        """Hashable identity: (name, version string, arch)."""
        cached: tuple[str, str, str] | None = self.__dict__.get("_identity")
        if cached is None:
            cached = (self.name, str(self.version), self.arch)
            object.__setattr__(self, "_identity", cached)
        return cached

    def identity_id(self) -> int:
        """Process-local interned int for :attr:`identity`.

        Caches that key work by package identity hash this int instead
        of the three-string tuple.  Never persist it — interned ids are
        assignment-order dependent (see :class:`repro.ids.Interner`);
        :meth:`blob_key` is the cross-process identity.
        """
        cached: int | None = self.__dict__.get("_identity_id")
        if cached is None:
            cached = intern_identity(self.identity)
            object.__setattr__(self, "_identity_id", cached)
        return cached

    def blob_key(self) -> int:
        """Deterministic content id of the packaged ``.deb`` archive.

        Computed once per instance: the blake2b digest is pure in the
        frozen fields, and publish-path caches key almost everything by
        this value.
        """
        cached: int | None = self.__dict__.get("_blob_key")
        if cached is None:
            cached = combine("pkg", self.name, self.version, self.arch)
            object.__setattr__(self, "_blob_key", cached)
        return cached

    # explicit pickle form: the field values in declaration order,
    # rebuilt by a module-level function (see _unpickle_package).  The
    # caches stay out of snapshots and op-log records: each is pure in
    # the frozen fields and re-derived on first use, and an interned id
    # restored into another process would collide with that process's
    # table.
    def __reduce__(self) -> tuple:
        values = self.__dict__
        return (_unpickle_package, tuple(values[name] for name in _FIELDS))

    def __setstate__(self, state: dict[str, object]) -> None:
        # snapshots and op-logs written before __reduce__ pickle the
        # instance dict, the oldest with the caches in it
        self.__dict__.update(
            (k, v) for k, v in state.items() if k not in _CACHES
        )

    def is_portable(self) -> bool:
        """True for ``Architecture: all`` packages."""
        return self.arch == ARCH_ALL

    def dependency_names(self) -> tuple[str, ...]:
        """Names of direct dependencies, in declaration order."""
        return tuple(d.name for d in self.depends)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.name}={self.version}:{self.arch}"


#: the pickled values' order: :class:`Package`'s fields as declared
_FIELDS = tuple(f.name for f in fields(Package))


def _unpickle_package(*values: object) -> Package:
    """Rebuild a pickled :class:`Package` from its field values.

    Its name is part of the snapshot and op-log format.  A build that
    predates it fails to look it up (``AttributeError``, which loaders
    treat as an unloadable record) and refuses the workspace, changing
    no file; a bare value list restored into its ``Package`` would
    raise ``UnpicklingError`` instead, which an op-log reader takes for
    a torn tail and truncates.
    """
    pkg = object.__new__(Package)
    pkg.__dict__.update(zip(_FIELDS, values))
    return pkg


def make_package(
    name: str,
    version: str,
    *,
    arch: str = "amd64",
    installed_size: int = 0,
    deb_size: int | None = None,
    n_files: int | None = None,
    depends: tuple[DependencySpec, ...] | list[DependencySpec] = (),
    section: str = "misc",
    essential: bool = False,
    gzip_ratio: float = 0.36,
) -> Package:
    """Convenience constructor used by the catalog builders.

    ``deb_size`` defaults to 26 % of the installed size (typical for
    xz-compressed Debian archives) and ``n_files`` to roughly one file
    per 24 KiB of installed payload, floor one file.
    """
    if deb_size is None:
        deb_size = max(1024, int(installed_size * 0.26))
    if n_files is None:
        n_files = max(1, installed_size // 24_576)
    return Package(
        name=name,
        version=Version.parse(version),
        arch=arch,
        installed_size=installed_size,
        deb_size=deb_size,
        n_files=n_files,
        depends=tuple(depends),
        section=section,
        essential=essential,
        gzip_ratio=gzip_ratio,
    )
