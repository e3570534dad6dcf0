"""Attribute tuples of Section III-C.

Every base image ``BI`` carries the quadruple
``attrs(BI) = (type, distro, ver, arch)`` — guest OS type (``"linux"``),
distribution (``"ubuntu"``), distribution release (``"16.04"``) and CPU
architecture (``"amd64"``).  Master graphs are keyed by this quadruple
(Section III-H).

Every software package carries ``(pkg, ver, arch)`` plus a size; an
architecture of ``"all"`` marks a portable package installable on any
base architecture (Section III-E).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.versions import Version

__all__ = ["ARCH_ALL", "BaseImageAttrs", "PackageAttrs"]

#: Architecture wildcard: the package is portable (Section III-E).
ARCH_ALL = "all"


@dataclass(frozen=True, slots=True)
class BaseImageAttrs:
    """``(type, distro, ver, arch)`` of a base image.

    ``ver`` is the distribution release (e.g. ``"16.04"``), kept as a
    string because master-graph keying uses exact equality while the
    graded base similarity parses it on demand.
    """

    os_type: str
    distro: str
    version: str
    arch: str

    # the state stdlib's dataclass pickling builds (the field values in
    # declaration order, which is also ``__slots__``), written out: it
    # calls dataclasses.fields() per object, and snapshots and op-log
    # records pickle these by the thousand (the bytes are identical)
    def __getstate__(self) -> list:
        return [self.os_type, self.distro, self.version, self.arch]

    def __setstate__(self, state: list) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)

    def key(self) -> tuple[str, str, str, str]:
        """The master-graph key ``[T, D, V, A]`` of Section III-H."""
        return (self.os_type, self.distro, self.version, self.arch)

    def parsed_version(self) -> Version:
        """The release parsed for ordered / graded comparisons."""
        return Version.parse(self.version)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.os_type}/{self.distro}-{self.version}-{self.arch}"


@dataclass(frozen=True, slots=True)
class PackageAttrs:
    """``(pkg, ver, arch)`` of a software package (Section III-E)."""

    pkg: str
    version: Version
    arch: str

    # explicit pickle state: see BaseImageAttrs.__getstate__
    def __getstate__(self) -> list:
        return [self.pkg, self.version, self.arch]

    def __setstate__(self, state: list) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)

    def is_portable(self) -> bool:
        """True when the package installs on any base architecture."""
        return self.arch == ARCH_ALL

    def arch_compatible_with(self, base_arch: str) -> bool:
        """Can this package be installed on a base of ``base_arch``?"""
        return self.is_portable() or self.arch == base_arch

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.pkg}={self.version}:{self.arch}"
