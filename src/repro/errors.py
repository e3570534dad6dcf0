"""Exception hierarchy for the Expelliarmus reproduction.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one base class.  Sub-hierarchies mirror the major
subsystems: the guest-OS substrate, the disk-image substrate, the
repository, and the semantic management core.
"""

from __future__ import annotations

from pathlib import Path

__all__ = [
    "ReproError",
    "CatalogError",
    "UnknownPackageError",
    "DependencyError",
    "PackageStateError",
    "ImageError",
    "HandleStateError",
    "RepositoryError",
    "NotInRepositoryError",
    "DuplicateEntryError",
    "LockTimeoutError",
    "WorkspaceError",
    "WorkspaceLockedError",
    "PublishError",
    "AlreadyPublishedError",
    "RetrievalError",
    "IncompatibleImageError",
    "GraphModelError",
    "ServiceError",
    "ProtocolError",
    "AdmissionRejectedError",
    "QuotaExceededError",
    "UnknownTenantError",
    "RemoteError",
]


class ReproError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------------------
# guest OS substrate
# ---------------------------------------------------------------------------


class CatalogError(ReproError):
    """Problems with the synthetic package catalog."""


class UnknownPackageError(CatalogError):
    """A package name was not found in the catalog or the guest."""

    def __init__(self, name: str, where: str = "catalog") -> None:
        super().__init__(f"package {name!r} not found in {where}")
        self.name = name
        self.where = where


class DependencyError(CatalogError):
    """Dependency resolution failed (missing or contradictory Depends)."""


class PackageStateError(ReproError):
    """An install/remove operation conflicts with the guest package state."""


# ---------------------------------------------------------------------------
# disk image substrate
# ---------------------------------------------------------------------------


class ImageError(ReproError):
    """Problems manipulating a (synthetic) disk image."""


class HandleStateError(ImageError):
    """A guestfs handle was used in the wrong lifecycle state."""


# ---------------------------------------------------------------------------
# repository
# ---------------------------------------------------------------------------


class RepositoryError(ReproError):
    """Problems with the VMI repository."""


class NotInRepositoryError(RepositoryError):
    """A requested object does not exist in the repository."""

    def __init__(self, kind: str, key: object) -> None:
        super().__init__(f"{kind} {key!r} is not stored in the repository")
        self.kind = kind
        self.key = key


class DuplicateEntryError(RepositoryError):
    """An object with the same identity is already stored."""


class LockTimeoutError(RepositoryError):
    """A repository lock acquisition did not succeed within its timeout.

    Raised by :class:`~repro.repository.locking.RepositoryLock` so
    callers distinguish contention (back off and retry) from the data
    errors the rest of the hierarchy names.
    """

    def __init__(self, mode: str, timeout: float) -> None:
        super().__init__(
            f"could not acquire the repository {mode} lock within "
            f"{timeout:.3f} s"
        )
        self.mode = mode
        self.timeout = timeout


class WorkspaceError(RepositoryError):
    """A durable workspace (snapshot + op-log) is unusable as found —
    mismatched snapshot/op-log pair, unreadable op-log header, or an
    op the replayer does not know."""


class WorkspaceLockedError(WorkspaceError):
    """Another live process holds the workspace's advisory lock.

    The workspace is healthy — it just cannot be opened *now*.  Callers
    (the CLI in particular) fail fast with the holder's pid instead of
    interleaving two processes' journals over one op-log.
    """

    def __init__(self, path: str | Path, holder_pid: int) -> None:
        super().__init__(
            f"workspace {path} is locked by running process "
            f"{holder_pid} — wait for it to finish (the lock is "
            f"released the moment its holder exits, cleanly or not)"
        )
        self.path = path
        self.holder_pid = holder_pid


# ---------------------------------------------------------------------------
# image service (server / remote client)
# ---------------------------------------------------------------------------


class ServiceError(ReproError):
    """Problems in the multi-tenant image service layer."""


class ProtocolError(ServiceError):
    """A wire frame or message violates the service protocol —
    oversized, torn mid-frame, not JSON, or structurally invalid."""


class AdmissionRejectedError(ServiceError):
    """The server refused to take the request *right now* (429-style).

    The request itself is well-formed; the server is protecting itself
    (bounded queue full, per-tenant in-flight ceiling, drain in
    progress).  ``retriable`` is always True — clients back off and
    retry, which is exactly what open-loop traffic generators and the
    CLI do not do silently: they surface the machine-readable
    ``code``.
    """

    retriable = True

    def __init__(
        self, code: str, message: str, *, tenant: str | None = None
    ) -> None:
        super().__init__(message)
        #: machine-readable reason: "overloaded", "tenant-busy",
        #: "draining"
        self.code = code
        self.tenant = tenant


class QuotaExceededError(ServiceError):
    """A tenant's stored-bytes quota cannot fit the request (413-style).

    Not retriable as-is: the tenant must delete images (and let GC
    reclaim them) or be granted a larger quota.
    """

    retriable = False

    def __init__(
        self,
        tenant: str,
        *,
        requested_bytes: int,
        used_bytes: int,
        limit_bytes: int,
    ) -> None:
        super().__init__(
            f"tenant {tenant!r} quota exceeded: storing "
            f"{requested_bytes} bytes on top of {used_bytes} would "
            f"pass the {limit_bytes}-byte limit"
        )
        self.tenant = tenant
        self.requested_bytes = requested_bytes
        self.used_bytes = used_bytes
        self.limit_bytes = limit_bytes


class UnknownTenantError(ServiceError):
    """The server runs a closed tenant registry and this name is not
    in it."""

    def __init__(self, tenant: str) -> None:
        super().__init__(
            f"unknown tenant {tenant!r} (the server registry is "
            "closed; ask the operator to register the tenant)"
        )
        self.tenant = tenant


class RemoteError(ServiceError):
    """A server-side failure that maps to no more specific class.

    Carries the server's machine-readable ``code`` so scripted
    clients can still branch on it.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# semantic management core
# ---------------------------------------------------------------------------


class PublishError(ReproError):
    """VMI publishing (Algorithm 1) failed."""


class AlreadyPublishedError(PublishError):
    """A VMI of this name is already published (names identify uploads
    in the repository index)."""

    def __init__(self, name: str) -> None:
        super().__init__(f"VMI {name!r} already published")
        self.name = name


class RetrievalError(ReproError):
    """VMI retrieval (Algorithm 3) failed."""


class IncompatibleImageError(RetrievalError):
    """Requested packages are not semantically compatible with any base."""


class GraphModelError(ReproError):
    """A semantic graph violates the model of Section III."""
