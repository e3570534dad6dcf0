"""Multi-tenant namespaces and quota accounting (DESIGN.md §13).

The server multiplexes many tenants onto one repository.  Isolation is
by *namespace prefix*: tenant ``acme`` publishing ``web-frontend``
stores the record under ``acme/web-frontend``, and every retrieval,
deletion and listing the server performs on the tenant's behalf is
prefixed the same way — a pure function of ``(tenant, name)``, which
is what lets the differential suite replay a multi-tenant workload
against a plain local library and demand identical repositories.
Deduplicated *content* (packages, bases, user data) is deliberately
shared across namespaces: tenants isolate what they can see, not what
the store is allowed to dedup — that sharing is the whole point of the
paper's scheme.

Quotas are *logical*: a publish charges the tenant the VMI's mounted
size (the bytes the tenant asked the service to hold), a deletion
credits the recorded mounted size back.  Charging physical
(deduplicated) bytes would make one tenant's bill depend on another
tenant's uploads — logical bytes are stable, predictable, and exactly
the Table II column operators reason in.

Usage is *derived from ownership*: each tenant's owned map holds
``stored name → charged mounted bytes``, so its stored bytes are the
sum of the map and its image count the map's size, and the two cannot
disagree.  A publish checks the quota
(:meth:`TenantRegistry.check_quota`) and records the name once the
store holds it (:meth:`TenantRegistry.record_owned`); a failed publish
records nothing.  A daemon restart re-derives usage by recording each
persisted owned name at its record's mounted size.

:class:`TenantRegistry` is the single synchronized home of per-tenant
state: quota configuration, ownership (and so usage), the per-tenant
in-flight ceiling (one slow tenant cannot occupy every worker) and
rejection counters.  The registry is *open* by default — first use
registers a tenant with the default quota — or *closed*
(``strict=True``), where unknown names are refused with
:class:`~repro.errors.UnknownTenantError`, the calm-style
per-maintainer authorization model.
"""

from __future__ import annotations

import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import (
    AdmissionRejectedError,
    ProtocolError,
    QuotaExceededError,
    UnknownTenantError,
)

__all__ = [
    "NAMESPACE_SEPARATOR",
    "TenantQuota",
    "TenantRegistry",
    "TenantUsage",
    "namespaced",
    "split_namespace",
    "validate_image_name",
    "validate_stored_name",
    "validate_tenant_name",
]

NAMESPACE_SEPARATOR = "/"

#: tenant names are path-safe identifiers; the separator is reserved
_TENANT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def validate_tenant_name(name: str) -> str:
    """Return the name, or raise for one that cannot be a namespace.

    Raises:
        ProtocolError: empty, too long, or containing the namespace
            separator / other unsafe characters.
    """
    if not isinstance(name, str) or not _TENANT_NAME.match(name):
        raise ProtocolError(
            f"invalid tenant name {name!r}: expected 1-64 chars of "
            "[A-Za-z0-9._-] starting alphanumeric"
        )
    return name


def validate_image_name(name: str) -> str:
    """Return the name, or raise for one unusable inside a namespace.

    Image names are the *tenant-visible* half of a stored name.  A
    separator inside one would make ``split_namespace`` ambiguous: a
    local publish of ``acme/web`` would later be misattributed to
    tenant ``acme`` by any daemon serving the same repository.  The
    service boundary (server ops, the federation router) therefore
    refuses separator-bearing names outright.

    Raises:
        ProtocolError: not a string, empty, or containing the
            namespace separator.
    """
    if not isinstance(name, str) or not name:
        raise ProtocolError(
            f"invalid image name {name!r}: expected a non-empty string"
        )
    if NAMESPACE_SEPARATOR in name:
        raise ProtocolError(
            f"invalid image name {name!r}: the namespace separator "
            f"{NAMESPACE_SEPARATOR!r} is reserved for tenant prefixes"
        )
    return name


def validate_stored_name(name: str) -> str:
    """Return a *stored* name, or raise for an unroutable one.

    A stored name is either a bare image name or exactly
    ``tenant/name`` — what :func:`namespaced` produces.  Anything with
    more separators (or an invalid tenant half) cannot round-trip
    through :func:`split_namespace` and is refused.  The federation
    router runs every published name through this check, so a sharded
    repository can never hold a name the service layer would
    misattribute.

    Raises:
        ProtocolError: empty, non-string, or an ambiguous namespace
            shape.
    """
    if not isinstance(name, str) or not name:
        raise ProtocolError(
            f"invalid stored name {name!r}: expected a non-empty string"
        )
    tenant, sep, rest = name.partition(NAMESPACE_SEPARATOR)
    if not sep:
        return validate_image_name(name)
    validate_tenant_name(tenant)
    validate_image_name(rest)
    return name


def namespaced(tenant: str, name: str) -> str:
    """The stored name of ``name`` inside ``tenant``'s namespace.

    Raises:
        ProtocolError: ``name`` itself carries the separator — the
            resulting stored name would not round-trip through
            :func:`split_namespace`.
    """
    validate_image_name(name)
    return f"{tenant}{NAMESPACE_SEPARATOR}{name}"


def split_namespace(stored_name: str) -> tuple[str | None, str]:
    """Invert :func:`namespaced`; ``(None, name)`` for global names."""
    tenant, sep, rest = stored_name.partition(NAMESPACE_SEPARATOR)
    if not sep:
        return None, stored_name
    return tenant, rest


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant ceilings; ``None`` disables a dimension."""

    #: logical (mounted) bytes the tenant may keep published
    max_bytes: int | None = None
    #: concurrent in-flight requests the tenant may hold
    max_inflight: int | None = None

    def __post_init__(self) -> None:
        if self.max_bytes is not None and self.max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError("max_inflight must be positive")


@dataclass(frozen=True)
class TenantUsage:
    """Snapshot of one tenant's accounting (what ``stats`` reports)."""

    tenant: str
    bytes_stored: int
    published: int
    inflight: int
    requests: int
    quota_rejections: int
    busy_rejections: int
    quota: TenantQuota


class _TenantState:
    """Mutable per-tenant counters; guarded by the registry lock."""

    __slots__ = (
        "quota",
        "inflight",
        "requests",
        "quota_rejections",
        "busy_rejections",
        "owned",
    )

    def __init__(self, quota: TenantQuota) -> None:
        self.quota = quota
        self.inflight = 0
        self.requests = 0
        self.quota_rejections = 0
        self.busy_rejections = 0
        #: stored name -> mounted bytes charged for it, for every image
        #: this tenant published through the service — the
        #: authorization set for retrieve/delete/listing and the only
        #: record of usage
        self.owned: dict[str, int] = {}

    @property
    def bytes_stored(self) -> int:
        return sum(self.owned.values())


class TenantRegistry:
    """Synchronized per-tenant quota and usage accounting."""

    def __init__(
        self,
        *,
        default_quota: TenantQuota | None = None,
        tenants: dict[str, TenantQuota] | None = None,
        strict: bool = False,
    ) -> None:
        """``tenants`` pre-registers names with explicit quotas;
        ``strict=True`` closes the registry to exactly those names.

        Raises:
            ValueError: a closed registry with no registered tenants
                could never admit a request.
        """
        if strict and not tenants:
            raise ValueError(
                "strict registry needs at least one registered tenant"
            )
        self.default_quota = default_quota or TenantQuota()
        self.strict = strict
        self._lock = threading.Lock()
        self._tenants: dict[str, _TenantState] = {}
        for name, quota in (tenants or {}).items():
            self._tenants[validate_tenant_name(name)] = _TenantState(
                quota
            )

    # reprolint: unguarded — caller-holds-the-lock helper (see
    # docstring); every call site is inside 'with self._lock'
    def _state(self, tenant: str) -> _TenantState:
        """Look up (or, when open, auto-register) a tenant.

        Caller holds the lock.

        Raises:
            UnknownTenantError: closed registry, unregistered name.
            ProtocolError: invalid tenant name.
        """
        state = self._tenants.get(tenant)
        if state is None:
            validate_tenant_name(tenant)
            if self.strict:
                raise UnknownTenantError(tenant)
            state = self._tenants[tenant] = _TenantState(
                self.default_quota
            )
        return state

    def known_tenants(self) -> list[str]:
        with self._lock:
            return sorted(self._tenants)

    # ------------------------------------------------------------------
    # in-flight slots (per-tenant admission)
    # ------------------------------------------------------------------

    @contextmanager
    def slot(self, tenant: str):
        """Hold one of the tenant's in-flight slots for the block.

        Raises:
            AdmissionRejectedError: the tenant is already at its
                ``max_inflight`` ceiling (code ``tenant-busy``).
            UnknownTenantError / ProtocolError: bad tenant.
        """
        with self._lock:
            state = self._state(tenant)
            limit = state.quota.max_inflight
            if limit is not None and state.inflight >= limit:
                state.busy_rejections += 1
                raise AdmissionRejectedError(
                    "tenant-busy",
                    f"tenant {tenant!r} already has {state.inflight} "
                    f"request(s) in flight (limit {limit})",
                    tenant=tenant,
                )
            state.inflight += 1
            state.requests += 1
        try:
            yield
        finally:
            with self._lock:
                state.inflight -= 1

    # ------------------------------------------------------------------
    # stored-bytes quota
    # ------------------------------------------------------------------

    def check_quota(self, tenant: str, n_bytes: int) -> None:
        """Refuse a publish of ``n_bytes`` that would pass the tenant's
        ``max_bytes``.  Nothing is reserved: the publish is charged by
        :meth:`record_owned` once it lands, so the caller holds one
        repository write lock across the check, the publish and the
        record.

        Raises:
            QuotaExceededError: the publish would pass ``max_bytes``.
        """
        with self._lock:
            state = self._state(tenant)
            limit = state.quota.max_bytes
            if limit is None:
                return
            used = state.bytes_stored
            if used + n_bytes > limit:
                state.quota_rejections += 1
                raise QuotaExceededError(
                    tenant,
                    requested_bytes=n_bytes,
                    used_bytes=used,
                    limit_bytes=limit,
                )

    # ------------------------------------------------------------------
    # published-name ownership (and so usage)
    # ------------------------------------------------------------------

    def record_owned(
        self, tenant: str, stored_name: str, n_bytes: int
    ) -> None:
        """Remember that ``tenant`` published ``stored_name``, charged
        ``n_bytes`` of its quota."""
        with self._lock:
            self._state(tenant).owned[stored_name] = n_bytes

    def forget_owned(self, tenant: str, stored_name: str) -> None:
        """Drop a deleted image from the tenant's ownership, crediting
        its charge back."""
        with self._lock:
            state = self._tenants.get(tenant)
            if state is not None:
                state.owned.pop(stored_name, None)

    def owns(self, tenant: str, stored_name: str) -> bool:
        """Did ``tenant`` publish ``stored_name`` through the service?

        Read-only: an unknown tenant owns nothing and is *not*
        registered by asking.  This is the authorization check that
        keeps a pre-existing global name like ``acme/web`` (published
        locally, never through the service) invisible to tenant
        ``acme`` — prefix match alone would misattribute it.
        """
        with self._lock:
            state = self._tenants.get(tenant)
            return state is not None and stored_name in state.owned

    def owned_names(self, tenant: str) -> list[str]:
        """Stored names the tenant published; empty for unknown names
        (read-only — never registers)."""
        with self._lock:
            state = self._tenants.get(tenant)
            if state is None:
                return []
            return sorted(state.owned)

    def owners(self) -> dict[str, str]:
        """Every owned stored name → its tenant (the persistence dump
        the server journals beside its workspace)."""
        with self._lock:
            return {
                stored: tenant
                for tenant, state in sorted(self._tenants.items())
                for stored in sorted(state.owned)
            }

    # ------------------------------------------------------------------
    # reporting (read-only: never registers a tenant)
    # ------------------------------------------------------------------

    def usage(self, tenant: str) -> TenantUsage:
        """Snapshot one tenant's accounting.

        Raises:
            UnknownTenantError: the tenant has never touched the
                registry.  Reporting must not mutate: a ``stats``
                query for a typo'd name used to auto-register it
                permanently and pollute every later report.
        """
        with self._lock:
            state = self._tenants.get(tenant)
            if state is None:
                raise UnknownTenantError(tenant)
            return self._usage_locked(tenant, state)

    def _usage_locked(
        self, tenant: str, state: _TenantState
    ) -> TenantUsage:
        return TenantUsage(
            tenant=tenant,
            bytes_stored=state.bytes_stored,
            published=len(state.owned),
            inflight=state.inflight,
            requests=state.requests,
            quota_rejections=state.quota_rejections,
            busy_rejections=state.busy_rejections,
            quota=state.quota,
        )

    def usages(self) -> dict[str, TenantUsage]:
        with self._lock:
            return {
                name: self._usage_locked(name, self._tenants[name])
                for name in sorted(self._tenants)
            }

