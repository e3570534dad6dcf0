"""The long-running multi-tenant image server (DESIGN.md §13).

One daemon owns one repository (usually a durable
:class:`~repro.repository.workspace.Workspace`) and multiplexes many
concurrent clients onto it over the length-prefixed JSON protocol of
:mod:`repro.service.protocol`:

* **Concurrency.**  Each connection's thread runs its own requests:
  once admitted, a request takes one of ``workers`` execution slots (a
  bounded semaphore) and runs the handler inline, so at most
  ``workers`` requests execute at once and nothing is handed between
  threads.  Retrievals, fsck and stats run under the
  repository's *shared* read lock and overlap freely; publishes,
  deletes, GC and checkpoints run under the *exclusive* write lock —
  the same coarse transaction model the in-process parallel executors
  use, so everything the differential suites proved about lock-mediated
  interleavings carries over to the socket boundary.
* **Admission control.**  Occupancy is bounded at
  ``workers + queue_limit`` by the
  :class:`~repro.service.admission.AdmissionController`; requests
  beyond it are rejected immediately with the machine-readable
  ``overloaded`` code instead of queueing without bound.  Per-tenant
  in-flight ceilings and stored-bytes quotas are enforced by the
  :class:`~repro.service.tenancy.TenantRegistry` (codes
  ``tenant-busy`` / ``quota-exceeded``).
* **Checkpoint on idle.**  A workspace-backed server folds its
  write-ahead op-log into a snapshot whenever it has been quiet for
  ``checkpoint_idle_s`` — reopen cost stays bounded without stealing
  time from a busy serving loop.
* **Graceful drain.**  :meth:`ImageServer.stop` (the CLI wires it to
  SIGTERM) stops accepting connections, lets every in-flight request
  finish, rejects late frames with code ``draining``, writes a final
  checkpoint and releases the workspace.  A SIGKILL instead loses at
  most the op the journal never reached — the workspace's write-ahead
  recovery contract, which the lifecycle suite exercises end-to-end.

The request path minus the sockets is :meth:`ImageServer.
handle_message` — a pure ``dict -> dict`` function, which is what the
unit suites drive; the socket layer is exercised by the property,
lifecycle and CLI suites.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.system import Expelliarmus
from repro.errors import (
    AdmissionRejectedError,
    NotInRepositoryError,
    ProtocolError,
    ReproError,
    UnknownTenantError,
)
from repro.repository.persistence import replace_atomically
from repro.service.admission import AdmissionController
from repro.service.protocol import (
    PROTOCOL_VERSION,
    REQUEST_OPS,
    build_item,
    checkpoint_reply,
    error_payload,
    fsck_reply,
    gc_reply,
    ok_payload,
    open_corpus,
    publish_reply,
    recv_message,
    send_message,
    source_config,
)
from repro.service.tenancy import (
    TenantQuota,
    TenantRegistry,
    namespaced,
    split_namespace,
)

#: per-workspace ownership journal: stored name -> publishing tenant.
#: What keeps a pre-existing *global* name shaped like ``acme/web``
#: (published locally, never through the daemon) invisible to tenant
#: ``acme`` even though the namespace prefix matches.
OWNERS_FILE = "owners.json"

__all__ = ["ImageServer", "ServerConfig"]

#: ops that act inside a tenant namespace and therefore require one
_TENANT_OPS = frozenset(
    {
        "publish",
        "publish-many",
        "retrieve",
        "retrieve-many",
        "delete",
        "delete-many",
    }
)


@dataclass(frozen=True)
class ServerConfig:
    """Everything an operator tunes about one daemon."""

    host: str = "127.0.0.1"
    #: 0 = ephemeral (the bound port comes back from ``start()``)
    port: int = 0
    #: execution slots — requests running a handler at once
    workers: int = 4
    #: admitted requests that may wait for a slot beyond the
    #: executing ones; past ``workers + queue_limit`` requests are
    #: rejected with code ``overloaded``
    queue_limit: int = 16
    #: quota applied to tenants without an explicit entry
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    #: explicit per-tenant quotas (pre-registered names)
    tenants: dict[str, TenantQuota] | None = None
    #: True: only pre-registered tenants are served
    strict_tenants: bool = False
    #: quiet seconds before a workspace-backed server checkpoints;
    #: None disables idle checkpointing
    checkpoint_idle_s: float | None = 1.0
    #: ceiling on waiting for replies still being written during
    #: drain; admitted handlers always finish first, however long
    drain_timeout_s: float = 30.0


class ImageServer:
    """A daemon serving one :class:`Expelliarmus` to many clients."""

    def __init__(
        self,
        system: Expelliarmus,
        config: ServerConfig | None = None,
    ) -> None:
        self.system = system
        self.config = config or ServerConfig()
        self.tenants = TenantRegistry(
            default_quota=self.config.default_quota,
            tenants=self.config.tenants,
            strict=self.config.strict_tenants,
        )
        self.admission = AdmissionController(
            self.config.workers, self.config.queue_limit
        )
        #: execution slots, taken inside admission by the connection
        #: thread that runs the handler
        self._slots = threading.BoundedSemaphore(self.config.workers)
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._connections: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._stop_once = threading.Lock()
        self._last_activity = time.monotonic()
        #: requests between arrival and *response sent* — the window
        #: the drain must wait out (admission alone ends when the
        #: handler returns, before the reply hits the socket)
        self._responding = 0
        self._responding_lock = threading.Lock()
        #: idle checkpoints written by the background policy
        self.idle_checkpoints = 0
        #: requests served (ok or error response sent)
        self.requests_served = 0
        #: corpora built on demand, cached by validated source config
        self._corpora: dict[object, object] = {}
        self._corpora_lock = threading.Lock()
        #: ownership journal beside the workspace (None in-memory);
        #: rewritten on every ownership change, loaded on construction
        self._owners_path: Path | None = None
        self._owners_lock = threading.Lock()
        workspace = self.system.workspace
        if workspace is not None and workspace.path is not None:
            self._owners_path = Path(workspace.path) / OWNERS_FILE
            self._load_owners()

    def _load_owners(self) -> None:
        if self._owners_path is None or not self._owners_path.exists():
            return
        try:
            data = json.loads(self._owners_path.read_text())
        except (OSError, ValueError):
            return
        if not isinstance(data, dict):
            return
        repo = self.system.repo
        for stored, tenant in data.items():
            try:
                # usage is re-derived from the records themselves; a
                # name whose record is gone is not owned, and the next
                # save drops it from the journal
                size = repo.get_vmi_record(str(stored)).mounted_size
                self.tenants.record_owned(str(tenant), str(stored), size)
            except (NotInRepositoryError, UnknownTenantError, ProtocolError):
                # or: strict registry, tenant no longer provisioned, or
                # a name no tenant may carry — the image stays stored
                # but is not served to anyone
                continue

    def _save_owners(self) -> None:
        if self._owners_path is None:
            return
        with self._owners_lock:
            text = json.dumps(self.tenants.owners(), sort_keys=True)
            replace_atomically(
                self._owners_path, lambda file: file.write(text.encode())
            )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def for_workspace(
        cls, path, config: ServerConfig | None = None
    ) -> "ImageServer":
        """A server owning the durable workspace at ``path``.

        Raises:
            WorkspaceError: broken snapshot/op-log pair.
            WorkspaceLockedError: another live process (e.g. a second
                daemon) holds the workspace — the holder pid travels
                in the error, and the CLI surfaces it instead of a
                traceback.
        """
        return cls(Expelliarmus.open(path), config)

    @property
    def endpoint(self) -> tuple[str, int]:
        """The bound ``(host, port)``.

        Raises:
            RuntimeError: the server was never started.
        """
        if self._listener is None:
            raise RuntimeError("server is not listening")
        addr = self._listener.getsockname()
        return addr[0], addr[1]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    # reprolint: unguarded — start() runs once on the owning thread
    # before any connection thread exists; _threads is never touched
    # concurrently
    def start(self) -> tuple[str, int]:
        """Bind and spawn the accept loop; returns the endpoint.
        Idempotent once started."""
        if self._listener is not None:
            return self.endpoint
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
        )
        listener.bind((self.config.host, self.config.port))
        listener.listen(128)
        listener.settimeout(0.2)
        self._listener = listener
        accept = threading.Thread(
            target=self._accept_loop, name="server-accept", daemon=True
        )
        accept.start()
        self._threads.append(accept)
        if (
            self.config.checkpoint_idle_s is not None
            and self.system.workspace is not None
        ):
            idle = threading.Thread(
                target=self._idle_loop, name="server-idle", daemon=True
            )
            idle.start()
            self._threads.append(idle)
        return self.endpoint

    def request_shutdown(self) -> None:
        """Begin the drain (signal-handler safe: only sets a flag)."""
        self._draining.set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until a shutdown is requested; True when it was."""
        return self._draining.wait(timeout)

    def stop(self) -> None:
        """Drain and shut down: no new connections, in-flight requests
        finish, late frames get ``draining`` rejections, a final
        checkpoint is written, the workspace lock is released.
        Idempotent."""
        self.request_shutdown()
        with self._stop_once:
            if self._stopped.is_set():
                return
            if self._listener is not None:
                self._listener.close()
            deadline = (
                time.monotonic() + self.config.drain_timeout_s
            )
            # admitted handlers always run to the end before the final
            # checkpoint; the deadline only bounds unsent replies
            while self.admission.active or (
                self._responding and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            with self._conn_lock:
                conns = list(self._connections)
                self._connections.clear()
            for conn in conns:
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already gone
                    pass
            if self.system.workspace is not None:
                with self.system.repo.lock.write():
                    self.system.save()
                self.system.close()
            self._stopped.set()

    def __enter__(self) -> "ImageServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # socket plumbing
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._draining.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._conn_lock:
                self._connections.add(conn)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                daemon=True,
            )
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(None)
            while True:
                try:
                    message = recv_message(conn)
                except ProtocolError as exc:
                    # a framing violation poisons the stream: answer
                    # once (best effort), then hang up
                    self._respond(conn, error_payload(exc))
                    return
                if message is None:
                    return
                with self._responding_lock:
                    self._responding += 1
                try:
                    response = self._handle_admitted(message)
                    delivered = self._respond(conn, response)
                finally:
                    with self._responding_lock:
                        self._responding -= 1
                if not delivered:
                    return
        except OSError:
            # stop() closed the socket under this thread, or the peer
            # reset it: a peer that has gone away (handlers never raise)
            return
        finally:
            with self._conn_lock:
                self._connections.discard(conn)
            try:
                conn.close()
            except OSError:  # pragma: no cover - already gone
                pass

    def _respond(self, conn: socket.socket, response: dict) -> bool:
        try:
            send_message(conn, response)
        except OSError:
            return False
        self.requests_served += 1
        return True

    def _handle_admitted(self, message: dict) -> dict:
        """Admit, then run the handler on this thread once an execution
        slot is free."""
        if self._draining.is_set():
            return error_payload(
                AdmissionRejectedError(
                    "draining",
                    "server is draining — retry against the "
                    "restarted instance",
                )
            )
        try:
            with self.admission.admit(), self._slots:
                return self.handle_message(message)
        except AdmissionRejectedError as exc:
            return error_payload(exc)

    # ------------------------------------------------------------------
    # idle checkpoint policy
    # ------------------------------------------------------------------

    def _idle_loop(self) -> None:
        idle_s = self.config.checkpoint_idle_s
        tick = min(max(idle_s / 4.0, 0.02), 0.5)
        while not self._draining.wait(tick):
            if self.admission.active:
                continue
            if time.monotonic() - self._last_activity < idle_s:
                continue
            workspace = self.system.workspace
            if (
                workspace is None
                or workspace.ops_since_checkpoint == 0
            ):
                continue
            with self.system.repo.lock.write():
                # re-check under the lock: a request may have landed
                if self.admission.active:
                    continue
                self.system.save()
            self.idle_checkpoints += 1

    # ------------------------------------------------------------------
    # the request path (sockets excluded): dict -> dict
    # ------------------------------------------------------------------

    def handle_message(self, message: dict) -> dict:
        """Validate, authorize and dispatch one request."""
        try:
            return self._handle_inner(message)
        except ReproError as exc:
            return error_payload(exc)
        except Exception as exc:  # the wire boundary catches everything
            return error_payload(exc)
        finally:
            self._last_activity = time.monotonic()

    def _handle_inner(self, message: dict) -> dict:
        op = message.get("op")
        if op not in REQUEST_OPS:
            return {
                "ok": False,
                "error": {
                    "code": "unknown-op",
                    "message": f"unknown operation {op!r}",
                    "retriable": False,
                    "known_ops": list(REQUEST_OPS),
                },
            }
        tenant = message.get("tenant")
        args = message.get("args") or {}
        if not isinstance(args, dict):
            raise ProtocolError("request args must be an object")
        if op in _TENANT_OPS:
            if tenant is None:
                raise ProtocolError(
                    f"operation {op!r} requires a tenant"
                )
            with self.tenants.slot(tenant):
                return ok_payload(
                    self._dispatch(op, tenant, args)
                )
        return ok_payload(self._dispatch(op, tenant, args))

    def _dispatch(
        self, op: str, tenant: str | None, args: dict
    ) -> dict:
        handler = getattr(self, "_op_" + op.replace("-", "_"))
        return handler(tenant, args)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def _build_item(self, source: dict, item):
        """Build the VMI one (source, item) reference names, from a
        corpus cached per validated source.

        Raises:
            ProtocolError: malformed source, or an item outside it.
        """
        config = source_config(source)
        with self._corpora_lock:
            corpus = self._corpora.get(config)
            if corpus is None:
                corpus = self._corpora[config] = open_corpus(config)
        return build_item(corpus, item)

    def _each(
        self, items, label: str, counted: str, one, malformed: str
    ) -> dict:
        """The per-item loop behind every batch op: ``one(item, row)``
        runs each item and returns its row's fields; it may note fields
        in ``row`` first, which a failed row keeps.  A typed failure is
        recorded in the item's row and the batch goes on.  A non-list
        ``items`` is a ``malformed`` request."""
        if not isinstance(items, list):
            raise ProtocolError(malformed)
        results = []
        for item in items:
            row = {label: item}
            try:
                row.update(one(item, row))
            except ReproError as exc:
                row["error"] = error_payload(exc)["error"]
            results.append(row)
        done = [r for r in results if "error" not in r]
        return {
            "n_items": len(items),
            counted: len(done),
            "n_failed": len(items) - len(done),
            "simulated_seconds": sum(
                (r["simulated_seconds"] for r in done), 0.0
            ),
            "results": results,
        }

    def _op_ping(self, tenant, args) -> dict:
        return {
            "pong": True,
            "version": PROTOCOL_VERSION,
            "pid": os.getpid(),
        }

    def _publish_one(self, tenant: str, source: dict, item, row: dict) -> dict:
        vmi = self._build_item(source, item)
        # every row names the image as a local run does
        name = row["name"] = vmi.name
        vmi.name = namespaced(tenant, name)
        charge = vmi.mounted_size
        with self.system.repo.lock.write():
            # check quota before the store does any work, and charge it
            # in the same hold: a failed publish records nothing
            self.tenants.check_quota(tenant, charge)
            report = self.system.publish(vmi)
            self.tenants.record_owned(tenant, vmi.name, charge)
        self._save_owners()
        return {
            **publish_reply(report, charge),
            "name": name,
            "stored_name": vmi.name,
        }

    def _op_publish(self, tenant, args) -> dict:
        return self._publish_one(
            tenant, args.get("source"), args.get("item"), {}
        )

    def _op_publish_many(self, tenant, args) -> dict:
        source = args.get("source")
        return self._each(
            args.get("items"),
            "item",
            "n_published",
            lambda item, row: self._publish_one(tenant, source, item, row),
            "publish-many needs an 'items' list",
        )

    def _owned(self, op: str, tenant: str, name) -> str:
        """The stored name of one of ``tenant``'s images.

        Authorization is by recorded ownership, not by prefix shape: a
        pre-existing global name that merely *looks* namespaced (e.g. a
        local publish of 'acme/web') is not the tenant's.
        """
        if not isinstance(name, str):
            raise ProtocolError(f"{op} needs a 'name' string")
        stored = namespaced(tenant, name)
        if not self.tenants.owns(tenant, stored):
            raise NotInRepositoryError("VMI", stored)
        return stored

    def _retrieve_one(self, tenant: str, name) -> dict:
        stored = self._owned("retrieve", tenant, name)
        with self.system.repo.lock.read():
            report = self.system.retrieve(stored)
        return {
            "name": name,
            "stored_name": stored,
            "simulated_seconds": report.retrieval_time,
            "manifest_digest": report.vmi.manifest_digest(),
            "imported_packages": list(report.imported_packages),
            "mounted_size": report.vmi.mounted_size,
            "n_files": report.vmi.n_files,
            "components": dict(report.breakdown.totals),
        }

    def _op_retrieve(self, tenant, args) -> dict:
        return self._retrieve_one(tenant, args.get("name"))

    def _tenant_published(self, tenant: str) -> list[str]:
        """The tenant's published (un-namespaced) names, sorted.

        Catalogued by recorded ownership — the same authorization
        source retrieval uses — so a global name with a look-alike
        prefix never appears in another tenant's listing.
        """
        names = []
        for stored in self.tenants.owned_names(tenant):
            _, name = split_namespace(stored)
            names.append(name)
        return sorted(names)

    def _op_retrieve_many(self, tenant, args) -> dict:
        names = args.get("names")
        return self._each(
            self._tenant_published(tenant) if names is None else names,
            "name",
            "n_retrieved",
            lambda name, _row: self._retrieve_one(tenant, str(name)),
            "retrieve-many needs a 'names' list (or null for all of "
            "the tenant's images)",
        )

    def _delete_one(self, tenant: str, name) -> dict:
        stored = self._owned("delete", tenant, name)
        with self.system.repo.lock.write():
            record = self.system.repo.get_vmi_record(stored)
            with self.system.clock.measure() as window:
                self.system.delete(stored)
            self.tenants.forget_owned(tenant, stored)
        self._save_owners()
        return {
            "name": name,
            "stored_name": stored,
            "simulated_seconds": window.total,
            "credited_bytes": record.mounted_size,
        }

    def _op_delete(self, tenant, args) -> dict:
        return self._delete_one(tenant, args.get("name"))

    def _op_delete_many(self, tenant, args) -> dict:
        reply = self._each(
            args.get("names"),
            "name",
            "n_deleted",
            lambda name, _row: self._delete_one(tenant, str(name)),
            "delete-many needs a 'names' list",
        )
        # a delete-many reply carries no simulated-seconds total
        del reply["simulated_seconds"]
        return reply

    def _op_gc(self, tenant, args) -> dict:
        with self.system.repo.lock.write():
            report = self.system.garbage_collect(
                full=bool(args.get("full", False))
            )
        return gc_reply(report)

    def _op_fsck(self, tenant, args) -> dict:
        with self.system.repo.lock.read():
            report = self.system.fsck()
        return fsck_reply(report)

    def _op_stats(self, tenant, args) -> dict:
        with self.system.repo.lock.read():
            by_kind = self.system.repository_breakdown()
            total = self.system.repository_size
            n_vmis = len(self.system.published_names())
        usages = self.tenants.usages()
        workspace = self.system.workspace
        return {
            "repository": {
                "total_bytes": total,
                "bytes_by_kind": by_kind,
                "n_vmis": n_vmis,
            },
            "tenants": {
                name: {
                    "bytes_stored": u.bytes_stored,
                    "published": u.published,
                    "inflight": u.inflight,
                    "requests": u.requests,
                    "quota_rejections": u.quota_rejections,
                    "busy_rejections": u.busy_rejections,
                    "max_bytes": u.quota.max_bytes,
                    "max_inflight": u.quota.max_inflight,
                }
                for name, u in usages.items()
            },
            "server": {
                "workers": self.config.workers,
                "queue_limit": self.config.queue_limit,
                "admitted": self.admission.admitted,
                "rejected": self.admission.rejected,
                "peak_active": self.admission.peak_active,
                "idle_checkpoints": self.idle_checkpoints,
                "draining": self._draining.is_set(),
            },
            "workspace": (
                None
                if workspace is None
                else {
                    "path": str(workspace.path),
                    "ops_since_checkpoint": (
                        workspace.ops_since_checkpoint
                    ),
                    "checkpoints_written": (
                        workspace.checkpoints_written
                    ),
                }
            ),
        }

    def _op_checkpoint(self, tenant, args) -> dict:
        with self.system.repo.lock.write():
            return checkpoint_reply(self.system)

    def _op_shutdown(self, tenant, args) -> dict:
        self.request_shutdown()
        return {"draining": True}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        where = (
            f"{self.endpoint[0]}:{self.endpoint[1]}"
            if self._listener is not None
            else "unbound"
        )
        return (
            f"<ImageServer {where} active={self.admission.active} "
            f"served={self.requests_served}>"
        )
