"""Remote client for the image server (DESIGN.md §13).

A thin, typed veneer over the wire protocol: one TCP connection, one
request/response in flight at a time (concurrency is the *server's*
job — a process wanting parallel requests opens parallel clients, which
is exactly what the stress suites and the traffic benchmark do).  Error
responses come back as the same typed exceptions the local library
raises — ``except QuotaExceededError:`` works identically against a
local :class:`~repro.core.system.Expelliarmus` and a remote daemon.
Results come back as the reply forms of :mod:`repro.service.protocol`,
the same dicts the CLI makes of a local run's reports, so each CLI
verb prints a local result and a remote one through one printer.
"""

from __future__ import annotations

import socket

from repro.errors import ProtocolError
from repro.service.protocol import (
    exception_from_payload,
    make_request,
    recv_message,
    send_message,
)

__all__ = ["RemoteClient", "parse_endpoint"]


def parse_endpoint(spec: str) -> tuple[str, int]:
    """Parse ``HOST:PORT`` (the ``--remote`` flag's format).

    Raises:
        ProtocolError: missing colon or a non-numeric port.
    """
    host, sep, port_s = spec.rpartition(":")
    if not sep or not host:
        raise ProtocolError(
            f"invalid endpoint {spec!r}: expected HOST:PORT"
        )
    try:
        port = int(port_s)
    except ValueError as exc:
        raise ProtocolError(
            f"invalid endpoint {spec!r}: port {port_s!r} is not a "
            "number"
        ) from exc
    if not 0 < port < 65536:
        raise ProtocolError(
            f"invalid endpoint {spec!r}: port out of range"
        )
    return host, port


class RemoteClient:
    """One connection to an image server, acting as one tenant."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        tenant: str = "default",
        timeout: float | None = 30.0,
    ) -> None:
        """Connects eagerly — a bad endpoint fails here, not on the
        first request.

        Raises:
            OSError: nothing is listening at ``host:port``.
        """
        self.host = host
        self.port = port
        self.tenant = tenant
        self._sock = socket.create_connection(
            (host, port), timeout=timeout
        )

    @classmethod
    def connect(
        cls,
        endpoint: str,
        *,
        tenant: str = "default",
        timeout: float | None = 30.0,
    ) -> "RemoteClient":
        """Connect to a ``HOST:PORT`` endpoint string."""
        host, port = parse_endpoint(endpoint)
        return cls(host, port, tenant=tenant, timeout=timeout)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "RemoteClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the request loop
    # ------------------------------------------------------------------

    def call(
        self, op: str, *, tenant: str | None = None, **args
    ) -> dict:
        """One request/response round trip; returns the result object.

        ``tenant`` defaults to the client's own; pass it explicitly to
        act as another tenant (admin tooling) or rely on the default.

        Raises:
            ReproError: the typed exception the server's error code
                maps to (:func:`~repro.service.protocol.
                exception_from_payload`) — admission rejections, quota
                errors, not-found, protocol violations, or
                :class:`~repro.errors.RemoteError` for the rest.
            ProtocolError: the server hung up mid-response.
        """
        message = make_request(
            op, tenant=tenant or self.tenant, **args
        )
        send_message(self._sock, message)
        response = recv_message(self._sock)
        if response is None:
            raise ProtocolError(
                f"server closed the connection before answering "
                f"{op!r} (it may be draining)"
            )
        if response.get("ok"):
            result = response.get("result")
            if not isinstance(result, dict):
                raise ProtocolError(
                    "malformed ok-response: missing result object"
                )
            return result
        error = response.get("error")
        if not isinstance(error, dict):
            raise ProtocolError(
                "malformed error-response: missing error object"
            )
        raise exception_from_payload(error)

    # ------------------------------------------------------------------
    # convenience methods (one per op)
    # ------------------------------------------------------------------

    def ping(self) -> dict:
        return self.call("ping")

    def publish(self, source: dict, item) -> dict:
        """Publish one corpus item into the tenant's namespace."""
        return self.call("publish", source=source, item=item)

    def publish_many(self, source: dict, items: list) -> dict:
        """Publish a batch; per-item failures are isolated."""
        return self.call(
            "publish-many", source=source, items=list(items)
        )

    def retrieve(self, name: str) -> dict:
        """Retrieve one of the tenant's images (manifest digest,
        simulated seconds, component breakdown)."""
        return self.call("retrieve", name=name)

    def retrieve_many(self, names: list | None = None) -> dict:
        """Retrieve a batch; ``None`` = every image the tenant has."""
        return self.call(
            "retrieve-many",
            names=None if names is None else list(names),
        )

    def delete(self, name: str) -> dict:
        """Unpublish one of the tenant's images."""
        return self.call("delete", name=name)

    def delete_many(self, names: list) -> dict:
        return self.call("delete-many", names=list(names))

    def gc(self, *, full: bool = False) -> dict:
        """Run garbage collection on the server's repository."""
        return self.call("gc", full=full)

    def fsck(self) -> dict:
        """Run the server-side consistency checks."""
        return self.call("fsck")

    def stats(self) -> dict:
        """Repository, tenant and server-level counters."""
        return self.call("stats")

    def checkpoint(self) -> dict:
        """Ask a workspace-backed server to checkpoint now."""
        return self.call("checkpoint")

    def shutdown(self) -> dict:
        """Ask the server to drain and exit gracefully."""
        return self.call("shutdown")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<RemoteClient {self.host}:{self.port} "
            f"tenant={self.tenant!r}>"
        )
