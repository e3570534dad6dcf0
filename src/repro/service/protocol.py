"""Wire protocol of the image service (DESIGN.md §13).

Length-prefixed JSON over a stream socket — the simplest protocol that
is still *framed* (a reader always knows where a message ends) and
*machine-readable* on both the happy and the rejection path:

* **Framing.**  Every message is a 4-byte big-endian unsigned length
  followed by that many bytes of UTF-8 JSON.  Frames above
  :data:`MAX_FRAME_BYTES` are refused on both sides (an oversized
  *announced* length is rejected before any payload is read, so a
  hostile or buggy peer cannot make the server buffer gigabytes); a
  connection that ends mid-frame is a *torn frame* and raises
  :class:`~repro.errors.ProtocolError` instead of yielding garbage.
* **Requests** are objects ``{"op": str, "tenant": str | None,
  "args": {...}}``.  The op names are enumerated in
  :data:`REQUEST_OPS`; unknown ops are rejected with code
  ``unknown-op``, malformed requests with ``bad-request``.
* **Responses** are ``{"ok": true, "result": {...}}`` or
  ``{"ok": false, "error": {"code": str, "message": str,
  "retriable": bool, ...}}``.  :func:`error_payload` maps the
  library's exception hierarchy onto stable error codes (and carries
  structured diagnostics — a :class:`~repro.errors.
  WorkspaceLockedError` travels with its ``holder_pid``);
  :func:`exception_from_payload` restores a *typed* exception on the
  client, so ``except QuotaExceededError`` works across the wire.

**Corpus sources.**  VMIs are never shipped over the socket: the
synthetic corpora are pure functions of their configuration, so a
publish request names ``(source, item)`` and the server builds the
identical image locally (:func:`table2_source`, :func:`scale_source`
build the source descriptors).  This mirrors how a registry ingests
by reference, keeps frames tiny, and is what lets the differential
suite demand byte-identical repositories on both ends.  The selection
rule is written once: :func:`select_corpus` turns corpus flags into a
``(source, items)`` reference, :func:`source_config` validates a
descriptor, and :func:`open_corpus` / :func:`build_item` build from
it — the server, the CLI's local mode and its remote mode all go
through them.

**Reply forms.**  The results a local run reports too are written
once here (:func:`publish_reply`, :func:`gc_reply`,
:func:`fsck_reply`, :func:`checkpoint_reply`): the server replies with
them, and the CLI turns a local report into the same form, so a local
and a remote result print through one printer.
"""

from __future__ import annotations

import json
import socket
import struct

from repro.errors import (
    AdmissionRejectedError,
    AlreadyPublishedError,
    LockTimeoutError,
    NotInRepositoryError,
    ProtocolError,
    QuotaExceededError,
    RemoteError,
    ReproError,
    UnknownTenantError,
    WorkspaceError,
    WorkspaceLockedError,
)
from repro.image.manifest import FileManifest, ordered_digest

__all__ = [
    "ADMISSION_CODES",
    "GENERIC_CODES",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "REQUEST_OPS",
    "build_item",
    "checkpoint_reply",
    "error_payload",
    "exception_from_payload",
    "fsck_reply",
    "gc_reply",
    "make_request",
    "manifest_digest",
    "ok_payload",
    "open_corpus",
    "publish_reply",
    "recv_message",
    "scale_source",
    "select_corpus",
    "send_message",
    "source_config",
    "table2_source",
]

#: bumped when the message shapes change incompatibly
PROTOCOL_VERSION = 1

#: hard ceiling on one frame's JSON payload; far above any legitimate
#: request/response, far below anything that could hurt the server
MAX_FRAME_BYTES = 8 * 1024 * 1024

_HEADER = struct.Struct("!I")

#: every reason code an :class:`AdmissionRejectedError` may carry —
#: the one branch of :func:`error_payload` whose code is dynamic
#: (``exc.code``), enumerated here so the code <-> exception mapping
#: stays statically checkable (reprolint RL006, DESIGN.md §16)
ADMISSION_CODES = ("overloaded", "tenant-busy", "draining")

#: emitted codes the client deliberately degrades to
#: :class:`RemoteError`: the server-side class carries no diagnostics
#: worth a dedicated client-side constructor
GENERIC_CODES = ("workspace-error", "repro-error", "internal")

#: every operation the server understands; "tenant" column of the
#: dispatch — namespaced ops require one, admin ops may omit it
REQUEST_OPS = (
    "ping",
    "publish",
    "publish-many",
    "retrieve",
    "retrieve-many",
    "delete",
    "delete-many",
    "gc",
    "fsck",
    "stats",
    "checkpoint",
    "shutdown",
)


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


def encode_frame(message: dict) -> bytes:
    """Serialise one message as a length-prefixed JSON frame.

    Raises:
        ProtocolError: the encoded payload exceeds
            :data:`MAX_FRAME_BYTES` (the sender must not emit a frame
            the receiver is contractually bound to refuse).
    """
    payload = json.dumps(
        message, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte protocol limit"
        )
    return _HEADER.pack(len(payload)) + payload


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; None on clean EOF at a frame boundary.

    Raises:
        ProtocolError: the peer vanished mid-frame (torn frame).
    """
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 65536))
        if not chunk:
            if got == 0:
                return None
            raise ProtocolError(
                f"torn frame: connection closed after {got} of "
                f"{n} expected bytes"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> dict | None:
    """Read one framed message; None on clean end-of-stream.

    Raises:
        ProtocolError: oversized announced length, torn frame,
            non-JSON payload, or a payload that is not an object.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"announced frame of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte protocol limit"
        )
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError(
            "torn frame: connection closed between header and payload"
        )
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame payload is not JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got "
            f"{type(message).__name__}"
        )
    return message


def send_message(sock: socket.socket, message: dict) -> None:
    """Frame and send one message."""
    sock.sendall(encode_frame(message))


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------


def make_request(
    op: str, tenant: str | None = None, **args
) -> dict:
    """Build a request message (the client's only constructor)."""
    return {"op": op, "tenant": tenant, "args": args}


def table2_source() -> dict:
    """Source descriptor for the 19-image Table II corpus (items are
    image names)."""
    return {"kind": "table2"}


def scale_source(
    n_vmis: int, n_families: int = 8, seed: str = "scale", split_pct: int = 0
) -> dict:
    """Source descriptor for a generated scale corpus (items are
    integer VMI indices); ``split_pct`` selects the two-generation
    split regime and is carried only when non-zero."""
    source = {
        "kind": "scale",
        "n_vmis": n_vmis,
        "n_families": n_families,
        "seed": seed,
    }
    if split_pct:
        source["split_pct"] = split_pct
    return source


def source_config(source):
    """Validate a source descriptor: ``None`` names the Table II
    corpus, a :class:`~repro.workloads.scale.ScaleConfig` a generated
    one (hashable, so it keys corpus caches).

    Raises:
        ProtocolError: not an object, an unknown kind, or a scale
            configuration the generator refuses.
    """
    if not isinstance(source, dict):
        raise ProtocolError("publish source must be an object")
    kind = source.get("kind")
    if kind == "table2":
        return None
    if kind != "scale":
        raise ProtocolError(f"unknown corpus source kind {kind!r}")
    from repro.workloads.scale import ScaleConfig

    try:
        split = int(source.get("split_pct", 0))
        return ScaleConfig(
            n_vmis=int(source["n_vmis"]),
            n_families=int(source.get("n_families", 8)),
            seed=str(source.get("seed", "scale")),
            # the split regime needs the fat flavour off: a fat base
            # conflicts with neither generation and would absorb both
            **({"split_base_pct": split, "fat_base_pct": 0} if split else {}),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed scale source: {exc}") from exc


def open_corpus(config):
    """The corpus a :func:`source_config` result names."""
    if config is None:
        from repro.workloads.generator import standard_corpus

        return standard_corpus()
    from repro.workloads.scale import ScaleCorpus

    return ScaleCorpus(config)


def build_item(corpus, item):
    """Build the VMI ``item`` names in ``corpus`` (an index into a
    generated corpus, an image name in Table II).

    Raises:
        ProtocolError: an item of the wrong type, or outside the corpus.
    """
    from repro.workloads.scale import ScaleCorpus

    try:
        if isinstance(corpus, ScaleCorpus):
            return corpus.build(int(item))
        return corpus.build(str(item))
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(
            f"corpus item {item!r} is not buildable: {exc}"
        ) from exc


def select_corpus(
    names=(), n_vmis=None, *, n_families=8, seed="scale", split_pct=0
) -> tuple[dict, list]:
    """The ``(source, items)`` reference corpus flags select: an
    ``n_vmis``-VMI generated corpus, or else the named (default: all)
    Table II images.

    Raises:
        ProtocolError: an unknown Table II name, or a scale
            configuration the generator refuses.
    """
    if n_vmis is not None:
        source = scale_source(n_vmis, n_families, seed, split_pct)
        source_config(source)
        return source, list(range(n_vmis))
    from repro.workloads.vmi_specs import TABLE_II_ORDER

    unknown = [n for n in names if n not in TABLE_II_ORDER]
    if unknown:
        raise ProtocolError(
            f"unknown corpus image(s): {', '.join(unknown)} "
            f"(see 'expelliarmus corpus')"
        )
    return table2_source(), list(names or TABLE_II_ORDER)


def manifest_digest(manifest: FileManifest) -> str:
    """The wire's ``manifest_digest`` of one manifest
    (:func:`~repro.image.manifest.ordered_digest`)."""
    return ordered_digest((manifest,))


# ---------------------------------------------------------------------------
# reply forms: one result object per operation
# ---------------------------------------------------------------------------


def publish_reply(report, charged_bytes: int) -> dict:
    """A :class:`~repro.core.publisher.PublishReport`'s result."""
    return {
        "name": report.vmi_name,
        "simulated_seconds": report.publish_time,
        "similarity": report.similarity,
        "exported_packages": len(report.exported_packages),
        "deduplicated_packages": len(report.deduplicated_packages),
        "charged_bytes": charged_bytes,
    }


def gc_reply(report) -> dict:
    """A :class:`~repro.repository.gc.GCReport`'s result."""
    return {
        "mode": report.mode,
        "reclaimed_bytes": report.reclaimed_bytes,
        "removed_packages": report.removed_packages,
        "removed_user_data": report.removed_user_data,
        "removed_bases": report.removed_bases,
        "records_scanned": report.records_scanned,
        "graph_rebuilds": report.graph_rebuilds,
        "simulated_seconds": report.gc_seconds,
    }


def fsck_reply(report) -> dict:
    """A :class:`~repro.repository.fsck.FsckReport`'s result."""
    return {
        "clean": report.clean,
        "checked_blobs": report.checked_blobs,
        "checked_vmis": report.checked_vmis,
        "findings": [str(f) for f in report.findings],
    }


def checkpoint_reply(system) -> dict:
    """Checkpoint ``system``'s workspace now; the result says what was
    folded in, or why nothing was written."""
    workspace = system.workspace
    if workspace is None:
        return {"checkpointed": False, "reason": "no workspace"}
    ops = workspace.ops_since_checkpoint
    return {
        "checkpointed": True,
        "snapshot_bytes": system.save(),
        "ops_folded": ops,
    }


# ---------------------------------------------------------------------------
# responses and the error-code mapping
# ---------------------------------------------------------------------------


def ok_payload(result: dict) -> dict:
    return {"ok": True, "result": result}


def error_payload(exc: BaseException) -> dict:
    """Map an exception onto the machine-readable error response.

    Typed library errors keep their diagnostics: a
    :class:`WorkspaceLockedError` carries the holder pid (the
    operator's first question), quota errors carry the exact byte
    arithmetic, admission rejections their reason code.  Anything
    unexpected maps to ``internal`` — the message crosses the wire,
    the traceback never does.
    """
    error: dict = {"message": str(exc), "retriable": False}
    if isinstance(exc, AdmissionRejectedError):
        error.update(code=exc.code, retriable=True, tenant=exc.tenant)
    elif isinstance(exc, QuotaExceededError):
        error.update(
            code="quota-exceeded",
            tenant=exc.tenant,
            requested_bytes=exc.requested_bytes,
            used_bytes=exc.used_bytes,
            limit_bytes=exc.limit_bytes,
        )
    elif isinstance(exc, UnknownTenantError):
        error.update(code="unknown-tenant", tenant=exc.tenant)
    elif isinstance(exc, WorkspaceLockedError):
        error.update(
            code="workspace-locked",
            holder_pid=exc.holder_pid,
            path=str(exc.path),
            retriable=True,
        )
    elif isinstance(exc, WorkspaceError):  # reprolint: generic
        error.update(code="workspace-error")
    elif isinstance(exc, LockTimeoutError):  # reprolint: generic
        error.update(code="lock-timeout", retriable=True)
    elif isinstance(exc, NotInRepositoryError):
        error.update(
            code="not-found", kind=exc.kind, key=str(exc.key)
        )
    elif isinstance(exc, ProtocolError):
        error.update(code="bad-request")
    elif isinstance(exc, AlreadyPublishedError):
        error.update(code="already-published", name=exc.name)
    elif isinstance(exc, RemoteError):
        error.update(code=exc.code)
    elif isinstance(exc, ReproError):  # reprolint: generic
        error.update(code="repro-error")
    else:
        error.update(code="internal")
    return {"ok": False, "error": error}


def exception_from_payload(error: dict) -> ReproError:
    """Restore a typed exception from an error response.

    The inverse of :func:`error_payload` for every code with a
    dedicated class; unknown or generic codes come back as
    :class:`RemoteError` carrying the code.
    """
    code = error.get("code", "internal")
    message = error.get("message", "server error")
    if code in ADMISSION_CODES:
        return AdmissionRejectedError(
            code, message, tenant=error.get("tenant")
        )
    if code == "quota-exceeded":
        return QuotaExceededError(
            error.get("tenant", "?"),
            requested_bytes=error.get("requested_bytes", 0),
            used_bytes=error.get("used_bytes", 0),
            limit_bytes=error.get("limit_bytes", 0),
        )
    if code == "unknown-tenant":
        return UnknownTenantError(error.get("tenant", "?"))
    if code == "workspace-locked":
        return WorkspaceLockedError(
            error.get("path", "?"), error.get("holder_pid", 0)
        )
    if code == "not-found":
        return NotInRepositoryError(
            error.get("kind", "object"), error.get("key", "?")
        )
    if code == "bad-request":
        return ProtocolError(message)
    if code == "already-published":
        return AlreadyPublishedError(error.get("name", "?"))
    if code == "lock-timeout":
        return RemoteError(code, message)
    return RemoteError(code, message)
