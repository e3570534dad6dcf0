"""Unit: wire framing and the error-code mapping of the protocol.

The framing is exercised over real ``socketpair`` sockets — torn
frames, oversized announcements, garbage payloads — and the
exception↔payload mapping is driven through every code in both
directions, because the client's typed ``except`` clauses only work
if the round trip is faithful.
"""

import socket
import struct
import threading
from types import SimpleNamespace

import pytest

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
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    REQUEST_OPS,
    encode_frame,
    error_payload,
    exception_from_payload,
    make_request,
    manifest_digest,
    ok_payload,
    recv_message,
    scale_source,
    send_message,
    table2_source,
)


@pytest.fixture
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


class TestFraming:
    def test_round_trip(self, pair):
        left, right = pair
        message = {"op": "ping", "tenant": None, "args": {}}
        send_message(left, message)
        assert recv_message(right) == message

    def test_every_request_op_round_trips(self, pair):
        left, right = pair
        for op in REQUEST_OPS:
            request = make_request(op, tenant="acme", name="x")
            send_message(left, request)
            received = recv_message(right)
            assert received == request
            assert received["args"] == {"name": "x"}

    def test_many_frames_on_one_stream(self, pair):
        left, right = pair
        for i in range(20):
            send_message(left, {"i": i})
        for i in range(20):
            assert recv_message(right) == {"i": i}

    def test_clean_eof_is_none(self, pair):
        left, right = pair
        left.close()
        assert recv_message(right) is None

    def test_eof_between_frames_is_none(self, pair):
        left, right = pair
        send_message(left, {"op": "ping"})
        left.close()
        assert recv_message(right) == {"op": "ping"}
        assert recv_message(right) is None

    def test_torn_header(self, pair):
        left, right = pair
        left.sendall(b"\x00\x00")  # half a length header
        left.close()
        with pytest.raises(ProtocolError, match="torn frame"):
            recv_message(right)

    def test_torn_payload(self, pair):
        left, right = pair
        frame = encode_frame({"op": "ping", "padding": "x" * 64})
        left.sendall(frame[:-10])
        left.close()
        with pytest.raises(ProtocolError, match="torn frame"):
            recv_message(right)

    def test_header_without_payload(self, pair):
        left, right = pair
        left.sendall(struct.pack("!I", 32))
        left.close()
        with pytest.raises(ProtocolError, match="torn frame"):
            recv_message(right)

    def test_oversized_announced_length_rejected_unread(self, pair):
        # the receiver must refuse before buffering a single payload
        # byte, so a hostile announcement cannot allocate gigabytes
        left, right = pair
        left.sendall(struct.pack("!I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError, match="exceeds"):
            recv_message(right)

    def test_oversized_encode_refused(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_garbage_payload(self, pair):
        left, right = pair
        payload = b"not json at all"
        left.sendall(struct.pack("!I", len(payload)) + payload)
        with pytest.raises(ProtocolError, match="not JSON"):
            recv_message(right)

    def test_non_object_payload(self, pair):
        left, right = pair
        payload = b"[1,2,3]"
        left.sendall(struct.pack("!I", len(payload)) + payload)
        with pytest.raises(ProtocolError, match="JSON object"):
            recv_message(right)

    def test_large_frame_crosses_recv_chunks(self, pair):
        # > one 65536-byte recv() chunk, sent from a thread so the
        # socketpair buffer cannot deadlock the test
        left, right = pair
        message = {"blob": "y" * 300_000}
        sender = threading.Thread(
            target=send_message, args=(left, message)
        )
        sender.start()
        try:
            assert recv_message(right) == message
        finally:
            sender.join()


class TestSources:
    def test_table2_source(self):
        assert table2_source() == {"kind": "table2"}

    def test_scale_source_defaults(self):
        assert scale_source(12) == {
            "kind": "scale",
            "n_vmis": 12,
            "n_families": 8,
            "seed": "scale",
        }


class TestManifestDigest:
    @staticmethod
    def _manifest(content_ids, sizes):
        import array

        return SimpleNamespace(
            content_ids=array.array("q", content_ids),
            sizes=array.array("q", sizes),
        )

    def test_equal_manifests_equal_digests(self):
        a = self._manifest([1, 2, 3], [10, 20, 30])
        b = self._manifest([1, 2, 3], [10, 20, 30])
        assert manifest_digest(a) == manifest_digest(b)

    def test_content_and_size_changes_both_matter(self):
        base = self._manifest([1, 2, 3], [10, 20, 30])
        other_ids = self._manifest([1, 2, 4], [10, 20, 30])
        other_sizes = self._manifest([1, 2, 3], [10, 20, 31])
        assert manifest_digest(base) != manifest_digest(other_ids)
        assert manifest_digest(base) != manifest_digest(other_sizes)


class TestErrorMapping:
    """error_payload ∘ exception_from_payload is code-faithful."""

    def test_ok_payload_shape(self):
        assert ok_payload({"x": 1}) == {"ok": True, "result": {"x": 1}}

    @pytest.mark.parametrize("code", ["overloaded", "tenant-busy", "draining"])
    def test_admission_rejections_round_trip(self, code):
        payload = error_payload(
            AdmissionRejectedError(code, "back off", tenant="acme")
        )
        error = payload["error"]
        assert error["code"] == code
        assert error["retriable"] is True
        assert error["tenant"] == "acme"
        restored = exception_from_payload(error)
        assert isinstance(restored, AdmissionRejectedError)
        assert restored.code == code
        assert restored.tenant == "acme"

    def test_quota_exceeded_carries_byte_arithmetic(self):
        exc = QuotaExceededError(
            "acme",
            requested_bytes=500,
            used_bytes=800,
            limit_bytes=1000,
        )
        error = error_payload(exc)["error"]
        assert error["code"] == "quota-exceeded"
        assert error["requested_bytes"] == 500
        assert error["used_bytes"] == 800
        assert error["limit_bytes"] == 1000
        restored = exception_from_payload(error)
        assert isinstance(restored, QuotaExceededError)
        assert restored.requested_bytes == 500
        assert restored.limit_bytes == 1000

    def test_unknown_tenant_round_trip(self):
        error = error_payload(UnknownTenantError("ghost"))["error"]
        assert error["code"] == "unknown-tenant"
        restored = exception_from_payload(error)
        assert isinstance(restored, UnknownTenantError)
        assert restored.tenant == "ghost"

    def test_workspace_locked_carries_holder_pid(self):
        exc = WorkspaceLockedError("/srv/ws", 4242)
        error = error_payload(exc)["error"]
        assert error["code"] == "workspace-locked"
        assert error["holder_pid"] == 4242
        assert error["path"] == "/srv/ws"
        assert error["retriable"] is True
        restored = exception_from_payload(error)
        assert isinstance(restored, WorkspaceLockedError)
        assert restored.holder_pid == 4242

    def test_workspace_error_is_not_locked(self):
        error = error_payload(WorkspaceError("snapshot gone"))["error"]
        assert error["code"] == "workspace-error"
        assert "holder_pid" not in error

    def test_lock_timeout_retriable(self):
        error = error_payload(LockTimeoutError("write", 5.0))["error"]
        assert error["code"] == "lock-timeout"
        assert error["retriable"] is True
        restored = exception_from_payload(error)
        assert isinstance(restored, RemoteError)
        assert restored.code == "lock-timeout"

    def test_not_found_round_trip(self):
        exc = NotInRepositoryError("vmi", "acme/web")
        error = error_payload(exc)["error"]
        assert error["code"] == "not-found"
        assert error["kind"] == "vmi"
        assert error["key"] == "acme/web"
        restored = exception_from_payload(error)
        assert isinstance(restored, NotInRepositoryError)

    def test_bad_request_round_trip(self):
        error = error_payload(ProtocolError("no such op"))["error"]
        assert error["code"] == "bad-request"
        assert isinstance(
            exception_from_payload(error), ProtocolError
        )

    def test_already_published_round_trip(self):
        error = error_payload(AlreadyPublishedError("acme/web"))["error"]
        assert error["code"] == "already-published"
        assert error["name"] == "acme/web"
        restored = exception_from_payload(error)
        assert isinstance(restored, AlreadyPublishedError)
        assert restored.name == "acme/web"
        assert str(restored) == "VMI 'acme/web' already published"

    def test_generic_repro_error(self):
        error = error_payload(ReproError("boom"))["error"]
        assert error["code"] == "repro-error"
        restored = exception_from_payload(error)
        assert isinstance(restored, RemoteError)
        assert restored.code == "repro-error"

    def test_unexpected_exception_is_internal(self):
        # the message crosses the wire; the traceback never does
        error = error_payload(ValueError("whoops"))["error"]
        assert error["code"] == "internal"
        assert error["message"] == "whoops"
        assert error["retriable"] is False
        restored = exception_from_payload(error)
        assert isinstance(restored, RemoteError)
        assert restored.code == "internal"

    def test_remote_error_keeps_its_code(self):
        error = error_payload(RemoteError("draining", "bye"))["error"]
        # AdmissionRejectedError codes restore as the typed class
        restored = exception_from_payload(error)
        assert isinstance(restored, AdmissionRejectedError)
