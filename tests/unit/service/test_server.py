"""Unit: the server's request path as a pure ``dict -> dict`` function.

Everything here drives :meth:`ImageServer.handle_message` directly —
no sockets, no threads — which is exactly why the request path was
factored that way: validation, authorization, quota arithmetic and
every rejection shape are testable exhaustively.  The socket layer
gets its coverage from the property, lifecycle and CLI suites.
"""

import socket
import time

import pytest

from repro.core.system import Expelliarmus
from repro.service.protocol import (
    PROTOCOL_VERSION,
    make_request,
    scale_source,
    table2_source,
)
from repro.service.server import ImageServer, ServerConfig
from repro.service.tenancy import TenantQuota

SOURCE = scale_source(6, n_families=2, seed="server-unit")

# an exception escaping a daemon connection thread fails the test
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning"
)


def _server(**config) -> ImageServer:
    return ImageServer(Expelliarmus(), ServerConfig(**config))


def _call(server, op, tenant="acme", **args):
    return server.handle_message(make_request(op, tenant, **args))


def _result(response):
    assert response["ok"] is True, response
    return response["result"]


def _error(response):
    assert response["ok"] is False, response
    return response["error"]


class TestValidation:
    def test_ping(self):
        result = _result(_call(_server(), "ping", tenant=None))
        assert result["pong"] is True
        assert result["version"] == PROTOCOL_VERSION

    def test_unknown_op_lists_known_ops(self):
        error = _error(_call(_server(), "frobnicate"))
        assert error["code"] == "unknown-op"
        assert "publish" in error["known_ops"]

    def test_tenant_op_without_tenant(self):
        error = _error(_call(_server(), "retrieve", tenant=None))
        assert error["code"] == "bad-request"
        assert "requires a tenant" in error["message"]

    def test_non_object_args(self):
        response = _server().handle_message(
            {"op": "ping", "tenant": None, "args": [1, 2]}
        )
        error = _error(response)
        assert error["code"] == "bad-request"

    def test_invalid_tenant_name(self):
        error = _error(
            _call(_server(), "retrieve", tenant="a/b", name="x")
        )
        assert error["code"] == "bad-request"

    @pytest.mark.parametrize(
        "op,args",
        [
            ("retrieve", {}),
            ("delete", {"name": 7}),
            ("publish-many", {"source": SOURCE, "items": "nope"}),
            ("retrieve-many", {"names": "nope"}),
            ("delete-many", {}),
        ],
    )
    def test_malformed_args_are_bad_requests(self, op, args):
        error = _error(_call(_server(), op, **args))
        assert error["code"] == "bad-request"


class TestCorpusSources:
    def test_unknown_source_kind(self):
        error = _error(
            _call(
                _server(),
                "publish",
                source={"kind": "carrier-pigeon"},
                item=0,
            )
        )
        assert error["code"] == "bad-request"
        assert "carrier-pigeon" in error["message"]

    def test_malformed_scale_source(self):
        error = _error(
            _call(
                _server(),
                "publish",
                source={"kind": "scale"},  # n_vmis missing
                item=0,
            )
        )
        assert error["code"] == "bad-request"

    def test_item_outside_corpus(self):
        error = _error(
            _call(_server(), "publish", source=SOURCE, item=99)
        )
        assert error["code"] == "bad-request"
        assert "not buildable" in error["message"]

    def test_table2_item_by_name(self):
        result = _result(
            _call(
                _server(),
                "publish",
                source=table2_source(),
                item="Mini",
            )
        )
        assert result["name"] == "Mini"
        assert result["stored_name"] == "acme/Mini"

    def test_corpus_is_cached_per_source(self):
        server = _server()
        _result(_call(server, "publish", source=SOURCE, item=0))
        _result(_call(server, "publish", source=SOURCE, item=1))
        assert len(server._corpora) == 1


class TestPublishRetrieveDelete:
    def test_publish_namespaces_and_charges(self):
        server = _server()
        result = _result(
            _call(server, "publish", source=SOURCE, item=0)
        )
        assert result["name"] == "vmi-00000"
        assert result["stored_name"] == "acme/vmi-00000"
        assert result["charged_bytes"] > 0
        assert result["simulated_seconds"] > 0
        usage = server.tenants.usage("acme")
        assert usage.bytes_stored == result["charged_bytes"]
        assert usage.published == 1

    def test_retrieve_round_trip(self):
        server = _server()
        _result(_call(server, "publish", source=SOURCE, item=0))
        result = _result(_call(server, "retrieve", name="vmi-00000"))
        assert result["stored_name"] == "acme/vmi-00000"
        assert result["manifest_digest"]
        assert result["simulated_seconds"] > 0
        assert result["mounted_size"] > 0

    def test_retrieve_missing_is_not_found(self):
        error = _error(_call(_server(), "retrieve", name="ghost"))
        assert error["code"] == "not-found"
        assert error["key"] == "acme/ghost"

    def test_tenants_cannot_see_each_other(self):
        server = _server()
        _result(_call(server, "publish", source=SOURCE, item=0))
        error = _error(
            _call(server, "retrieve", tenant="other", name="vmi-00000")
        )
        assert error["code"] == "not-found"

    def test_delete_credits_quota_back(self):
        server = _server()
        published = _result(
            _call(server, "publish", source=SOURCE, item=0)
        )
        result = _result(_call(server, "delete", name="vmi-00000"))
        assert result["credited_bytes"] == published["charged_bytes"]
        assert result["simulated_seconds"] >= 0
        assert server.tenants.usage("acme").bytes_stored == 0
        assert server.system.published_names() == []

    def test_delete_missing_is_not_found_and_credits_nothing(self):
        server = _server()
        error = _error(_call(server, "delete", name="ghost"))
        assert error["code"] == "not-found"
        assert server.tenants.usage("acme").bytes_stored == 0

    def test_duplicate_publish_refunds_the_reservation(self):
        server = _server()
        first = _result(
            _call(server, "publish", source=SOURCE, item=0)
        )
        response = _call(server, "publish", source=SOURCE, item=0)
        assert _error(response)["code"] == "already-published"
        # the failed attempt must not leak reserved quota
        usage = server.tenants.usage("acme")
        assert usage.bytes_stored == first["charged_bytes"]
        assert usage.published == 1


class TestBatchOps:
    def test_publish_many_reports_partial_failures(self):
        server = _server()
        result = _result(
            _call(
                server,
                "publish-many",
                source=SOURCE,
                items=[0, 99, 1],
            )
        )
        assert result["n_items"] == 3
        assert result["n_published"] == 2
        assert result["n_failed"] == 1
        failures = [r for r in result["results"] if "error" in r]
        assert len(failures) == 1
        assert failures[0]["item"] == 99
        assert failures[0]["error"]["code"] == "bad-request"
        assert result["simulated_seconds"] > 0

    def test_publish_many_duplicate_rows_report_already_published(self):
        server = _server()
        _result(_call(server, "publish", source=SOURCE, item=0))
        result = _result(
            _call(server, "publish-many", source=SOURCE, items=[0, 1])
        )
        assert result["n_published"] == 1
        (failure,) = [r for r in result["results"] if "error" in r]
        assert failure["item"] == 0
        assert failure["error"]["code"] == "already-published"
        assert failure["error"]["name"] == "acme/vmi-00000"

    def test_retrieve_many_defaults_to_tenant_catalogue(self):
        server = _server()
        _result(
            _call(
                server, "publish-many", source=SOURCE, items=[0, 1]
            )
        )
        _result(
            _call(
                server,
                "publish",
                tenant="other",
                source=SOURCE,
                item=2,
            )
        )
        result = _result(_call(server, "retrieve-many"))
        assert result["n_retrieved"] == 2
        assert [r["name"] for r in result["results"]] == [
            "vmi-00000",
            "vmi-00001",
        ]

    def test_delete_many_partial(self):
        server = _server()
        _result(_call(server, "publish", source=SOURCE, item=0))
        result = _result(
            _call(server, "delete-many", names=["vmi-00000", "ghost"])
        )
        assert result["n_deleted"] == 1
        assert result["n_failed"] == 1


class TestQuotasAndSlots:
    def test_quota_exceeded_leaves_repository_untouched(self):
        server = _server(default_quota=TenantQuota(max_bytes=1))
        error = _error(
            _call(server, "publish", source=SOURCE, item=0)
        )
        assert error["code"] == "quota-exceeded"
        assert error["limit_bytes"] == 1
        assert error["requested_bytes"] > 1
        assert server.system.published_names() == []
        assert server.tenants.usage("acme").quota_rejections == 1

    def test_strict_registry_rejects_unknown_tenant(self):
        server = _server(
            tenants={"vip": TenantQuota()}, strict_tenants=True
        )
        error = _error(
            _call(server, "retrieve", tenant="ghost", name="x")
        )
        assert error["code"] == "unknown-tenant"
        result = _result(
            _call(server, "publish", tenant="vip", source=SOURCE, item=0)
        )
        assert result["name"] == "vmi-00000"
        assert result["stored_name"] == "vip/vmi-00000"

    def test_tenant_busy_when_slots_exhausted(self):
        server = _server(
            default_quota=TenantQuota(max_inflight=1)
        )
        with server.tenants.slot("acme"):
            error = _error(
                _call(server, "retrieve", name="anything")
            )
        assert error["code"] == "tenant-busy"
        assert error["retriable"] is True


class TestAdminOps:
    def test_gc_and_fsck_shapes(self):
        server = _server()
        _result(_call(server, "publish", source=SOURCE, item=0))
        _result(_call(server, "delete", name="vmi-00000"))
        gc = _result(_call(server, "gc", tenant=None, full=True))
        assert gc["mode"] == "full"
        assert gc["reclaimed_bytes"] >= 0
        fsck = _result(_call(server, "fsck", tenant=None))
        assert fsck["clean"] is True
        assert fsck["findings"] == []

    def test_stats_shape_in_memory(self):
        server = _server()
        _result(_call(server, "publish", source=SOURCE, item=0))
        stats = _result(_call(server, "stats", tenant=None))
        assert stats["repository"]["n_vmis"] == 1
        assert stats["repository"]["total_bytes"] > 0
        assert stats["tenants"]["acme"]["published"] == 1
        assert stats["server"]["workers"] == 4
        assert stats["server"]["draining"] is False
        assert stats["workspace"] is None

    def test_checkpoint_without_workspace(self):
        result = _result(
            _call(_server(), "checkpoint", tenant=None)
        )
        assert result == {
            "checkpointed": False,
            "reason": "no workspace",
        }

    def test_shutdown_op_starts_the_drain(self):
        server = _server()
        result = _result(_call(server, "shutdown", tenant=None))
        assert result == {"draining": True}
        # once draining, the front door rejects with "draining"
        # before any admission accounting happens
        response = server._handle_admitted(
            make_request("ping", tenant=None)
        )
        error = _error(response)
        assert error["code"] == "draining"
        assert error["retriable"] is True
        assert server.admission.admitted == 0


class TestWorkspaceBackedServer:
    def test_checkpoint_folds_the_oplog(self, tmp_path):
        server = ImageServer.for_workspace(
            tmp_path / "ws", ServerConfig(checkpoint_idle_s=None)
        )
        try:
            _result(_call(server, "publish", source=SOURCE, item=0))
            stats = _result(_call(server, "stats", tenant=None))
            assert stats["workspace"]["ops_since_checkpoint"] > 0
            result = _result(
                _call(server, "checkpoint", tenant=None)
            )
            assert result["checkpointed"] is True
            assert result["ops_folded"] > 0
            stats = _result(_call(server, "stats", tenant=None))
            assert stats["workspace"]["ops_since_checkpoint"] == 0
        finally:
            server.stop()

    def test_idle_checkpoint_fires_when_quiet(self, tmp_path):
        server = ImageServer.for_workspace(
            tmp_path / "ws", ServerConfig(checkpoint_idle_s=0.05)
        )
        server.start()
        try:
            _result(_call(server, "publish", source=SOURCE, item=0))
            deadline = time.monotonic() + 10.0
            while (
                server.idle_checkpoints == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert server.idle_checkpoints >= 1
            assert (
                server.system.workspace.ops_since_checkpoint == 0
            )
        finally:
            server.stop()

    def test_stop_writes_final_checkpoint_and_releases(self, tmp_path):
        server = ImageServer.for_workspace(
            tmp_path / "ws", ServerConfig(checkpoint_idle_s=None)
        )
        _result(_call(server, "publish", source=SOURCE, item=0))
        server.stop()
        server.stop()  # idempotent
        reopened = Expelliarmus.open(tmp_path / "ws")
        try:
            assert reopened.published_names() == ["acme/vmi-00000"]
            assert reopened.workspace.ops_since_checkpoint == 0
            assert reopened.fsck().clean
        finally:
            reopened.close()


class TestNamespaceInjection:
    """Regression: separator-bearing image names crossing the tenant
    boundary (DESIGN.md §13 behavior change)."""

    @pytest.mark.parametrize("op", ["retrieve", "delete"])
    def test_separator_names_rejected_at_the_boundary(self, op):
        error = _error(_call(_server(), op, name="other/web"))
        assert error["code"] == "bad-request"
        assert "reserved" in error["message"]

    def test_preexisting_global_lookalike_is_not_served(self, tmp_path):
        """A literal ``acme/web`` published *locally* (never through
        the service) must stay invisible to tenant ``acme`` — prefix
        shape alone used to leak it into the tenant's namespace."""
        from repro.workloads.scale import scale_corpus

        local = Expelliarmus.open(tmp_path / "ws")
        vmi = scale_corpus(2, n_families=1, seed="injection").build(0)
        vmi.name = "acme/web"
        local.publish(vmi)
        local.save()
        local.close()

        server = ImageServer.for_workspace(
            tmp_path / "ws", ServerConfig(checkpoint_idle_s=None)
        )
        try:
            # the record is in the repository the server fronts...
            assert "acme/web" in server.system.published_names()
            # ...but tenant acme neither sees nor can touch it
            error = _error(_call(server, "retrieve", name="web"))
            assert error["code"] == "not-found"
            error = _error(_call(server, "delete", name="web"))
            assert error["code"] == "not-found"
            result = _result(_call(server, "retrieve-many"))
            assert result["n_items"] == 0
            # and deleting it was refused, so the local record stays
            assert "acme/web" in server.system.published_names()
        finally:
            server.stop()

    def test_service_published_names_are_still_served(self, tmp_path):
        server = ImageServer.for_workspace(
            tmp_path / "ws", ServerConfig(checkpoint_idle_s=None)
        )
        try:
            _result(_call(server, "publish", source=SOURCE, item=0))
            result = _result(
                _call(server, "retrieve", name="vmi-00000")
            )
            assert result["stored_name"] == "acme/vmi-00000"
        finally:
            server.stop()


class TestOwnershipPersistence:
    def test_ownership_survives_daemon_restart(self, tmp_path):
        """The owners journal beside the workspace re-grants tenants
        access to their images after a restart."""
        server = ImageServer.for_workspace(
            tmp_path / "ws", ServerConfig(checkpoint_idle_s=None)
        )
        _result(_call(server, "publish", source=SOURCE, item=0))
        server.stop()
        assert (tmp_path / "ws" / "owners.json").exists()

        reborn = ImageServer.for_workspace(
            tmp_path / "ws", ServerConfig(checkpoint_idle_s=None)
        )
        try:
            result = _result(
                _call(reborn, "retrieve", name="vmi-00000")
            )
            assert result["stored_name"] == "acme/vmi-00000"
            # other tenants still see nothing
            error = _error(
                _call(reborn, "retrieve", tenant="b", name="vmi-00000")
            )
            assert error["code"] == "not-found"
        finally:
            reborn.stop()

    def test_corrupt_owners_journal_is_tolerated(self, tmp_path):
        server = ImageServer.for_workspace(
            tmp_path / "ws", ServerConfig(checkpoint_idle_s=None)
        )
        _result(_call(server, "publish", source=SOURCE, item=0))
        server.stop()
        (tmp_path / "ws" / "owners.json").write_text("not json{")
        reborn = ImageServer.for_workspace(
            tmp_path / "ws", ServerConfig(checkpoint_idle_s=None)
        )
        try:
            # degraded to an empty ownership map, not a crash
            error = _error(
                _call(reborn, "retrieve", name="vmi-00000")
            )
            assert error["code"] == "not-found"
        finally:
            reborn.stop()


class TestDriftSurfacing:
    def test_fsck_flags_quota_drift(self):
        server = _server()
        server.tenants.charge_publish("acme", 10)
        server.tenants.refund_publish("acme", 25)
        fsck = _result(_call(server, "fsck", tenant=None))
        assert fsck["clean"] is False
        assert any("quota-drift" in f for f in fsck["findings"])

    def test_stats_expose_drift_counters(self):
        server = _server()
        server.tenants.charge_publish("acme", 10)
        server.tenants.refund_publish("acme", 25)
        stats = _result(_call(server, "stats", tenant=None))
        tenant = stats["tenants"]["acme"]
        assert tenant["drift_bytes"] == 15
        assert tenant["drift_events"] == 1

    def test_clean_accounting_keeps_fsck_clean(self):
        server = _server()
        _result(_call(server, "publish", source=SOURCE, item=0))
        _result(_call(server, "delete", name="vmi-00000"))
        fsck = _result(_call(server, "fsck", tenant=None))
        assert fsck["clean"] is True


class TestConnectionThread:
    def test_closed_socket_is_a_peer_gone(self):
        """stop() closes connection sockets while their threads may
        still read them; the thread must end quietly, not raise."""
        server = _server()
        conn, peer = socket.socketpair()
        peer.close()
        conn.close()
        server._connections.add(conn)
        server._serve_connection(conn)
        assert conn not in server._connections
