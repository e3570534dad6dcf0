"""Unit: the CLI's remote mode against an in-process daemon.

Every ``--remote`` verb is driven through :func:`repro.cli.main`
exactly as an operator would type it, against a real
:class:`~repro.service.server.ImageServer` listening on an ephemeral
port in this process — the full stack minus process isolation (the
lifecycle suite covers that).  Also pinned here: the conflict rules
(``--remote`` excludes ``--workspace`` and the local execution
flags), endpoint parsing, and the clean one-line error contract.
"""

import threading

import pytest

from repro.cli import main
from repro.core.system import Expelliarmus
from repro.service.client import RemoteClient, parse_endpoint
from repro.service.server import ImageServer, ServerConfig
from repro.service.tenancy import TenantQuota

# an exception escaping a daemon connection thread fails the test
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning"
)


@pytest.fixture
def server():
    with ImageServer(Expelliarmus(), ServerConfig(workers=2)) as srv:
        yield srv


@pytest.fixture
def remote(server):
    host, port = server.endpoint
    return f"{host}:{port}"


class TestEndpointParsing:
    def test_host_port(self):
        assert parse_endpoint("127.0.0.1:8080") == ("127.0.0.1", 8080)

    @pytest.mark.parametrize(
        "spec", ["nocolon", ":8080", "host:", "host:nan", "host:70000"]
    )
    def test_bad_endpoints_rejected(self, spec):
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            parse_endpoint(spec)

    def test_unreachable_endpoint_is_one_clean_line(self, capsys):
        # a refused connection must not traceback
        assert (
            main(["--remote", "127.0.0.1:1", "stats"]) == 1
        )
        err = capsys.readouterr().err
        assert "cannot reach image server" in err
        assert "Traceback" not in err

    def test_malformed_endpoint_is_one_clean_line(self, capsys):
        assert main(["--remote", "nocolon", "stats"]) == 1
        err = capsys.readouterr().err
        assert "cannot reach image server" in err


class TestRemoteVerbs:
    def test_publish_and_stats(self, remote, server, capsys):
        assert (
            main(
                [
                    "--remote",
                    remote,
                    "--tenant",
                    "acme",
                    "publish",
                    "Mini",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "published as acme/Mini" in out
        assert server.system.published_names() == ["acme/Mini"]

        assert main(["--remote", remote, "stats"]) == 0
        out = capsys.readouterr().out
        assert "1 published VMIs" in out
        assert "acme" in out

    def test_publish_many_scale_then_retrieve_many(
        self, remote, capsys
    ):
        assert (
            main(
                [
                    "--remote",
                    remote,
                    "publish-many",
                    "--scale",
                    "4",
                    "--families",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "published 4/4" in out
        assert "tenant 'default'" in out

        assert main(["--remote", remote, "retrieve-many"]) == 0
        out = capsys.readouterr().out
        assert "retrieved 4/4" in out

    def test_retrieve_many_explicit_names_and_repeat(
        self, remote, capsys
    ):
        assert main(["--remote", remote, "publish", "Mini"]) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "--remote",
                    remote,
                    "retrieve-many",
                    "Mini",
                    "--repeat",
                    "3",
                    "--progress",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "retrieved 3/3" in out
        assert "digest" in out

    def test_delete_and_gc(self, remote, server, capsys):
        main(["--remote", remote, "publish", "Mini", "Base"])
        capsys.readouterr()
        assert main(["--remote", remote, "delete", "Mini"]) == 0
        out = capsys.readouterr().out
        assert "deleted 1/1" in out
        assert server.system.published_names() == ["default/Base"]
        assert main(["--remote", remote, "gc", "--full"]) == 0
        out = capsys.readouterr().out
        assert "gc (full): reclaimed" in out

    def test_delete_requires_explicit_names(self, remote, capsys):
        assert main(["--remote", remote, "delete"]) == 2
        err = capsys.readouterr().err
        assert "explicit image names" in err

    def test_fsck_clean(self, remote, capsys):
        main(["--remote", remote, "publish", "Mini"])
        capsys.readouterr()
        assert main(["--remote", remote, "fsck"]) == 0
        assert "repository clean" in capsys.readouterr().out

    def test_snapshot_without_workspace_fails_cleanly(
        self, remote, capsys
    ):
        assert main(["--remote", remote, "snapshot"]) == 1
        err = capsys.readouterr().err
        assert "did not checkpoint" in err
        assert "no workspace" in err

    def test_tenant_isolation_through_the_cli(self, remote, capsys):
        main(["--remote", remote, "--tenant", "a", "publish", "Mini"])
        capsys.readouterr()
        rc = main(
            ["--remote", remote, "--tenant", "b", "retrieve-many", "Mini"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "not-found" in err

    def test_typed_error_line_carries_the_code(self, capsys):
        config = ServerConfig(
            workers=2, default_quota=TenantQuota(max_bytes=1)
        )
        with ImageServer(Expelliarmus(), config) as server:
            host, port = server.endpoint
            rc = main(
                [
                    "--remote",
                    f"{host}:{port}",
                    "publish-many",
                    "--scale",
                    "2",
                ]
            )
        assert rc == 1
        captured = capsys.readouterr()
        assert "quota-exceeded" in captured.err
        assert "published 0/2" in captured.out

    def test_failed_publish_row_names_the_image_as_locally(
        self, remote, capsys, tmp_path
    ):
        """A re-publish fails with the same row name, local or remote:
        the image's name, not its corpus index."""
        corpus = ["publish-many", "--scale", "1", "--families", "1"]
        local = ["--workspace", str(tmp_path / "ws"), *corpus, "--progress"]

        def failed_row(argv):
            assert main(argv) == 0
            assert main(argv) == 1
            (row,) = [
                line
                for line in capsys.readouterr().err.splitlines()
                if "FAILED" in line
            ]
            return row.split("FAILED")[0]

        assert failed_row(["--remote", remote, *corpus]) == failed_row(local)

    def test_published_rows_name_the_image_as_locally(
        self, remote, capsys, tmp_path
    ):
        """A successful remote row prints the tenant's own name, as a
        local row and a remote retrieve row do — not the stored,
        namespaced one."""
        corpus = ["publish-many", "--scale", "2", "--families", "1"]

        def row_names(argv):
            assert main([*argv, "--progress"]) == 0
            return sorted(
                line.split("]")[1].split()[0]
                for line in capsys.readouterr().out.splitlines()
                if line.startswith("[")
            )

        local = row_names(["--workspace", str(tmp_path / "ws"), *corpus])
        assert local == ["vmi-00000", "vmi-00001"]
        assert row_names(["--remote", remote, *corpus]) == local
        assert row_names(["--remote", remote, "retrieve-many"]) == local
        # a single publish still says where the image is stored
        assert main(["--remote", remote, "--tenant", "t", "publish", "Mini"]) == 0
        assert "Mini: published as t/Mini" in capsys.readouterr().out


class TestRemoteShutdown:
    def test_shutdown_drains_the_daemon(self, capsys):
        server = ImageServer(Expelliarmus(), ServerConfig(workers=2))
        server.start()
        host, port = server.endpoint
        assert (
            main(["--remote", f"{host}:{port}", "shutdown"]) == 0
        )
        out = capsys.readouterr().out
        assert "is draining" in out
        assert server.wait(timeout=5.0)
        server.stop()

    def test_local_shutdown_is_an_error(self, capsys):
        assert main(["shutdown"]) == 2
        assert "requires --remote" in capsys.readouterr().err


class TestConflictRules:
    def test_remote_excludes_workspace(self, remote, capsys, tmp_path):
        rc = main(
            [
                "--remote",
                remote,
                "fsck",
                "--workspace",
                str(tmp_path / "ws"),
            ]
        )
        assert rc == 2
        assert "exclusive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["publish-many", "--scale", "2", "--parallel", "4"],
            ["retrieve-many", "--parallel", "4"],
            ["retrieve-many", "--cold"],
            ["publish-many", "--scale", "2", "--scan"],
            ["retrieve-many", "--scale", "50", "--order", "given"],
            ["gc", "--churn", "50"],
            ["fsck", "--churn", "50", "--scale", "9"],
            ["delete", "x", "--gc-threshold-gb", "1", "--checkpoint-every", "3"],
            ["publish-many", "--order", "given"],
        ],
    )
    def test_local_execution_flags_rejected(self, remote, capsys, argv):
        assert main(["--remote", remote, *argv]) == 2
        err = capsys.readouterr().err
        assert "local-execution flag" in err

    def test_local_only_command_cannot_run_remotely(
        self, remote, capsys
    ):
        assert main(["--remote", remote, "compact"]) == 2
        assert "cannot run remotely" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_validates_flags(self, capsys):
        assert main(["serve", "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err
        assert main(["serve", "--queue-limit", "-1"]) == 2
        assert "--queue-limit" in capsys.readouterr().err

    def test_serve_in_memory_full_loop(self, capsys, tmp_path):
        """`serve` without a workspace: bind, announce, drain on the
        protocol's shutdown op — the whole command in one thread."""
        port_file = tmp_path / "port.txt"
        rc = []
        thread = threading.Thread(
            target=lambda: rc.append(
                main(
                    [
                        "serve",
                        "--port",
                        "0",
                        "--port-file",
                        str(port_file),
                        "--checkpoint-idle",
                        "-1",
                    ]
                )
            )
        )
        thread.start()
        try:
            import time

            deadline = time.monotonic() + 10.0
            while (
                not port_file.exists()
                or not port_file.read_text().strip()
            ) and time.monotonic() < deadline:
                time.sleep(0.02)
            host, port = parse_endpoint(
                port_file.read_text().strip()
            )
            with RemoteClient(host, port, tenant="ops") as client:
                assert client.ping()["pong"]
                client.shutdown()
        finally:
            thread.join(timeout=10.0)
        assert rc == [0]
        out = capsys.readouterr().out
        assert "listening on" in out
        assert "drained:" in out
