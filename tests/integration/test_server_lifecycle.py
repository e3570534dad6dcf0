"""Integration: the image-server daemon's whole lifecycle, for real.

Everything here runs the genuine article — ``python -m repro serve``
in a subprocess over a durable workspace, real sockets, real signals:

* many concurrent clients publish and retrieve under distinct tenant
  namespaces, then SIGTERM drains the daemon: exit 0, a final
  checkpoint, and the workspace reopens in-process fsck-clean with
  exactly the published records;
* SIGKILL mid-workload loses at most the op that never reached the
  write-ahead journal: the workspace reopens, recovers from the
  op-log, and fsck is clean;
* a second daemon pointed at the live workspace is refused *cleanly*:
  exit 1, the holder's pid on stderr, and no traceback — the
  :class:`~repro.errors.WorkspaceLockedError` diagnostics surfaced as
  an operator message instead of a crash dump.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.system import Expelliarmus
from repro.service.client import RemoteClient, parse_endpoint
from repro.service.protocol import table2_source
from repro.service.tenancy import namespaced

# an exception escaping a daemon connection thread fails the test
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning"
)

SRC = Path(__file__).resolve().parents[2] / "src"

#: generous ceilings for slow CI runners; the happy path is sub-second
STARTUP_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 60.0


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _start_daemon(tmp_path, *extra_args):
    """Launch ``serve`` over ``tmp_path/ws``; returns (proc, endpoint)."""
    port_file = tmp_path / "port.txt"
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "--workspace",
            str(tmp_path / "ws"),
            "serve",
            "--port-file",
            str(port_file),
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_env(),
    )
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    while time.monotonic() < deadline:
        if port_file.exists() and port_file.read_text().strip():
            endpoint = port_file.read_text().strip()
            return proc, parse_endpoint(endpoint)
        if proc.poll() is not None:
            raise AssertionError(
                f"daemon died during startup "
                f"(exit {proc.returncode}):\n{proc.stderr.read()}"
            )
        time.sleep(0.05)
    proc.kill()
    raise AssertionError("daemon never wrote its port file")


def _finish(proc) -> tuple[int, str, str]:
    out, err = proc.communicate(timeout=EXIT_TIMEOUT_S)
    return proc.returncode, out, err


def test_concurrent_clients_then_sigterm_drain(tmp_path):
    """N concurrent tenants -> SIGTERM -> clean exit -> clean reopen."""
    proc, (host, port) = _start_daemon(tmp_path, "--workers", "4")
    tenants = {
        "alice": ["Mini", "Base"],
        "bob": ["Desktop", "IDE"],
        "carol": ["Mini"],
        "dave": ["Lapp"],
    }
    errors = []

    def run_tenant(tenant, names):
        try:
            with RemoteClient(host, port, tenant=tenant) as client:
                for name in names:
                    client.publish(table2_source(), name)
                result = client.retrieve_many()
                assert result["n_failed"] == 0, result
                assert result["n_retrieved"] == len(names)
        except Exception as exc:  # collected and raised below
            errors.append((tenant, exc))

    threads = [
        threading.Thread(target=run_tenant, args=(t, names))
        for t, names in tenants.items()
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=EXIT_TIMEOUT_S)
    assert not errors, errors

    with RemoteClient(host, port, tenant="alice") as client:
        assert client.fsck()["clean"]
        stats = client.stats()
    assert stats["repository"]["n_vmis"] == 6
    assert set(stats["tenants"]) == set(tenants)

    proc.send_signal(signal.SIGTERM)
    code, out, err = _finish(proc)
    assert code == 0, err
    assert "drained" in out

    # the drain checkpointed and released the lock: the workspace
    # reopens in-process, fsck-clean, holding exactly the published set
    system = Expelliarmus.open(tmp_path / "ws")
    try:
        assert system.fsck().clean
        expected = {
            namespaced(tenant, name)
            for tenant, names in tenants.items()
            for name in names
        }
        assert set(system.published_names()) == expected
        # and a post-restart retrieval still assembles
        report = system.retrieve(namespaced("bob", "IDE"))
        assert report.vmi.name == namespaced("bob", "IDE")
        # the final checkpoint folded the op-log: reopen replays 0
        assert system.workspace.ops_since_checkpoint == 0
    finally:
        system.close()


def test_sigkill_mid_workload_recovers_from_oplog(tmp_path):
    """kill -9 while publishes stream in: reopen recovers, fsck clean."""
    # no idle checkpointing: recovery must lean on the op-log alone
    proc, (host, port) = _start_daemon(
        tmp_path, "--workers", "2", "--checkpoint-idle", "-1"
    )
    killed = threading.Event()
    pre_kill_errors = []

    def hammer():
        try:
            with RemoteClient(host, port, tenant="crash") as client:
                for name in (
                    "Mini",
                    "Base",
                    "Desktop",
                    "IDE",
                    "Lapp",
                    "PostgreSql",
                ):
                    client.publish(table2_source(), name)
        except Exception as exc:  # checked below
            # the kill lands mid-stream by design; only errors seen
            # *before* the plug was pulled are real failures
            if not killed.is_set():
                pre_kill_errors.append(exc)

    worker = threading.Thread(target=hammer)
    worker.start()
    time.sleep(1.0)  # let a few publishes journal, then pull the plug
    killed.set()
    proc.kill()
    proc.wait(timeout=EXIT_TIMEOUT_S)
    worker.join(timeout=EXIT_TIMEOUT_S)
    assert not pre_kill_errors, pre_kill_errors

    system = Expelliarmus.open(tmp_path / "ws")
    try:
        assert system.fsck().clean
        # whatever reached the journal is fully there: every recovered
        # record retrieves
        for stored in system.published_names():
            assert stored.startswith("crash/")
            assert system.retrieve(stored).vmi.name == stored
    finally:
        system.close()


def test_second_daemon_is_refused_with_holder_pid(tmp_path):
    """Same workspace, second daemon: exit 1, holder pid, no traceback."""
    proc, (host, port) = _start_daemon(tmp_path)
    try:
        second = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "--workspace",
                str(tmp_path / "ws"),
                "serve",
            ],
            capture_output=True,
            text=True,
            timeout=EXIT_TIMEOUT_S,
            env=_env(),
        )
        assert second.returncode == 1
        assert "locked by running process" in second.stderr
        assert str(proc.pid) in second.stderr
        assert "Traceback" not in second.stderr
        # the refusal left the first daemon untouched
        with RemoteClient(host, port, tenant="ops") as client:
            assert client.ping()["pong"]
            assert client.ping()["pid"] == proc.pid
    finally:
        proc.send_signal(signal.SIGTERM)
        code, _out, err = _finish(proc)
        assert code == 0, err


def test_remote_shutdown_drains_like_sigterm(tmp_path):
    """The protocol's shutdown op ends the daemon exactly like SIGTERM."""
    proc, (host, port) = _start_daemon(tmp_path)
    with RemoteClient(host, port, tenant="ops") as client:
        client.publish(table2_source(), "Mini")
        assert client.shutdown() == {"draining": True}
    code, out, _err = _finish(proc)
    assert code == 0
    assert "drained" in out
    system = Expelliarmus.open(tmp_path / "ws")
    try:
        assert system.published_names() == [namespaced("ops", "Mini")]
        assert system.fsck().clean
    finally:
        system.close()
