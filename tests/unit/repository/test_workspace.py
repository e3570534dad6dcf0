"""Unit tests for durable workspaces (snapshot + op-log pairing)."""

import pickle

import pytest

from repro.core.system import Expelliarmus
from repro.errors import WorkspaceError
from repro.image.builder import BuildRecipe
from repro.repository.locking import RepositoryLock
from repro.repository.workspace import Workspace
from repro.workloads.scale import scale_corpus


def _publish(system, mini_builder, name, primaries=("redis-server",)):
    return system.publish(
        mini_builder.build(
            BuildRecipe(
                name=name,
                primaries=primaries,
                user_data_size=10_000,
                user_data_files=1,
            )
        )
    )


class TestLifecycle:
    def test_fresh_directory_comes_up_empty(self, tmp_path):
        workspace = Workspace(tmp_path / "store")
        repo = workspace.load()
        assert repo.vmi_records() == []
        assert workspace.ops_since_checkpoint == 0
        assert workspace.is_initialized()  # the op-log now exists
        workspace.close()

    def test_repo_property_requires_load(self, tmp_path):
        with pytest.raises(WorkspaceError):
            Workspace(tmp_path / "store").repo

    def test_reopen_replays_journal(self, mini_builder, tmp_path):
        system = Expelliarmus.open(tmp_path / "store")
        _publish(system, mini_builder, "redis-vm")
        mutations = system.repo.mutations
        revisions = {
            m.base_key: m.revision
            for m in system.repo.master_graphs()
        }
        system.close()  # crash-like: no checkpoint was ever written

        reopened = Expelliarmus.open(tmp_path / "store")
        assert reopened.workspace.replayed_ops > 0
        assert reopened.published_names() == ["redis-vm"]
        assert reopened.repo.mutations == mutations
        assert {
            m.base_key: m.revision
            for m in reopened.repo.master_graphs()
        } == revisions
        assert reopened.retrieve("redis-vm").vmi.has_package(
            "redis-server"
        )
        reopened.close()

    def test_checkpoint_truncates_journal(
        self, mini_builder, tmp_path
    ):
        system = Expelliarmus.open(tmp_path / "store")
        _publish(system, mini_builder, "redis-vm")
        assert system.workspace.ops_since_checkpoint > 0
        size = system.save()
        assert size > 0
        assert system.workspace.ops_since_checkpoint == 0
        # post-checkpoint ops journal into the fresh log
        _publish(system, mini_builder, "nginx-vm", ("nginx",))
        assert system.workspace.ops_since_checkpoint > 0
        system.close()

        reopened = Expelliarmus.open(tmp_path / "store")
        assert sorted(reopened.published_names()) == [
            "nginx-vm",
            "redis-vm",
        ]
        reopened.close()

    def test_memoized_totals_never_grow_the_snapshot(
        self, mini_builder, tmp_path
    ):
        """Manifest size memos (filled by publish and retrieval) stay
        out of the snapshot: it names no memo slot, and a reopened
        store checkpoints to the same bytes before and after every
        total is read again."""
        system = Expelliarmus.open(tmp_path / "store")
        _publish(system, mini_builder, "redis-vm")
        _publish(system, mini_builder, "nginx-vm", ("nginx",))
        published = system.save()
        assert b"_total" not in system.workspace.snapshot_path.read_bytes()
        system.close()

        reopened = Expelliarmus.open(tmp_path / "store")
        unmemoized = reopened.save()
        snapshot = reopened.workspace.snapshot_path.read_bytes()
        for name in reopened.published_names():
            reopened.retrieve(name).vmi.mounted_size
        for data in reopened.repo.stored_user_data():
            assert data.size > 0
        assert reopened.save() == unmemoized == published
        assert reopened.workspace.snapshot_path.read_bytes() == snapshot
        reopened.close()

    def test_checkpoint_if_due_policy(self, mini_builder, tmp_path):
        system = Expelliarmus.open(tmp_path / "store")
        assert not system.checkpoint_if_due(None)
        assert not system.checkpoint_if_due(10_000)
        _publish(system, mini_builder, "redis-vm")
        assert system.checkpoint_if_due(1)
        assert system.workspace.ops_since_checkpoint == 0
        system.close()

    def test_in_memory_system_has_no_workspace(self):
        system = Expelliarmus()
        with pytest.raises(WorkspaceError):
            system.save()
        assert not system.checkpoint_if_due(1)
        system.close()  # no-op


class TestAdopt:
    def test_save_path_makes_system_durable(
        self, mini_builder, tmp_path
    ):
        system = Expelliarmus()
        _publish(system, mini_builder, "redis-vm")
        assert system.save(tmp_path / "store") > 0
        assert system.workspace is not None
        # later operations journal to the adopted workspace
        _publish(system, mini_builder, "nginx-vm", ("nginx",))
        system.close()

        reopened = Expelliarmus.open(tmp_path / "store")
        assert sorted(reopened.published_names()) == [
            "nginx-vm",
            "redis-vm",
        ]
        assert reopened.fsck().clean
        reopened.close()

    def test_adopt_refuses_initialized_directory(
        self, mini_builder, tmp_path
    ):
        first = Expelliarmus.open(tmp_path / "store")
        first.close()
        other = Expelliarmus()
        with pytest.raises(WorkspaceError):
            other.save(tmp_path / "store")

    def test_save_same_path_checkpoints(self, tmp_path):
        system = Expelliarmus.open(tmp_path / "store")
        assert system.save(tmp_path / "store") > 0
        assert system.workspace.checkpoints_written == 1
        system.close()

    def test_save_same_path_spelled_differently(self, tmp_path):
        system = Expelliarmus.open(tmp_path / "store")
        # an unnormalised spelling of the backing path must
        # checkpoint, not attempt (and refuse) an adopt
        alias = tmp_path / "sub" / ".." / "store"
        assert system.save(alias) > 0
        assert system.workspace.checkpoints_written == 1
        system.close()


class TestPairing:
    def test_mismatched_pair_rejected(self, mini_builder, tmp_path):
        system = Expelliarmus.open(tmp_path / "store")
        _publish(system, mini_builder, "redis-vm")
        system.save()
        system.close()
        # an op-log claiming to continue a *newer* snapshot than stored
        workspace = Workspace(tmp_path / "store")
        with open(workspace.oplog_path, "wb") as f:
            pickle.dump({"oplog": 1, "snapshot_mutations": 10_000}, f)
        with pytest.raises(WorkspaceError):
            workspace.load()

    def test_stale_log_after_checkpoint_crash_is_discarded(
        self, mini_builder, tmp_path
    ):
        system = Expelliarmus.open(tmp_path / "store")
        _publish(system, mini_builder, "redis-vm")
        stale_log = Workspace(
            tmp_path / "store"
        ).oplog_path.read_bytes()
        system.save()
        system.close()
        # simulate a crash inside checkpoint(): the snapshot reached
        # disk but the op-log reset did not
        workspace = Workspace(tmp_path / "store")
        workspace.oplog_path.write_bytes(stale_log)

        repo = workspace.load()
        assert workspace.replayed_ops == 0  # log discarded, not replayed
        assert [r.name for r in repo.vmi_records()] == ["redis-vm"]
        workspace.close()

    def test_log_reset_never_leaves_headerless_file(
        self, mini_builder, tmp_path
    ):
        """Log creation is atomic: at no point does oplog.bin exist
        without a readable header, so a crash during checkpoint's log
        reset can never brick the workspace."""
        from repro.repository.oplog import OpLog

        system = Expelliarmus.open(tmp_path / "store")
        _publish(system, mini_builder, "redis-vm")
        system.save()
        workspace_dir = tmp_path / "store"
        assert not list(workspace_dir.glob("*.tmp"))
        assert OpLog.read(workspace_dir / "oplog.bin").n_ops == 0
        system.close()

    def test_stray_tmp_files_ignored(self, mini_builder, tmp_path):
        system = Expelliarmus.open(tmp_path / "store")
        _publish(system, mini_builder, "redis-vm")
        system.save()
        system.close()
        # a crash can leave the rename sources behind; reopen ignores
        (tmp_path / "store" / "oplog.tmp").write_bytes(b"partial")
        (tmp_path / "store" / "snapshot.tmp").write_bytes(b"partial")
        reopened = Expelliarmus.open(tmp_path / "store")
        assert reopened.published_names() == ["redis-vm"]
        reopened.close()

    def test_unreadable_snapshot_version(self, tmp_path):
        workspace = Workspace(tmp_path / "store")
        workspace.path.mkdir(parents=True)
        workspace.snapshot_path.write_bytes(
            pickle.dumps({"version": 99})
        )
        with pytest.raises(WorkspaceError):
            workspace.load()


def _six_vmi_workspace(path) -> dict[str, bytes]:
    """A checkpointed 6-VMI workspace with an op-log tail; its files."""
    corpus = scale_corpus(8, n_families=2, seed="unreadable")
    system = Expelliarmus.open(path)
    system.publish_many([corpus.build(i) for i in range(6)])
    system.save()
    system.publish(corpus.build(6))
    system.close()
    return _files(path)


def _files(path) -> dict[str, bytes]:
    return {
        name: (path / name).read_bytes()
        for name in ("snapshot.bin", "oplog.bin")
    }


class TestUnreadableSnapshot:
    """A snapshot that does not load or does not restore is a
    ``WorkspaceError`` naming it: the lock is released and no file
    changes."""

    def _refused(self, path, match: str) -> None:
        before = _files(path)
        with pytest.raises(WorkspaceError, match=match):
            Expelliarmus.open(path)
        assert _files(path) == before
        workspace = Workspace(path)
        assert workspace.lock_holder() is None
        # the lock is free: this process can claim it again
        workspace._acquire_lock()
        workspace._release_lock()

    def test_truncated_snapshot(self, tmp_path):
        path = tmp_path / "store"
        files = _six_vmi_workspace(path)
        snapshot = files["snapshot.bin"]
        (path / "snapshot.bin").write_bytes(snapshot[: len(snapshot) // 2])
        self._refused(path, r"snapshot .*snapshot\.bin is unreadable")

    def test_garbage_snapshot(self, tmp_path):
        path = tmp_path / "store"
        _six_vmi_workspace(path)
        (path / "snapshot.bin").write_bytes(b"\x80\x05not a pickle")
        self._refused(path, r"snapshot .*snapshot\.bin is unreadable")

    def test_master_naming_a_base_not_stored(self, tmp_path):
        path = tmp_path / "store"
        files = _six_vmi_workspace(path)
        state = pickle.loads(files["snapshot.bin"])
        named = state["masters"][0]["base_key"]
        state["bases"] = [
            b for b in state["bases"] if b.blob_key() != named
        ]
        (path / "snapshot.bin").write_bytes(
            pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        )
        self._refused(path, r"snapshot .*snapshot\.bin does not restore")

    def test_cli_reports_the_typed_error(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "store"
        files = _six_vmi_workspace(path)
        snapshot = files["snapshot.bin"]
        (path / "snapshot.bin").write_bytes(snapshot[: len(snapshot) // 2])
        assert main(["fsck", "--workspace", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: snapshot ")
        assert "unreadable" in err
        assert "Traceback" not in err
        assert _files(path) == {**files, "snapshot.bin": snapshot[
            : len(snapshot) // 2
        ]}


def test_restore_and_replay_take_the_write_lock_once(
    mini_builder, tmp_path, monkeypatch
):
    """Reopening holds the repository write lock once across snapshot
    restore and op-log replay; each replayed primitive re-enters it."""
    system = Expelliarmus.open(tmp_path / "store")
    _publish(system, mini_builder, "redis-vm")
    system.save()
    _publish(system, mini_builder, "nginx-vm", ("nginx",))
    system.close()

    top_level = []
    acquire = RepositoryLock.acquire_write

    def counting(lock, timeout=None):
        if not lock.write_held:
            top_level.append(lock)
        acquire(lock, timeout)

    monkeypatch.setattr(RepositoryLock, "acquire_write", counting)
    workspace = Workspace(tmp_path / "store")
    repo = workspace.load()
    try:
        assert workspace.replayed_ops > 0
        # the load's hold, then attaching the journal
        assert top_level == [repo.lock, repo.lock]
    finally:
        workspace.close()
