"""Unit tests for durable workspaces (snapshot + op-log pairing)."""

import pickle

import pytest

from repro.core.system import Expelliarmus
from repro.errors import WorkspaceError
from repro.image.builder import BuildRecipe
from repro.repository.workspace import Workspace


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
