"""Unit tests for repository snapshots."""

import pickle

import pytest
from restore_oracle import reload_through_files

from repro.core.system import Expelliarmus
from repro.image.builder import BuildRecipe
from repro.repository.persistence import (
    ContentFile,
    repository_state,
    restore_into,
    write_state,
)
from repro.repository.repo import Repository


@pytest.fixture
def populated(mini_system, mini_builder):
    for name, primaries in (
        ("redis-vm", ("redis-server",)),
        ("nginx-vm", ("nginx",)),
    ):
        mini_system.publish(
            mini_builder.build(
                BuildRecipe(
                    name=name,
                    primaries=primaries,
                    user_data_size=10_000,
                    user_data_files=1,
                )
            )
        )
    return mini_system


class TestRoundTrip:
    def test_snapshot_restores_byte_accounting(
        self, populated, tmp_path
    ):
        restored = reload_through_files(populated.repo, tmp_path)
        assert (tmp_path / "snapshot.bin").stat().st_size > 0
        assert restored.total_bytes() == populated.repository_size
        assert restored.bytes_by_kind() == (
            populated.repo.bytes_by_kind()
        )

    def test_streamed_snapshot_equals_in_memory_pickle(
        self, populated, tmp_path
    ):
        """Pickling straight into the file writes exactly the bytes
        ``pickle.dumps`` would have built in memory: the bare state, and
        a workspace checkpoint's metadata naming its content file."""
        path = tmp_path / "repo.snapshot"
        written = write_state(path, repository_state(populated.repo))
        expected = pickle.dumps(
            repository_state(populated.repo),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        assert written == len(expected)
        assert path.read_bytes() == expected
        assert not list(tmp_path.glob("*.tmp"))

        written = populated.save(tmp_path / "ws")
        content = tmp_path / "ws" / "content-1.bin"
        expected = repository_state(populated.repo)
        expected["content"] = (1, content.stat().st_size)
        expected = pickle.dumps(expected, protocol=pickle.HIGHEST_PROTOCOL)
        assert written == len(expected)
        assert populated.workspace.snapshot_path.read_bytes() == expected
        populated.close()

    def test_restored_repo_retrieves(self, populated, tmp_path):
        restored = reload_through_files(populated.repo, tmp_path)
        result = Expelliarmus(repository=restored).retrieve("redis-vm")
        assert result.vmi.has_package("redis-server")
        assert result.vmi.user_data is not None

    def test_restored_repo_accepts_new_publishes(
        self, populated, mini_builder, tmp_path
    ):
        # repository injection binds publisher, assembler and planner
        # to the reloaded instance — no manual rebinding
        restored_system = Expelliarmus(
            repository=reload_through_files(populated.repo, tmp_path)
        )
        report = restored_system.publish(
            mini_builder.build(
                BuildRecipe(name="third", primaries=("bigapp",))
            )
        )
        # bigapp + libbig are new; base and old packages dedup
        assert set(report.exported_packages) == {"bigapp", "libbig"}
        assert not report.stored_new_base

    def test_master_graphs_survive(self, populated, tmp_path):
        restored = reload_through_files(populated.repo, tmp_path)
        masters = restored.master_graphs()
        assert len(masters) == 1
        primaries = {p.name for p in masters[0].primary_packages()}
        assert primaries == {"redis-server", "nginx"}
        assert masters[0].check_invariant()

    def test_master_revisions_survive_exactly(
        self, populated, tmp_path
    ):
        """The format-v2 fidelity fix: revisions must not reset to 0.

        A reloaded master at revision 0 would let any derived cache
        keyed on ``(base_key, revision)`` falsely validate across a
        session boundary.
        """
        restored = reload_through_files(populated.repo, tmp_path)
        original = {
            m.base_key: m.revision
            for m in populated.repo.master_graphs()
        }
        assert all(rev > 0 for rev in original.values())
        assert {
            m.base_key: m.revision for m in restored.master_graphs()
        } == original

    def test_new_revisions_never_collide_with_restored(
        self, populated, mini_builder, tmp_path
    ):
        restored_system = Expelliarmus(
            repository=reload_through_files(populated.repo, tmp_path)
        )
        before = {
            m.revision for m in restored_system.repo.master_graphs()
        }
        restored_system.publish(
            mini_builder.build(
                BuildRecipe(name="third", primaries=("bigapp",))
            )
        )
        after = {
            m.revision for m in restored_system.repo.master_graphs()
        }
        # membership changed, so the moved revision is brand new —
        # above the restored floor, never a reissued old token
        assert after != before
        assert max(after) > max(before)

    def test_mutations_counter_survives_exactly(
        self, populated, tmp_path
    ):
        """The second fidelity fix: the freshness counter round-trips.

        Rebuilding resets it to the replayed-op count, which is lower
        than the lived history (deletes, reassignments) — a cache
        validated against the saved count could falsely revalidate.
        """
        populated.delete("redis-vm")
        restored = reload_through_files(populated.repo, tmp_path)
        assert restored.mutations == populated.repo.mutations

    def test_dirty_and_zero_ref_state_survive(
        self, populated, tmp_path
    ):
        populated.delete("redis-vm")  # pending garbage, dirty base
        repo = populated.repo
        assert repo.dirty_bases()
        restored = reload_through_files(repo, tmp_path)
        assert restored.dirty_bases() == repo.dirty_bases()
        assert restored.zero_ref_packages() == repo.zero_ref_packages()
        assert restored.zero_ref_data() == repo.zero_ref_data()
        assert restored.refcounts() == repo.refcounts()
        assert restored.reclaimable_bytes() == repo.reclaimable_bytes()

    def test_version_check(self, populated, tmp_path):
        with pytest.raises(ValueError, match="unsupported snapshot version"):
            restore_into(Repository(), {"version": 99})

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ContentFile.load(tmp_path, generation=1, length=1)
