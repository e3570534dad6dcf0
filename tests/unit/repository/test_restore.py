"""Unit tests for the one-pass snapshot restore (``Repository.restore``)."""

import pickle

import pytest
from restore_oracle import legacy_state

from repro.image.builder import BuildRecipe
from repro.repository.locking import RepositoryLock
from repro.repository.persistence import (
    repository_content,
    repository_state,
    restore_into,
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


class TestOnePassRestore:
    """``Repository.restore``: the snapshot's one write-lock hold."""

    def _state(self, populated) -> tuple[dict, dict]:
        """A pickled round trip of the v3 state and its content."""
        repo = populated.repo
        return pickle.loads(
            pickle.dumps(
                (repository_state(repo), repository_content(repo)),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        )

    def test_restore_journals_nothing(self, populated):
        journal = []

        class _Journal:
            def append(self, op, args):
                journal.append(op)

        repo = Repository()
        repo.attach_journal(_Journal())
        restore_into(repo, *self._state(populated))
        assert journal == []
        assert repo.vmi_count() == 2

    def test_restore_takes_the_write_lock_once(self, populated, monkeypatch):
        top_level = []
        acquire = RepositoryLock.acquire_write

        def counting(lock, timeout=None):
            if not lock.write_held:
                top_level.append(lock)
            acquire(lock, timeout)

        monkeypatch.setattr(RepositoryLock, "acquire_write", counting)
        repo = Repository()
        restore_into(repo, *self._state(populated))
        assert top_level == [repo.lock]

    def test_restore_refuses_a_repository_that_is_not_empty(self, populated):
        repo = restore_into(Repository(), *self._state(populated))
        with pytest.raises(ValueError, match="empty repository"):
            restore_into(repo, *self._state(populated))

    def test_v1_state_counts_one_mutation_per_restored_object(
        self, populated
    ):
        state = legacy_state(populated.repo)
        state["version"] = 1
        del state["mutations"]
        repo = restore_into(Repository(), state)
        assert repo.mutations == sum(
            len(state[section])
            for section in ("bases", "packages", "data", "masters", "records")
        )

    def test_counter_behind_the_content_is_refused(self, populated):
        state, content = self._state(populated)
        state["mutations"] = 1
        with pytest.raises(ValueError, match="may not move backwards"):
            restore_into(Repository(), state, content)

    def test_keys_and_sizes_are_taken_as_given(self, populated, monkeypatch):
        """A v3 restore re-derives no blob key and no base image size:
        the snapshot names both."""
        from repro.repository import repo as repo_module

        state, content = self._state(populated)
        for obj in content.values():
            obj.__dict__.pop("_blob_key", None)
        derived = []
        monkeypatch.setattr(
            repo_module, "base_image_qcow2", lambda base: derived.append(base)
        )
        monkeypatch.setattr(
            repo_module.Package, "blob_key", lambda pkg: derived.append(pkg)
        )
        repo = restore_into(Repository(), state, content)
        assert derived == []
        assert repo.total_bytes() == populated.repo.total_bytes()

    def test_a_key_the_content_lacks_is_refused(self, populated):
        state, content = self._state(populated)
        del content[state["packages"][0]]
        with pytest.raises(ValueError, match="no content holds"):
            restore_into(Repository(), state, content)
