"""Replayed and restored master vertices share the repository's objects.

An op-log record or a snapshot unpickles its packages as fresh copies.
A master graph rebuilt from one must point its vertices at the package
store's object with the same blob key (else at the base image's own
package), or every later checkpoint pickles those packages a second
time, for good.
"""

import pickle

from repro.core.system import Expelliarmus
from repro.repository.master_graphs import master_content
from repro.repository.persistence import repository_state, restore_into
from repro.repository.repo import Repository
from repro.workloads.scale import scale_corpus


def _corpus():
    return scale_corpus(
        48, n_families=3, seed="payload-sharing",
        split_base_pct=30, fat_base_pct=0,
    )


def _unshared_vertices(repo) -> list[str]:
    """Master vertices that are copies of an object the repository
    already holds (in the package store, or in the master's base)."""
    copies = []
    for master in repo.master_graphs():
        own = {p.blob_key(): p for p in master.base.packages}
        for key, pkg, _ in master.package_graph.package_nodes():
            held = repo.find_package(pkg.blob_key())
            if held is None:
                held = own.get(pkg.blob_key())
            if held is not None and held is not pkg:
                copies.append(key)
    return copies


def _stored_vertices(repo) -> int:
    return sum(
        repo.find_package(pkg.blob_key()) is not None
        for master in repo.master_graphs()
        for pkg in master.package_graph.packages()
    )


def _reopened_after_replay(tmp_path):
    corpus = _corpus()
    system = Expelliarmus.open(tmp_path / "ws")
    system.publish_many([corpus.build(i) for i in range(24)])
    system.save()
    # joins stored masters (add_master_member) and opens new ones
    # (put_master_graph): both record kinds are replayed below
    system.publish_many([corpus.build(i) for i in range(24, 48)])
    expected = {
        m.base_key: master_content(m) for m in system.repo.master_graphs()
    }
    system.close()
    reopened = Expelliarmus.open(tmp_path / "ws")
    assert reopened.workspace.replayed_ops > 0
    assert {
        m.base_key: master_content(m) for m in reopened.repo.master_graphs()
    } == expected
    return reopened


def test_replayed_vertices_are_the_stored_objects(tmp_path):
    system = _reopened_after_replay(tmp_path)
    try:
        assert _stored_vertices(system.repo) > 0
        assert _unshared_vertices(system.repo) == []
    finally:
        system.close()


def test_snapshot_restore_shares_copied_vertices():
    corpus = _corpus()
    system = Expelliarmus()
    system.publish_many([corpus.build(i) for i in range(48)])
    state = pickle.loads(
        pickle.dumps(repository_state(system.repo), pickle.HIGHEST_PROTOCOL)
    )
    # masters pickled apart from the store: every vertex is a copy
    state["masters"] = pickle.loads(
        pickle.dumps(state["masters"], pickle.HIGHEST_PROTOCOL)
    )
    restored = restore_into(Repository(), state)
    assert _stored_vertices(restored) > 0
    assert _unshared_vertices(restored) == []
    assert {
        m.base_key: master_content(m) for m in restored.master_graphs()
    } == {
        m.base_key: master_content(m) for m in system.repo.master_graphs()
    }


def test_checkpoint_after_replay_pickles_each_package_once(tmp_path):
    system = _reopened_after_replay(tmp_path)
    try:
        written = system.save()
        snapshot = system.workspace.snapshot_path.read_bytes()
    finally:
        system.close()
    assert written == len(snapshot)
    # pickle keeps object identity within one file: a vertex written as
    # a second copy of a stored package loads as a distinct object
    state = pickle.loads(snapshot)
    stored = {p.blob_key(): p for p in state["packages"]}
    vertices = [
        pkg for m in state["masters"] for pkg in m["package_graph"].packages()
    ]
    assert any(pkg.blob_key() in stored for pkg in vertices)
    assert all(
        stored[pkg.blob_key()] is pkg
        for pkg in vertices
        if pkg.blob_key() in stored
    )
