"""Replayed and restored master vertices are the repository's objects.

Op-log records and snapshots name a master's vertices by blob key, and
reading one back resolves each key against the objects the repository
holds (the package store's, else the base image's own), so a rebuilt
master shares them.  Each content object is written once, to the
content file; a checkpoint after a replay writes none twice.
"""

import io
import pickle
import struct

from repro.core.system import Expelliarmus
from repro.repository.master_graphs import master_content
from repro.repository.persistence import (
    repository_content,
    repository_state,
    restore_into,
)
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
    # the metadata and the content unpickle apart, as a snapshot and
    # its content file do
    state = pickle.loads(
        pickle.dumps(repository_state(system.repo), pickle.HIGHEST_PROTOCOL)
    )
    content = pickle.loads(
        pickle.dumps(
            repository_content(system.repo), pickle.HIGHEST_PROTOCOL
        )
    )
    restored = restore_into(Repository(), state, content)
    assert _stored_vertices(restored) > 0
    assert _unshared_vertices(restored) == []
    assert {
        m.base_key: master_content(m) for m in restored.master_graphs()
    } == {
        m.base_key: master_content(m) for m in system.repo.master_graphs()
    }


def _content_entries(path) -> list[int]:
    """The blob key of every entry of a content file, in file order."""
    data = path.read_bytes()
    keys, offset = [], 0
    while offset < len(data):
        size, _ = struct.unpack_from("<II", data, offset)
        payload = io.BytesIO(data[offset + 8:offset + 8 + size])
        unpickler = pickle.Unpickler(payload)
        while payload.tell() < size:
            keys.append(unpickler.load()[0])
        offset += 8 + size
    return keys


def test_checkpoint_after_replay_writes_each_object_once(tmp_path):
    system = _reopened_after_replay(tmp_path)
    try:
        written = system.save()
        snapshot = system.workspace.snapshot_path.read_bytes()
        repo = system.repo
        content = repository_content(repo)
        stored = {pkg.blob_key() for pkg in repo.packages()}
        own = {
            key: set(repo.own_packages(repo.get_base_image(key)))
            for key in (m.base_key for m in repo.master_graphs())
        }
    finally:
        system.close()
    assert written == len(snapshot)
    entries = _content_entries(tmp_path / "ws" / "content-1.bin")
    assert len(entries) == len(set(entries))
    assert content.keys() <= set(entries)
    # every vertex the package store or its base holds is named by key
    state = pickle.loads(snapshot)
    refs = [(m.base_key, ref) for m in state["masters"] for ref in m.graph.refs]
    assert any(isinstance(ref, int) for _, ref in refs)
    assert not [
        ref for base_key, ref in refs
        if not isinstance(ref, int)
        and ref.blob_key() in stored | own[base_key]
    ]
