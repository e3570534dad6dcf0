"""Workspaces written in older on-disk layouts still open.

``full_master_workspace`` was written by
``tests/fixtures/make_full_master_workspace.py`` at the last commit
whose publishes journaled the whole merged master graph
(``put_master_graph``) instead of the upload's delta
(``add_master_member``): a snapshot plus an un-checkpointed op-log of
such publishes, a delete and an incremental GC pass.

``v2_workspace`` was written by ``tests/fixtures/make_v2_workspace.py``
at the last commit before the content file: a snapshot in format v2
(every stored object by value) plus an un-checkpointed op-log (header
version 1) of publishes into stored masters, whose
``add_master_member`` records hold the upload's subgraph by value, and
a delete.

The networkx fixtures were written by
``tests/fixtures/make_networkx_workspace.py`` at the last commit whose
snapshots and op-log records pickled each ``SemanticGraph`` as a
``networkx.DiGraph``:

* ``networkx_workspace`` — a checkpointed snapshot plus an op-log tail
  of publishes, a delete and a full GC that was never checkpointed;
* ``networkx_oplog_workspace`` — never checkpointed: no snapshot, every
  publish only in the op-log.

``digests.json`` holds what every surviving VMI retrieved there.
Unpickling that layout needs networkx; converting it does not, and the
next checkpoint rewrites the workspace without it.  Without networkx
the open must fail with a clear error and leave every file untouched —
never read an unimportable record as a torn tail and truncate it.
"""

import json
import pickle
import shutil
import sys
from pathlib import Path

import pytest

from repro.core.system import Expelliarmus
from repro.errors import WorkspaceError
from repro.image import manifest as manifest_module
from repro.model import graph as graph_module
from repro.model import package as package_module
from repro.model.package import Package
from repro.repository import master_graphs as master_graphs_module
from repro.repository import oplog as oplog_module
from repro.repository import persistence
from repro.repository.oplog import OpLog
from repro.service.protocol import manifest_digest
from repro.workloads.scale import scale_corpus

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
LEGACY = ("networkx_workspace", "networkx_oplog_workspace")


def _retrievals(system) -> dict:
    out = {}
    for name in system.published_names():
        got = system.retrieve(name)
        out[name] = [
            manifest_digest(got.vmi.full_manifest()),
            list(got.imported_packages),
        ]
    return out


def _copy(tmp_path, fixture: str) -> Path:
    # opening replays and re-attaches the journal: never touch the
    # committed fixture itself
    ws = tmp_path / fixture
    shutil.copytree(FIXTURES / fixture, ws)
    return ws


def _block_networkx(monkeypatch) -> None:
    for name in [m for m in sys.modules if m.startswith("networkx.")]:
        monkeypatch.setitem(sys.modules, name, None)
    monkeypatch.setitem(sys.modules, "networkx", None)


@pytest.mark.parametrize("fixture", LEGACY)
def test_legacy_workspace_opens_and_retrieves_recorded_digests(
    tmp_path, fixture
):
    pytest.importorskip("networkx")
    ws = _copy(tmp_path, fixture)
    recorded = json.loads((ws / "digests.json").read_text())
    system = Expelliarmus.open(ws)
    try:
        assert system.fsck().clean
        assert _retrievals(system) == recorded
    finally:
        system.close()


@pytest.mark.parametrize("fixture", LEGACY)
def test_checkpoint_rewrites_legacy_workspace_without_networkx(
    tmp_path, fixture
):
    pytest.importorskip("networkx")
    ws = _copy(tmp_path, fixture)
    recorded = json.loads((ws / "digests.json").read_text())
    system = Expelliarmus.open(ws)
    system.save()
    system.close()
    for name in ("snapshot.bin", "oplog.bin"):
        assert b"networkx" not in (ws / name).read_bytes()
    reopened = Expelliarmus.open(ws)
    try:
        assert reopened.fsck().clean
        assert _retrievals(reopened) == recorded
    finally:
        reopened.close()


@pytest.mark.parametrize("fixture", LEGACY)
def test_legacy_workspace_without_networkx_is_refused_untouched(
    tmp_path, monkeypatch, fixture
):
    ws = _copy(tmp_path, fixture)
    before = {p.name: p.read_bytes() for p in ws.iterdir()}
    _block_networkx(monkeypatch)
    with pytest.raises(WorkspaceError, match="install networkx"):
        Expelliarmus.open(ws)
    after = {
        p.name: p.read_bytes() for p in ws.iterdir() if p.name != "lock"
    }
    assert after == before
    # the failed open released its lock: a retry in this process gets
    # the same error, not "locked by running process"
    with pytest.raises(WorkspaceError, match="install networkx"):
        Expelliarmus.open(ws)


#: the corpus make_full_master_workspace.py publishes from: its
#: CORPUS_SIZE, CORPUS_SEED and WRITTEN (images already in the fixture)
FULL_MASTER_CORPUS = (12, "full-master-oplog", 9)


def _file_bytes(ws: Path) -> dict:
    return {
        p.name: p.read_bytes() for p in ws.iterdir() if p.name != "lock"
    }


def test_full_master_oplog_replays_and_accepts_new_publishes(tmp_path):
    fixture = "full_master_workspace"
    # the layout under test: every publish into a stored master is a
    # whole-master record, and no master-delta record exists yet
    ops = [r.op for r in OpLog.read(FIXTURES / fixture / "oplog.bin").ops]
    assert ops.count("put_master_graph") > ops.count("store_base_image")
    assert "add_master_member" not in ops

    ws = _copy(tmp_path, fixture)
    pristine = _file_bytes(ws)
    recorded = json.loads(pristine["digests.json"])
    system = Expelliarmus.open(ws)
    try:
        assert system.workspace.replayed_ops == len(ops)
        assert system.fsck().clean
        assert _retrievals(system) == recorded
    finally:
        system.close()
    # opening, checking and retrieving write nothing
    assert _file_bytes(ws) == pristine

    # publish the corpus' remaining images on top: the old records
    # stay as they are, the new ones append after them
    size, seed, written = FULL_MASTER_CORPUS
    corpus = scale_corpus(size, n_families=2, seed=seed)
    system = Expelliarmus.open(ws)
    for index in range(written, size):
        system.publish(corpus.build(index))
    expected = _retrievals(system)
    system.close()
    grown = _file_bytes(ws)
    assert grown["snapshot.bin"] == pristine["snapshot.bin"]
    assert grown["oplog.bin"].startswith(pristine["oplog.bin"])
    new_ops = [r.op for r in OpLog.read(ws / "oplog.bin").ops[len(ops):]]
    assert "add_master_member" in new_ops

    reopened = Expelliarmus.open(ws)
    try:
        assert reopened.fsck().clean
        assert _retrievals(reopened) == expected
        assert {name: expected[name] for name in recorded} == recorded
        reopened.save()
    finally:
        reopened.close()
    # the checkpoint is the first write to the old layout's files
    assert _file_bytes(ws)["snapshot.bin"] != pristine["snapshot.bin"]
    assert OpLog.read(ws / "oplog.bin").n_ops == 0


def test_older_reader_refuses_new_package_records_untouched(
    tmp_path, monkeypatch
):
    """A build whose ``Package`` predates ``_unpickle_package`` (and has
    no ``__setstate__``) still reads the fixture's snapshot, then meets
    this build's ``store_package`` records in the op-log: it must refuse
    the workspace, not truncate the log at the first of them."""
    ws = _copy(tmp_path, "full_master_workspace")
    size, seed, written = FULL_MASTER_CORPUS
    corpus = scale_corpus(size, n_families=2, seed=seed)
    system = Expelliarmus.open(ws)
    system.publish(corpus.build(written))
    system.close()
    grown = _file_bytes(ws)
    ops = [r.op for r in OpLog.read(ws / "oplog.bin").ops]
    assert "store_package" in ops

    with monkeypatch.context() as older:
        older.delattr(package_module, "_unpickle_package")
        older.delattr(Package, "__setstate__")
        with pytest.raises(WorkspaceError, match="op-log .* cannot load"):
            Expelliarmus.open(ws)
    assert _file_bytes(ws) == grown

    reopened = Expelliarmus.open(ws)
    try:
        assert reopened.workspace.replayed_ops == len(ops)
        assert reopened.fsck().clean
    finally:
        reopened.close()


def test_manifest_arrays_of_the_fixture_load_and_leave_at_checkpoint(
    tmp_path,
):
    """``full_master_workspace`` pickles each manifest as three numpy
    arrays (the ``(None, slots)`` state).  It opens and stays
    byte-identical until its first checkpoint, which rewrites every
    manifest as one buffer: no numpy global is left in either file."""
    ws = _copy(tmp_path, "full_master_workspace")
    pristine = _file_bytes(ws)
    recorded = json.loads(pristine["digests.json"])
    assert b"numpy" in pristine["snapshot.bin"]
    system = Expelliarmus.open(ws)
    try:
        assert system.fsck().clean
        assert _retrievals(system) == recorded
    finally:
        system.close()
    assert _file_bytes(ws) == pristine

    system = Expelliarmus.open(ws)
    system.save()
    system.close()
    for name in ("snapshot.bin", "oplog.bin"):
        assert b"numpy" not in (ws / name).read_bytes()
    reopened = Expelliarmus.open(ws)
    try:
        assert reopened.fsck().clean
        assert _retrievals(reopened) == recorded
    finally:
        reopened.close()


def _older_manifest_reader(context) -> None:
    """This process as a build that predates ``_unpickle_manifest``:
    no rebuild functions, manifests pickled through their slots."""
    from repro.image import manifest as manifest_module
    from repro.image.manifest import FileManifest

    def slots_state(self):
        return None, {
            "_ids": self._ids, "_sizes": self._sizes, "_ratios": self._ratios
        }

    context.delattr(manifest_module, "_unpickle_manifest")
    context.delattr(manifest_module, "_unpickle_sized_manifest")
    context.delattr(FileManifest, "__reduce__")
    context.setattr(FileManifest, "__getstate__", slots_state, raising=False)


@pytest.mark.parametrize("checkpointed", (True, False))
def test_older_reader_refuses_new_manifest_records_untouched(
    tmp_path, monkeypatch, checkpointed
):
    """A build without the manifest rebuild functions meets this build's
    manifest records — in the content file, or (never checkpointed) in
    the op-log's ``store_user_data`` / ``store_base_image`` records: it
    must refuse the workspace, not read them as a torn tail."""
    ws = tmp_path / "ws"
    corpus = scale_corpus(4, n_families=1, seed="older-manifest-reader")
    system = Expelliarmus.open(ws)
    system.publish_many([corpus.build(i) for i in range(3)])
    if checkpointed:
        system.save()
    system.publish(corpus.build(3))
    system.close()
    written = _file_bytes(ws)
    ops = [r.op for r in OpLog.read(ws / "oplog.bin").ops]
    assert "store_user_data" in ops

    where = "content file" if checkpointed else "op-log"
    with monkeypatch.context() as older:
        _older_manifest_reader(older)
        with pytest.raises(WorkspaceError, match=f"{where} .* cannot load"):
            Expelliarmus.open(ws)
    assert _file_bytes(ws) == written

    reopened = Expelliarmus.open(ws)
    try:
        assert reopened.workspace.replayed_ops == len(ops)
        assert reopened.fsck().clean
    finally:
        reopened.close()


#: the corpus make_v2_workspace.py publishes from: its CORPUS_SIZE,
#: CORPUS_SEED and WRITTEN (images already in the fixture)
V2_CORPUS = (12, "v2-workspace", 9)


def test_v2_workspace_opens_untouched_and_converts_at_checkpoint(
    tmp_path, monkeypatch
):
    fixture = "v2_workspace"
    ops = [r.op for r in OpLog.read(FIXTURES / fixture / "oplog.bin").ops]
    assert {"add_master_member", "record_vmi"} <= set(ops)
    ws = _copy(tmp_path, fixture)
    pristine = _file_bytes(ws)
    assert pickle.loads(pristine["snapshot.bin"])["version"] == 2
    recorded = json.loads(pristine["digests.json"])
    system = Expelliarmus.open(ws)
    try:
        assert system.workspace.replayed_ops == len(ops)
        assert system.fsck().clean
        assert _retrievals(system) == recorded
    finally:
        system.close()
    # opening, checking and retrieving write nothing
    assert _file_bytes(ws) == pristine

    # publishes append to the old log; no other file changes
    size, seed, written = V2_CORPUS
    corpus = scale_corpus(size, n_families=2, seed=seed)
    system = Expelliarmus.open(ws)
    for index in range(written, size):
        system.publish(corpus.build(index))
    expected = _retrievals(system)
    system.close()
    grown = _file_bytes(ws)
    assert grown.keys() == pristine.keys()
    assert grown["snapshot.bin"] == pristine["snapshot.bin"]
    assert grown["oplog.bin"].startswith(pristine["oplog.bin"])
    # a build that predates the content file reads the old log's header
    # but lacks names the appended records carry: it must refuse them,
    # not read them as a torn tail and truncate them
    with monkeypatch.context() as older:
        older.delattr(graph_module, "GraphRefs")
        older.delattr(master_graphs_module, "MasterRefs")
        older.delattr(manifest_module, "_unpickle_sized_manifest")
        with pytest.raises(WorkspaceError, match="op-log .* cannot load"):
            Expelliarmus.open(ws)
    assert _file_bytes(ws) == grown

    reopened = Expelliarmus.open(ws)
    try:
        assert reopened.fsck().clean
        assert _retrievals(reopened) == expected
        assert {name: expected[name] for name in recorded} == recorded
        reopened.save()
    finally:
        reopened.close()
    # the first checkpoint converts: content file, v3 snapshot, and a
    # fresh log in the current header version
    converted = _file_bytes(ws)
    assert "content-1.bin" in converted
    assert pickle.loads(converted["snapshot.bin"])["version"] == 3
    assert OpLog.read(ws / "oplog.bin").n_ops == 0
    assert pickle.loads(converted["oplog.bin"])["oplog"] == 2
    reopened = Expelliarmus.open(ws)
    try:
        assert reopened.workspace.replayed_ops == 0
        assert reopened.fsck().clean
        assert _retrievals(reopened) == expected
    finally:
        reopened.close()


def _content_file_predating_reader(context) -> None:
    """This process as a build that predates the content file: it reads
    snapshot formats v1 and v2 and op-log header version 1 only, and
    has neither ``GraphRefs``, ``MasterRefs`` nor
    ``_unpickle_sized_manifest``."""
    context.setattr(persistence, "_FORMAT_VERSION", 2)
    context.setattr(persistence, "_LEGACY_VERSIONS", (1,))
    context.setattr(oplog_module, "_READABLE_VERSIONS", (1,))
    context.delattr(graph_module, "GraphRefs")
    context.delattr(master_graphs_module, "MasterRefs")
    context.delattr(manifest_module, "_unpickle_sized_manifest")


@pytest.mark.parametrize("checkpointed", (True, False))
def test_older_reader_refuses_a_content_file_workspace_untouched(
    tmp_path, monkeypatch, checkpointed
):
    """A build that predates the content file meets a workspace written
    now — checkpointed (a v3 snapshot and a content file), or only an
    op-log — and must refuse it, changing no file."""
    ws = tmp_path / "ws"
    corpus = scale_corpus(4, n_families=1, seed="older-workspace-reader")
    system = Expelliarmus.open(ws)
    system.publish_many([corpus.build(i) for i in range(3)])
    if checkpointed:
        system.save()
    system.publish(corpus.build(3))
    system.close()
    written = _file_bytes(ws)
    assert ("content-1.bin" in written) == checkpointed

    with monkeypatch.context() as older:
        _content_file_predating_reader(older)
        with pytest.raises(WorkspaceError):
            Expelliarmus.open(ws)
    assert _file_bytes(ws) == written

    reopened = Expelliarmus.open(ws)
    try:
        assert reopened.fsck().clean
        assert sorted(reopened.published_names()) == sorted(
            corpus.spec(i).name for i in range(4)
        )
    finally:
        reopened.close()
