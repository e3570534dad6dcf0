"""Workspaces written in older on-disk layouts still open.

``full_master_workspace`` was written by
``tests/fixtures/make_full_master_workspace.py`` at the last commit
whose publishes journaled the whole merged master graph
(``put_master_graph``) instead of the upload's delta
(``add_master_member``): a snapshot plus an un-checkpointed op-log of
such publishes, a delete and an incremental GC pass.

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
import shutil
import sys
from pathlib import Path

import pytest

from repro.core.system import Expelliarmus
from repro.errors import WorkspaceError
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
