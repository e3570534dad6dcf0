"""Workspaces written while semantic graphs wrapped networkx still open.

The fixtures under ``tests/fixtures`` were written by
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
from repro.service.protocol import manifest_digest

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
