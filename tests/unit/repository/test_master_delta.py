"""The ``add_master_member`` op-log record: a publish's master delta.

A publish that joins a stored master journals the upload's own primary
subgraph, its name and the master's resulting revision — not the whole
merged master — so its journal cost follows the upload.  Replay must
still rebuild every master exactly: the same ordered vertices, edges
and members, and the same ``(base_key, revision)`` pair.
"""

import pickle

import pytest

from repro.core.system import Expelliarmus
from repro.errors import GraphModelError, WorkspaceError
from repro.model.graph import PackageRole, SemanticGraph
from repro.model.package import make_package
from repro.repository import master_graphs
from repro.repository import oplog as oplog_module
from repro.repository.master_graphs import master_content
from repro.repository.oplog import OpLog, replay_ops
from repro.repository.repo import Repository
from repro.similarity.compatibility import is_compatible
from repro.workloads.scale import scale_corpus


class _Recorder:
    """A journal sink keeping each record's pickled bytes."""

    def __init__(self) -> None:
        self.records: list[tuple[str, tuple, bytes]] = []

    def append(self, op, args) -> None:
        blob = pickle.dumps(
            (op, tuple(args)), protocol=pickle.HIGHEST_PROTOCOL
        )
        self.records.append((op, tuple(args), blob))


def _masters(repo) -> dict:
    return {
        m.base_key: (master_content(m), m.revision)
        for m in repo.master_graphs()
    }


def _split_corpus(n=36, families=2, seed="master-delta"):
    return scale_corpus(
        n, n_families=families, seed=seed,
        split_base_pct=50, fat_base_pct=0,
    )


class TestJournalSize:
    def _probe_record(self, n_members: int) -> tuple[str, tuple, bytes]:
        corpus = scale_corpus(64, n_families=1, seed="delta-size")
        system = Expelliarmus()
        for index in range(n_members):
            system.publish(corpus.build(index))
        recorder = _Recorder()
        system.repo.attach_journal(recorder)
        system.publish(corpus.build(63))
        (merge,) = [
            r for r in recorder.records
            if r[0] in ("put_master_graph", "add_master_member")
        ]
        return merge

    def test_stored_master_publish_journals_only_the_upload(self):
        small = self._probe_record(5)
        large = self._probe_record(60)
        assert small[0] == large[0] == "add_master_member"
        # the same upload into the same base: only the revision drawn
        # for it can differ, and masking it leaves identical bytes
        def masked(record):
            op, args, _ = record
            return pickle.dumps(
                (op, args[:-1] + (0,)), protocol=pickle.HIGHEST_PROTOCOL
            )

        assert masked(small) == masked(large)
        assert abs(len(small[2]) - len(large[2])) <= 8

    def test_records_name_stored_vertices_by_key(self):
        _, args, _ = self._probe_record(5)
        refs = args[1].refs
        assert refs and all(isinstance(ref, int) for ref in refs)

    def test_unjournaled_publishes_build_no_records(self, monkeypatch):
        """Without a journal nothing is encoded by reference: the
        in-memory path does no work for durability."""

        def unexpected(*args):
            raise AssertionError("encoded a record with no journal")

        monkeypatch.setattr(SemanticGraph, "to_refs", unexpected)
        corpus = scale_corpus(8, n_families=1, seed="delta-size")
        system = Expelliarmus()
        report = system.publish_many([corpus.build(i) for i in range(8)])
        assert report.n_failed == 0

    def test_new_base_still_journals_the_full_master(self):
        corpus = scale_corpus(4, n_families=1, seed="delta-size")
        system = Expelliarmus()
        recorder = _Recorder()
        system.repo.attach_journal(recorder)
        system.publish(corpus.build(0))
        ops = [r[0] for r in recorder.records]
        assert "put_master_graph" in ops
        assert "add_master_member" not in ops


def _mixed_workspace(path):
    """A never-checkpointed workspace whose op-log mixes master deltas
    with full puts from base replacement, incremental GC and rebase."""
    corpus = _split_corpus()
    system = Expelliarmus.open(path)
    legacy = set(corpus.legacy_names())
    # given order: split-base families replace bases on publish
    for index in range(30):
        system.publish(corpus.build(index))
    system.delete_many([n for n in system.published_names() if n in legacy])
    system.garbage_collect()
    assert system.rebase().candidates_applied > 0
    for index in range(30, 36):
        if corpus.spec(index).name not in legacy:
            system.publish(corpus.build(index))
    return system


class TestMixedReplay:
    @pytest.fixture
    def mixed(self, tmp_path):
        system = _mixed_workspace(tmp_path / "ws")
        yield system, tmp_path / "ws"
        system.close()

    def test_log_mixes_deltas_with_full_puts(self, mixed):
        _, ws = mixed
        ops = [r.op for r in OpLog.read(ws / "oplog.bin").ops]
        assert "repoint_vmis" in ops  # a base replacement ran
        assert "clear_base_dirty" in ops  # GC rebuilt a master
        assert ops.count("put_master_graph") > ops.count("store_base_image")
        assert "add_master_member" in ops

    def test_replay_ops_rebuilds_masters_exactly(self, mixed):
        system, ws = mixed
        scan = OpLog.read(ws / "oplog.bin")
        replayed = Repository()
        assert replay_ops(replayed, scan.ops) == scan.n_ops
        assert replayed.mutations == system.repo.mutations
        assert _masters(replayed) == _masters(system.repo)
        assert replayed.refcounts() == system.repo.refcounts()

    def test_reopen_rebuilds_masters_exactly(self, mixed):
        system, ws = mixed
        live = _masters(system.repo)
        mutations = system.repo.mutations
        system.close()
        reopened = Expelliarmus.open(ws)
        try:
            assert _masters(reopened.repo) == live
            assert reopened.repo.mutations == mutations
            assert reopened.fsck().clean
        finally:
            reopened.close()


def _record_offsets(path) -> list[tuple[str, int, int]]:
    """(op, start, end) byte range of every record after the header."""
    offsets = []
    with open(path, "rb") as file:
        pickle.load(file)
        while True:
            start = file.tell()
            try:
                op, _ = pickle.load(file)
            except EOFError:
                break
            offsets.append((op, start, file.tell()))
    return offsets


def test_torn_add_master_member_reopens_without_that_vmi(tmp_path):
    corpus = scale_corpus(6, n_families=1, seed="delta-torn")
    ws = tmp_path / "ws"
    system = Expelliarmus.open(ws)
    for index in range(6):
        system.publish(corpus.build(index))
    last = corpus.spec(5).name
    system.close()

    log = ws / "oplog.bin"
    op, start, end = _record_offsets(log)[-2]
    assert op == "add_master_member"  # just before the last record_vmi
    log.write_bytes(log.read_bytes()[: (start + end) // 2])

    reopened = Expelliarmus.open(ws)
    try:
        assert reopened.workspace.replayed_ops > 0
        assert last not in reopened.published_names()
        assert all(
            last not in m.member_vmis
            for m in reopened.repo.master_graphs()
        )
        assert reopened.fsck().clean
        # the master is still open for members: republishing works
        reopened.publish(corpus.build(5))
        assert reopened.fsck().clean
    finally:
        reopened.close()


def test_reader_without_the_op_refuses_and_changes_no_file(
    tmp_path, monkeypatch
):
    """A build that predates ``add_master_member`` refuses the log."""
    corpus = scale_corpus(4, n_families=1, seed="delta-old-reader")
    ws = tmp_path / "ws"
    system = Expelliarmus.open(ws)
    for index in range(4):
        system.publish(corpus.build(index))
    system.close()
    before = {p.name: p.read_bytes() for p in ws.iterdir()}
    monkeypatch.setattr(
        oplog_module,
        "_REPLAYABLE_OPS",
        oplog_module._REPLAYABLE_OPS - {"add_master_member"},
    )
    with pytest.raises(WorkspaceError, match="add_master_member"):
        Expelliarmus.open(ws)
    assert {p.name: p.read_bytes() for p in ws.iterdir()} == before


class TestMemberCompatibility:
    """``add_master_member`` checks the upload against the base once,
    before anything is journaled."""

    @pytest.fixture
    def stored(self):
        system = Expelliarmus()
        system.publish(scale_corpus(4, n_families=1, seed="member").build(0))
        (master,) = system.repo.master_graphs()
        recorder = _Recorder()
        system.repo.attach_journal(recorder)
        return system.repo, master, recorder

    @staticmethod
    def _upload(pkg):
        graph = SemanticGraph()
        graph.add_package(pkg, PackageRole.PRIMARY)
        return graph

    def test_incompatible_member_raises_with_nothing_journaled(self, stored):
        repo, master, recorder = stored
        clash = master.base.packages[0]
        upload = self._upload(make_package(clash.name, "999.0"))
        before = (
            master_content(master), master.revision,
            list(master.member_vmis), repo.mutations,
        )
        with pytest.raises(GraphModelError):
            repo.add_master_member(master.base_key, upload, "clash-vm")
        assert recorder.records == []
        assert before == (
            master_content(master), master.revision,
            list(master.member_vmis), repo.mutations,
        )

    def test_compatible_member_is_checked_once(self, stored, monkeypatch):
        repo, master, recorder = stored
        checks = []

        def counting(base_subgraph, subgraph):
            checks.append(subgraph)
            return is_compatible(base_subgraph, subgraph)

        monkeypatch.setattr(master_graphs, "is_compatible", counting)
        upload = self._upload(make_package("member-only-tool", "1.0"))
        repo.add_master_member(master.base_key, upload, "tool-vm")
        assert checks == [upload]
        assert [r[0] for r in recorder.records] == ["add_master_member"]
        assert master.member_vmis[-1] == "tool-vm"
        assert master.has_package("member-only-tool")
