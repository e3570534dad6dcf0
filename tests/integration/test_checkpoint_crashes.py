"""A crash at each step of a checkpoint recovers the same repository.

``Workspace.checkpoint`` appends new content to the content file (or,
past the compaction rule, writes the live content as the next
generation), replaces the snapshot, resets the op-log and removes the
content files of other generations.  Each case below stops the process
at one step — the workspace is abandoned without ``close``, as a crash
leaves it — and reopens it: the repository must come back fsck-clean
with the same observable state, master content, revisions and mutation
counter, and the next checkpoint must leave exactly one content file.
"""

import pytest

from repro.core.system import Expelliarmus
from repro.repository.master_graphs import master_content
from repro.repository.oplog import OpLog
from repro.repository.persistence import ContentFile, repository_content
from repro.workloads.scale import scale_corpus


class _Crash(Exception):
    """The process stops here."""


def _observable(repo) -> dict:
    return {
        "records": repo.vmi_records(),
        "contributions": {
            rec.name: repo.vmi_contribution(rec.name)
            for rec in repo.vmi_records()
        },
        "bytes": (repo.total_bytes(), repo.bytes_by_kind()),
        "blobs": sorted(
            (b.key, b.kind.value, b.size) for b in repo.blobs.records()
        ),
        "refcounts": repo.refcounts(),
        "zero": (
            repo.zero_ref_packages(),
            repo.zero_ref_data(),
            repo.zero_ref_bases(),
        ),
        "dirty": repo.dirty_bases(),
        "masters": {
            m.base_key: (master_content(m), m.revision)
            for m in repo.master_graphs()
        },
        "mutations": repo.mutations,
    }


def _crash_after(monkeypatch, owner, name, tear=False):
    """Make ``owner.name`` stop the process once it has run (with
    ``tear``: after cutting the frame it appended in half)."""
    original = getattr(owner, name)

    def crashing(self, *args, **kwargs):
        before = self.length
        original(self, *args, **kwargs)
        if tear:
            with open(self.path, "r+b") as file:
                file.truncate(before + (self.length - before) // 2)
        raise _Crash(name)

    monkeypatch.setattr(owner, name, crashing)


def _crash_before(monkeypatch, owner, name):
    def crashing(*args, **kwargs):
        raise _Crash(name)

    monkeypatch.setattr(owner, name, crashing)


#: (step, compacting?, how to stop there)
STEPS = {
    "segment-append": (
        False,
        lambda mp: _crash_after(mp, ContentFile, "append"),
    ),
    "torn-segment-append": (
        False,
        lambda mp: _crash_after(mp, ContentFile, "append", tear=True),
    ),
    "snapshot-replace": (
        False,
        lambda mp: _crash_before(mp, OpLog, "create"),
    ),
    "oplog-reset": (
        False,
        lambda mp: _crash_before(mp, ContentFile, "remove_other_generations"),
    ),
    "new-generation-write": (
        True,
        lambda mp: _crash_after(mp, ContentFile, "rewrite"),
    ),
    "old-generation-removal": (
        True,
        lambda mp: _crash_before(mp, ContentFile, "remove_other_generations"),
    ),
}


def _session(path, compacting: bool) -> Expelliarmus:
    """A checkpointed workspace with an op-log tail; with
    ``compacting``, most of its content is dead by then, so the next
    checkpoint writes a new generation."""
    corpus = scale_corpus(16, n_families=2, seed="checkpoint-crashes")
    system = Expelliarmus.open(path)
    system.publish_many([corpus.build(i) for i in range(10)])
    system.save()
    system.publish_many([corpus.build(i) for i in range(10, 16)])
    if compacting:
        system.delete_many(system.published_names()[2:])
        system.garbage_collect(full=True)
    else:
        system.delete(system.published_names()[0])
    return system


@pytest.mark.parametrize("step", sorted(STEPS))
def test_crash_at_checkpoint_step_recovers(tmp_path, monkeypatch, step):
    compacting, stop = STEPS[step]
    path = tmp_path / "ws"
    system = _session(path, compacting)
    live = repository_content(system.repo)
    content = system.workspace._content
    assert content.needs_compaction(live) == compacting
    before = _observable(system.repo)

    with monkeypatch.context() as mp:
        stop(mp)
        with pytest.raises(_Crash):
            system.save()
    # abandoned, not closed: the crash idiom of the restart suites

    recovered = Expelliarmus.open(path)
    try:
        assert recovered.fsck().clean
        assert _observable(recovered.repo) == before
        recovered.save()
    finally:
        recovered.close()
    files = sorted(p.name for p in path.glob("content-*.bin"))
    assert len(files) == 1
    reopened = Expelliarmus.open(path)
    try:
        assert reopened.workspace.replayed_ops == 0
        assert reopened.fsck().clean
        assert _observable(reopened.repo) == before
    finally:
        reopened.close()


def test_compaction_keeps_only_live_content(tmp_path):
    path = tmp_path / "ws"
    system = _session(path, compacting=True)
    try:
        size = (path / "content-1.bin").stat().st_size
        system.save()
        assert not (path / "content-1.bin").exists()
        compacted = path / "content-2.bin"
        assert 0 < compacted.stat().st_size < size
        live = set(repository_content(system.repo))
        assert set(system.workspace._content.sizes) == live
        before = _observable(system.repo)
    finally:
        system.close()
    reopened = Expelliarmus.open(path)
    try:
        assert reopened.fsck().clean
        assert _observable(reopened.repo) == before
    finally:
        reopened.close()
