"""Integration: the restart/crash workload over a real workspace.

Drives :func:`~repro.workloads.restart.restart_schedule` twice — once
through a durable workspace that is genuinely closed and reopened
between sessions (crash sessions skip the checkpoint, so reopening
leans on write-ahead-log replay), and once through a *shadow* system
that lives in memory the whole time and never restarts.  Durability
must be invisible: after every session boundary the reopened
repository matches the shadow on storage, records, refcounts, dirty
state and retrieval results, and fsck stays clean.
"""

import pytest

from repro.core.system import Expelliarmus
from repro.repository.master_graphs import master_content
from repro.workloads.restart import RestartConfig, restart_schedule
from repro.workloads.scale import scale_corpus


def _observable(repo) -> dict:
    """State that must be identical with and without restarts.

    Master revision *values* are excluded: both drivers share the
    process-wide revision source, so equivalent states carry different
    tokens — membership and everything derived from it must agree.
    """
    return {
        "blobs": {
            (r.key, r.kind.value, r.size) for r in repo.blobs.records()
        },
        "records": {r.name for r in repo.vmi_records()},
        "masters": {
            m.base_key: master_content(m) for m in repo.master_graphs()
        },
        "refcounts": repo.refcounts(),
        "dirty": repo.dirty_bases(),
        "reclaimable": repo.reclaimable_bytes(),
        "mutations": repo.mutations,
    }


@pytest.mark.parametrize("crash_fraction", [0.0, 1.0])
def test_restart_workload_matches_shadow(tmp_path, crash_fraction):
    corpus = scale_corpus(20, n_families=4)
    config = RestartConfig(
        n_sessions=4,
        churn_pct=25,
        crash_fraction=crash_fraction,
        seed="integration",
    )
    plans = restart_schedule(corpus, config)
    store = tmp_path / "store"
    shadow = Expelliarmus()

    for plan in plans:
        system = Expelliarmus.open(store)
        assert _observable(system.repo) == _observable(shadow.repo)

        for index in plan.publish_indices:
            system.publish(corpus.build(index))
            shadow.publish(corpus.build(index))
        if plan.delete_names:
            durable = system.delete_many(list(plan.delete_names))
            memory = shadow.delete_many(list(plan.delete_names))
            assert durable.n_failed == memory.n_failed == 0
        if plan.run_gc:
            a = system.garbage_collect()
            b = shadow.garbage_collect()
            assert a.reclaimed_bytes == b.reclaimed_bytes
            assert a.records_scanned == b.records_scanned

        if not plan.crash:
            system.save()
        system.close()

    final = Expelliarmus.open(store)
    assert _observable(final.repo) == _observable(shadow.repo)
    assert final.fsck().clean
    for name in sorted(final.published_names())[:3]:
        a = final.retrieve(name)
        b = shadow.retrieve(name)
        assert a.imported_packages == b.imported_packages
        assert a.vmi.full_manifest() == b.vmi.full_manifest()
    final.close()


def test_torn_tail_crash_recovers_to_last_complete_op(tmp_path):
    """A crash mid-append loses exactly the torn record, nothing more."""
    corpus = scale_corpus(6, n_families=2)
    store = tmp_path / "store"
    system = Expelliarmus.open(store)
    for index in range(6):
        system.publish(corpus.build(index))
    pre_crash = _observable(system.repo)
    system.close()

    oplog = store / "oplog.bin"
    blob = oplog.read_bytes()
    oplog.write_bytes(blob[: len(blob) - 11])  # tear the final record

    recovered = Expelliarmus.open(store)
    # the torn op (part of the last publish) is gone; every complete
    # record replayed — the store is consistent up to that op
    assert recovered.repo.mutations <= pre_crash["mutations"]
    assert recovered.workspace.replayed_ops > 0
    recovered.close()
