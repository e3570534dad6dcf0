"""Bench: workspace reopen cost — op-log replay vs snapshot vs rebuild.

Publishes generated multi-family corpora into a durable workspace and
measures what a *new process* pays to get the repository back, three
ways:

* **snapshot reopen** — checkpoint right before exit; reopen is a pure
  snapshot load (format v3: the metadata, plus one read of the content
  file).  O(repository).
* **op-log reopen** — a burst of post-checkpoint churn (a fixed-size
  delete round, so the op count is independent of corpus size) ends
  without a checkpoint, as a crash would; reopen is snapshot load +
  write-ahead-log replay.  The *marginal* cost over the snapshot
  reopen is the replay — O(ops since checkpoint), not O(repository),
  which is the durability design's headline property.
* **from-scratch rebuild** — what a process without persistence pays:
  re-publishing the whole corpus through Algorithm 1.

Reopened repositories are asserted observationally identical to the
pre-exit original (blobs, records, master contents — ordered vertices,
edges and members — and revisions, refcounts, dirty state, mutation
counter) and fsck-clean; the seed-randomised version
of that equivalence lives in
``tests/property/test_persistence_props.py``.

Run with ``pytest benchmarks/bench_persistence.py`` (add ``-k smoke``
for the CI-sized corpus).  With ``BENCH_JSON_DIR`` set, the sweep is
written as ``BENCH_persistence.json`` for the perf-trajectory
artifacts.
"""

import time

import pytest

from benchmarks.conftest import attach_series, write_bench_json
from repro.core.system import Expelliarmus
from repro.experiments.reporting import ExperimentResult, Series
from repro.ids import content_id
from repro.repository.fsck import check_repository
from repro.repository.master_graphs import master_content
from repro.repository.workspace import Workspace
from repro.workloads.scale import scale_corpus

#: (corpus size, OS families) — the 1000-VMI point is the headline
SWEEP = ((300, 10), (1000, 20))
SMOKE_SWEEP = ((120, 6),)

#: post-checkpoint churn burst: a fixed number of deletes, so the
#: op-log length is independent of repository size
CHURN_DELETES = 20


def _fingerprint(repo) -> dict:
    """Everything a faithful reopen must reproduce exactly."""
    return {
        "blobs": {
            (r.key, r.kind.value, r.size) for r in repo.blobs.records()
        },
        "bytes": repo.bytes_by_kind(),
        "records": {r.name for r in repo.vmi_records()},
        "masters": {
            m.base_key: (master_content(m), m.revision)
            for m in repo.master_graphs()
        },
        "refcounts": repo.refcounts(),
        "dirty": repo.dirty_bases(),
        "mutations": repo.mutations,
    }


def _timed_reopen(path) -> tuple[float, int, dict]:
    """Open the workspace fresh; (wall s, ops replayed, fingerprint)."""
    workspace = Workspace(path)
    t0 = time.perf_counter()
    repo = workspace.load()
    wall = time.perf_counter() - t0
    fp = _fingerprint(repo)
    assert check_repository(repo).clean
    workspace.close()
    return wall, workspace.replayed_ops, fp


def _run_one(n_vmis: int, n_families: int, tmp_path) -> dict:
    corpus = scale_corpus(n_vmis, n_families=n_families)
    vmis = list(corpus.build_all())

    # -- build the durable store, checkpoint, exit cleanly -------------
    system = Expelliarmus.open(tmp_path / f"ws-{n_vmis}")
    published = system.publish_many(vmis)
    assert published.n_failed == 0
    snapshot_bytes = system.save()
    checkpoint_fp = _fingerprint(system.repo)
    system.close()

    snap_wall, snap_ops, snap_fp = _timed_reopen(
        tmp_path / f"ws-{n_vmis}"
    )
    assert snap_ops == 0
    assert snap_fp == checkpoint_fp

    # -- churn burst after the checkpoint, then a simulated crash ------
    system = Expelliarmus.open(tmp_path / f"ws-{n_vmis}")
    names = sorted(
        system.published_names(),
        key=lambda n: content_id(f"bench-persistence/{n}"),
    )
    deleted = system.delete_many(names[:CHURN_DELETES])
    assert deleted.n_failed == 0
    churn_ops = system.workspace.ops_since_checkpoint
    crash_fp = _fingerprint(system.repo)
    system.close()  # no checkpoint: reopen must replay the op-log

    replay_wall, replayed, replay_fp = _timed_reopen(
        tmp_path / f"ws-{n_vmis}"
    )
    assert replayed == churn_ops
    assert replay_fp == crash_fp

    # -- what no-persistence would pay: full republish -----------------
    t0 = time.perf_counter()
    rebuilt = Expelliarmus()
    assert rebuilt.publish_many(vmis).n_failed == 0
    rebuild_wall = time.perf_counter() - t0

    return {
        "n_vmis": n_vmis,
        "snapshot_mb": snapshot_bytes / 1e6,
        "snap_reopen_s": snap_wall,
        "churn_ops": churn_ops,
        "replay_reopen_s": replay_wall,
        "replay_marginal_s": max(replay_wall - snap_wall, 0.0),
        "rebuild_s": rebuild_wall,
    }


def _sweep(sweep, tmp_path) -> ExperimentResult:
    rows = []
    ops, marginal, snap, rebuild = [], [], [], []
    for n_vmis, n_families in sweep:
        m = _run_one(n_vmis, n_families, tmp_path)
        rows.append(
            (
                m["n_vmis"],
                round(m["snapshot_mb"], 2),
                round(m["snap_reopen_s"], 3),
                m["churn_ops"],
                round(m["replay_reopen_s"], 3),
                round(m["replay_marginal_s"], 3),
                round(m["rebuild_s"], 3),
            )
        )
        ops.append(float(m["churn_ops"]))
        marginal.append(m["replay_marginal_s"])
        snap.append(m["snap_reopen_s"])
        rebuild.append(m["rebuild_s"])
    return ExperimentResult(
        experiment_id="bench-persistence",
        title=(
            "Workspace reopen cost: op-log replay vs snapshot vs "
            "from-scratch rebuild"
        ),
        columns=(
            "VMIs",
            "snapshot[MB]",
            "reopen_snap[s]",
            "ops",
            "reopen_replay[s]",
            "replay_marginal[s]",
            "rebuild[s]",
        ),
        rows=tuple(rows),
        series=(
            Series("ops-since-checkpoint", tuple(ops)),
            Series("replay-marginal-s", tuple(marginal)),
            Series("snapshot-reopen-s", tuple(snap)),
            Series("rebuild-s", tuple(rebuild)),
        ),
        notes=(
            "the churn burst is a fixed-size delete round, so "
            "ops-since-checkpoint stays flat across corpus sizes while "
            "snapshot and rebuild costs grow with the repository — "
            "replay cost follows the ops, which is the write-ahead "
            "log's O(ops since checkpoint) reopen contract",
        ),
    )


def _assert_replay_scales_with_ops(result: ExperimentResult) -> None:
    series = {s.label: s.values for s in result.series}
    # the burst op count is repository-size independent by design
    assert max(series["ops-since-checkpoint"]) == min(
        series["ops-since-checkpoint"]
    )
    # reopening durable state beats re-publishing by a wide margin at
    # every size (wall clock, so assert only the unambiguous ordering)
    for snap, marginal, rebuild in zip(
        series["snapshot-reopen-s"],
        series["replay-marginal-s"],
        series["rebuild-s"],
        strict=True,
    ):
        assert snap + marginal < rebuild


@pytest.mark.benchmark(group="persistence")
def test_persistence_sweep(benchmark, report_result, tmp_path):
    """The headline sweep: reopen costs up to 1000 VMIs."""
    result = benchmark.pedantic(
        lambda: _sweep(SWEEP, tmp_path), rounds=1, iterations=1
    )
    report_result(result)
    attach_series(benchmark, result)
    write_bench_json(result, "persistence")
    _assert_replay_scales_with_ops(result)


@pytest.mark.benchmark(group="persistence")
def test_persistence_smoke(benchmark, report_result, tmp_path):
    """CI-sized corpus: same assertions, seconds of wall clock."""
    result = benchmark.pedantic(
        lambda: _sweep(SMOKE_SWEEP, tmp_path), rounds=1, iterations=1
    )
    report_result(result)
    attach_series(benchmark, result)
    write_bench_json(result, "persistence")
    _assert_replay_scales_with_ops(result)
