"""Workload ``churn-restart``: journaled churn with restarts, in-process.

One *epoch* works a fresh durable workspace holding a split-base
corpus (two base generations per family, kept apart by version-pinned
legacy builds).  Set-up publishes the corpus journaled and checkpoints.
Each timed round then

1. deletes a family-clustered tenth of the corpus with a GC threshold,
   so incremental GC passes run inside the batch;
2. checkpoints (snapshot pickling, op-log reset);
3. republishes the deleted builds, journaled, in small batches (legacy
   builds retire instead of coming back);
4. closes and reopens the workspace, replaying the op-log written
   since the checkpoint;
5. retrieves a sample of the corpus in small sequential batches.

After the rounds (outside the timed phases) the epoch mines the stored
master graphs and re-bases.  Every epoch does identical sequential
work, so its counters and deterministic outputs must repeat exactly.
"""

from __future__ import annotations

import gc
import pickle
import random
import shutil
import time

from common import (
    CorrectnessError,
    Run,
    Stopwatch,
    digest_of,
    fingerprint,
    peak_rss_mb,
    require_clean,
    stored_bytes_ratio,
    work_dir,
)

N_VMIS = 240
N_FAMILIES = 8
SPLIT_BASE_PCT = 50
ROUNDS = 12
CHURN_PCT = 10
#: reclaimable bytes that trigger an incremental GC pass mid-batch
GC_THRESHOLD_BYTES = 50_000_000
PUBLISH_BATCH = 6
RETRIEVE_BATCH = 8
RETRIEVE_SAMPLE = 200
MIN_EPOCHS = 2
#: pickled sizes depend on how objects share references, which the
#: program's in-process intern tables carry from epoch to epoch, so
#: these counters are reported but not required to repeat exactly
_SIZE_COUNTERS = frozenset({"oplog.bytes", "workspace.snapshot_bytes"})


class _Inputs:
    """Everything generated from the seed before any timing."""

    def __init__(self, seed: int) -> None:
        from repro.workloads.scale import (
            ChurnConfig,
            churn_schedule,
            scale_corpus,
        )

        tag = f"churn-{seed}"
        self.corpus = scale_corpus(
            N_VMIS, n_families=N_FAMILIES, seed=tag,
            split_base_pct=SPLIT_BASE_PCT, fat_base_pct=0,
        )
        self.legacy = set(self.corpus.legacy_names())
        rounds = churn_schedule(
            self.corpus,
            ChurnConfig(n_rounds=ROUNDS, churn_pct=CHURN_PCT, seed=tag),
        )
        rng = random.Random(tag)
        live = {self.corpus.spec(i).name for i in range(N_VMIS)}
        #: per round: (deletes, republished indices, retrieve batches)
        self.rounds = []
        for r in rounds:
            # retired legacy builds are gone: a round deletes live ones
            deletes = [n for n in r.delete_names if n in live]
            live -= set(deletes)
            back = [
                i for i in r.republish_indices
                if self.corpus.spec(i).name not in self.legacy
            ]
            live |= {self.corpus.spec(i).name for i in back}
            # with replacement: retiring legacy builds shrinks the
            # live set, and repeats exercise the plan cache
            sample = rng.choices(sorted(live), k=RETRIEVE_SAMPLE)
            self.rounds.append((
                deletes,
                back,
                [sample[i:i + RETRIEVE_BATCH]
                 for i in range(0, len(sample), RETRIEVE_BATCH)],
            ))
        #: legacy builds still live after the rounds (deleted before
        #: mining, so the generation pairs become mergeable)
        self.final_legacy = sorted(live & self.legacy)

        # built once and unpickled per epoch: publishing mutates images
        self._initial = pickle.dumps(
            [self.corpus.build(i) for i in range(N_VMIS)],
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self._republish = pickle.dumps(
            [[self.corpus.build(i) for i in back]
             for _, back, _ in self.rounds],
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def initial(self) -> list:
        """Fresh images of the whole corpus."""
        return pickle.loads(self._initial)

    def republish(self) -> list[list]:
        """Fresh images each round republishes."""
        return pickle.loads(self._republish)


def _reference(inputs: _Inputs) -> dict[tuple[int, str], str]:
    """Digests a plain sequential in-memory system returns at the same
    points of the same operation sequence."""
    from repro.core.system import Expelliarmus

    system = Expelliarmus()
    for vmi in inputs.initial():
        system.publish(vmi)
    expected = {}
    republish = inputs.republish()
    for r, (deletes, _, retrieve_batches) in enumerate(inputs.rounds):
        for name in deletes:
            system.delete(name)
        for vmi in republish[r]:
            system.publish(vmi)
        for name in {n for names in retrieve_batches for n in names}:
            expected[r, name] = digest_of(system.retrieve(name).vmi)
    return expected


def _epoch(inputs: _Inputs, root, result: Run, tracer, digests) -> tuple:
    from repro.core.system import Expelliarmus

    import layers

    path = root / "ws"
    shutil.rmtree(path, ignore_errors=True)
    initial = inputs.initial()
    republish = inputs.republish()
    sim_publish: list[float] = []
    sim_retrieve: list[float] = []
    counters: dict[str, float] = {}

    def count(key: str, amount: float = 1) -> None:
        counters[key] = counters.get(key, 0) + amount

    def fold_stats(system) -> None:
        for key, value in vars(
            system.publisher.selection_memo.stats
        ).items():
            count(f"selection.{key}", value)
        for key, value in vars(system.planner.stats).items():
            count(f"planner.{key}", value)

    gc.collect()  # earlier debris is not collected inside the timing
    result.host.sample(2)
    start = time.perf_counter()
    system = Expelliarmus.open(path)
    report = system.publish_many(initial)
    system.save()
    result.add_setup(time.perf_counter() - start)
    if report.n_failed:
        raise CorrectnessError("set-up publish failed")
    sim_publish.extend(r.publish_time for r in report.reports())

    for r, (deletes, _, retrieve_batches) in enumerate(inputs.rounds):
        gc.collect()
        result.host.sample()
        if tracer is not None:
            layers.install(tracer)
        try:
            clock = Stopwatch(tracer)
            maint = system.delete_many(
                deletes, gc_threshold_bytes=GC_THRESHOLD_BYTES
            )
            result.failed += maint.n_failed
            count("workspace.snapshot_bytes", system.save())
            count("workspace.checkpoints")

            vmis = republish[r]
            for i in range(0, len(vmis), PUBLISH_BATCH):
                start = time.perf_counter()
                report = system.publish_many(vmis[i:i + PUBLISH_BATCH])
                result.add_publish(time.perf_counter() - start)
                result.published += report.n_published
                result.failed += report.n_failed
                sim_publish.extend(
                    p.publish_time for p in report.reports()
                )

            with clock.paused():
                count("deleted", maint.n_deleted)
                for gc_report in maint.gc_reports:
                    count("gc.passes")
                    count("gc.records_scanned", gc_report.records_scanned)
                    count("gc.graph_rebuilds", gc_report.graph_rebuilds)
                    count("gc.reclaimed_bytes", gc_report.reclaimed_bytes)
                workspace = system.workspace
                count("oplog.records", workspace.ops_since_checkpoint)
                count("oplog.bytes", workspace.oplog_path.stat().st_size)
                fold_stats(system)
                before = fingerprint(system.repo)
            system.close()
            system = Expelliarmus.open(path)
            with clock.paused():
                count("workspace.reopens")
                count("workspace.replayed_ops", system.workspace.replayed_ops)
                if fingerprint(system.repo) != before:
                    raise CorrectnessError(
                        f"reopen after round {r} changed the repository"
                    )
                require_clean(system.fsck(), f"after reopen in round {r}")

            for names in retrieve_batches:
                start = time.perf_counter()
                report = system.retrieve_many(names, order="given")
                result.add_retrieve(time.perf_counter() - start)
                result.retrieved += report.n_retrieved
                result.failed += report.n_failed
                with clock.paused():
                    for item in report.results:
                        if item.ok:
                            sim_retrieve.append(item.report.retrieval_time)
                            digests.setdefault((r, item.name), set()).add(
                                digest_of(item.report.vmi)
                            )
            result.add_timed(clock.elapsed())
        finally:
            if tracer is not None:
                tracer.uninstall()
        result.attempted += (
            len(deletes) + len(vmis) + len(retrieve_batches) * RETRIEVE_BATCH
        )

    # maintenance: retire the last legacy builds, then mine + re-base
    # (per-layer only: one short sample per epoch)
    maint = system.delete_many(inputs.final_legacy)
    system.garbage_collect()
    names = system.published_names()
    before = {n: digest_of(system.retrieve(n).vmi) for n in names}
    if tracer is not None:
        layers.install(tracer)
    try:
        mining = system.mine_bases()
        rebase = system.rebase(mining)
    finally:
        if tracer is not None:
            tracer.uninstall()
    count("mining.passes")
    count("mining.candidates", len(mining.candidates))
    count("rebase.passes")
    count("rebase.bytes_saved", rebase.reclaimed_bytes)
    after = {n: digest_of(system.retrieve(n).vmi) for n in names}
    if after != before:
        raise CorrectnessError("rebase changed a live VMI's digest")
    require_clean(system.fsck(), "after rebase")
    ratio = stored_bytes_ratio(system.repo)
    fold_stats(system)
    system.close()
    shutil.rmtree(path, ignore_errors=True)
    if maint.n_failed:
        raise CorrectnessError("retiring legacy builds failed")
    return ratio, sim_publish, sim_retrieve, counters


def run(seed: int, seconds: float, tracer=None) -> tuple[Run, int]:
    inputs = _Inputs(seed)
    root = work_dir("churn")
    result = Run()
    digests: dict[tuple[int, str], set[str]] = {}
    prints = []
    epoch = 0
    while epoch < MIN_EPOCHS or result.wall_s < seconds:
        epoch += 1
        ratio, sim_publish, sim_retrieve, counters = _epoch(
            inputs, root, result, tracer, digests
        )
        result.ratio_samples.append(ratio)
        result.sim_publish.extend(sim_publish)
        result.sim_retrieve.extend(sim_retrieve)
        for key, value in counters.items():
            result.count(key, value)
        prints.append((
            ratio, sum(sim_publish), sum(sim_retrieve),
            sorted(kv for kv in counters.items()
                   if kv[0] not in _SIZE_COUNTERS),
        ))
    result.rss_mb = peak_rss_mb()
    for later in prints[1:]:
        if later != prints[0]:
            raise CorrectnessError(
                "counters or deterministic outputs differ between "
                f"identical epochs: {prints[0]} vs {later}"
            )
    reference = _reference(inputs)
    for (r, name), seen in digests.items():
        if seen != {reference[r, name]}:
            raise CorrectnessError(
                f"{name} retrieved in round {r} does not match the "
                "sequential reference"
            )
    result.notes.append(
        f"{epoch} epoch(s) of {ROUNDS} rounds over {N_VMIS} VMIs; "
        "counters and deterministic outputs repeated in every epoch"
    )
    return result, 1
