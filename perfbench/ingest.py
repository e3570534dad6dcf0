"""Workload ``ingest``: in-process bulk loading through the parallel
batch executor.

One *epoch* loads a many-family scale corpus (fat bases on, so
Algorithm 2 replaces bases) into a fresh in-memory system:
``publish_many`` batches, each followed by ``retrieve_many`` batches
over what has been published so far, all at ``parallelism`` = the CPUs
this process may use.  Epochs repeat until the timed phases add up to
the requested seconds (at least two run).  Every epoch does identical
work, so its deterministic outputs (stored bytes, simulated seconds)
must repeat exactly, epoch after epoch.
"""

from __future__ import annotations

import gc
import pickle
import random
import time

from common import (
    CorrectnessError,
    Run,
    digest_of,
    nproc,
    peak_rss_mb,
    require_clean,
    stored_bytes_ratio,
)

N_VMIS = 480
N_FAMILIES = 16
FAT_BASE_PCT = 25
PUBLISH_BATCH = 16
RETRIEVE_BATCH = 8
#: retrieve batches after each publish batch
RETRIEVES_PER_PUBLISH = 4
MIN_EPOCHS = 2


def _inputs(seed: int):
    """The corpus (pickled, so each epoch unpickles fresh images —
    publishing mutates them) and the retrieval schedule."""
    from repro.workloads.scale import scale_corpus

    corpus = scale_corpus(
        N_VMIS, n_families=N_FAMILIES, seed=f"ingest-{seed}",
        fat_base_pct=FAT_BASE_PCT,
    )
    vmis = list(corpus.build_all())
    names = [v.name for v in vmis]
    rng = random.Random(f"ingest-{seed}")
    batches = [
        names[i:i + PUBLISH_BATCH]
        for i in range(0, len(names), PUBLISH_BATCH)
    ]
    schedule = []  # per publish batch: its retrieve batches
    for b in range(len(batches)):
        published = names[: (b + 1) * PUBLISH_BATCH]
        schedule.append([
            rng.sample(published, RETRIEVE_BATCH)
            for _ in range(RETRIEVES_PER_PUBLISH)
        ])
    return pickle.dumps(vmis, protocol=pickle.HIGHEST_PROTOCOL), schedule


def _reference(blob: bytes, schedule) -> dict[tuple[int, str], str]:
    """Digests a plain sequential system returns at the same points.

    A VMI published on a fat base is retrieved smaller once Algorithm 2
    replaces that base by the family's lean one, so each retrieval is
    checked against the reference state after the same publish batch.
    """
    from repro.core.system import Expelliarmus

    system = Expelliarmus()
    vmis = pickle.loads(blob)
    expected = {}
    for b, retrieve_batches in enumerate(schedule):
        for vmi in vmis[b * PUBLISH_BATCH:(b + 1) * PUBLISH_BATCH]:
            system.publish(vmi)
        for names in retrieve_batches:
            for name in names:
                expected[b, name] = digest_of(system.retrieve(name).vmi)
    return expected


def run(seed: int, seconds: float, tracer=None) -> tuple[Run, int]:
    from repro.core.system import Expelliarmus

    import layers

    blob, schedule = _inputs(seed)
    parallelism = nproc()
    result = Run()
    #: (publish batches done, name) -> digests retrieved at that point
    digests: dict[tuple[int, str], set[str]] = {}
    epoch_prints = []

    def record_retrievals(b: int, report) -> None:
        for item in report.results:
            if item.ok:
                digests.setdefault((b, item.name), set()).add(
                    digest_of(item.report.vmi)
                )

    epoch = 0
    while epoch < MIN_EPOCHS or result.wall_s < seconds:
        epoch += 1
        vmis = pickle.loads(blob)
        batches = [
            vmis[i:i + PUBLISH_BATCH]
            for i in range(0, len(vmis), PUBLISH_BATCH)
        ]
        gc.collect()  # earlier debris is not collected inside the timing
        result.host.sample(2)
        # set-up: a fresh system serving its first batch
        start = time.perf_counter()
        system = Expelliarmus()
        first = system.publish_many(batches[0], parallelism=parallelism)
        warm = system.retrieve_many(
            schedule[0][0], parallelism=parallelism
        )
        result.add_setup(time.perf_counter() - start)
        if first.n_failed or warm.n_failed:
            raise CorrectnessError("set-up batch failed")
        record_retrievals(0, warm)
        sim_publish = [r.publish_time for r in first.reports()]
        sim_retrieve = [r.retrieval_time for r in warm.reports()]

        gc.collect()
        if tracer is not None:
            layers.install(tracer)
        try:
            for b in range(1, len(batches)):
                start = time.perf_counter()
                report = system.publish_many(
                    batches[b], parallelism=parallelism
                )
                elapsed = time.perf_counter() - start
                result.add_publish(elapsed)
                result.add_timed(elapsed)
                result.attempted += report.n_items
                result.failed += report.n_failed
                result.published += report.n_published
                sim_publish.extend(r.publish_time for r in report.reports())
                for key, value in vars(report.selection_stats).items():
                    result.count(f"selection.{key}", value)
                for names in schedule[b]:
                    before = system.planner.stats.snapshot()
                    start = time.perf_counter()
                    report = system.retrieve_many(
                        names, parallelism=parallelism
                    )
                    elapsed = time.perf_counter() - start
                    result.add_retrieve(elapsed)
                    result.add_timed(elapsed)
                    result.attempted += report.n_items
                    result.failed += report.n_failed
                    result.retrieved += report.n_retrieved
                    sim_retrieve.extend(
                        r.retrieval_time for r in report.reports()
                    )
                    for key, value in vars(
                        system.planner.stats.since(before)
                    ).items():
                        result.count(f"planner.{key}", value)
                    record_retrievals(b, report)
        finally:
            if tracer is not None:
                tracer.uninstall()
        result.host.sample()

        require_clean(system.fsck(), f"after ingest epoch {epoch}")
        ratio = stored_bytes_ratio(system.repo)
        result.ratio_samples.append(ratio)
        result.sim_publish.extend(sim_publish)
        result.sim_retrieve.extend(sim_retrieve)
        epoch_prints.append(
            (system.repository_size, ratio, sum(sim_publish),
             sum(sim_retrieve))
        )
        del system, vmis, batches

    result.rss_mb = peak_rss_mb()
    if any(p != epoch_prints[0] for p in epoch_prints):
        raise CorrectnessError(
            "deterministic outputs differ between identical epochs: "
            f"{epoch_prints}"
        )
    reference = _reference(blob, schedule)
    for (b, name), seen in digests.items():
        if seen != {reference[b, name]}:
            raise CorrectnessError(
                f"{name} retrieved after publish batch {b} does not "
                "match the sequential reference"
            )
    result.notes.append(
        f"{epoch} epoch(s) of {N_VMIS} VMIs at parallelism "
        f"{parallelism}; stored bytes {epoch_prints[0][0]}"
    )
    return result, parallelism
