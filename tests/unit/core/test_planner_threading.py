"""Regression: shared planner/memo caches under thread pressure.

Once retrieval goes parallel, one :class:`~repro.core.assembly_plan.
AssemblyPlanner` (and one :class:`~repro.core.base_selection.
SelectionMemo`) is shared by every worker thread.  Before the caches
were guarded, two threads could interleave a lookup with a derivation
and serve a torn entry or double-derive into inconsistent stats.  These
tests hammer the shared instances from 8 threads and assert that every
answer equals the single-threaded reference.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from algorithm3_oracle import reference_retrieve

from repro.core.assembly_plan import RETRIEVAL_COMPONENTS, RetrievalRequest
from repro.core.system import Expelliarmus
from repro.model.graph import PackageRole

N_THREADS = 8
ROUNDS = 25


def _published_system(scale_corpus_factory, n=12, families=3):
    corpus = scale_corpus_factory(n, n_families=families)
    system = Expelliarmus()
    report = system.publish_many([corpus.build(i) for i in range(n)])
    assert report.n_failed == 0
    names = [corpus.spec(i).name for i in range(n)]
    return system, names


def test_shared_planner_serves_no_torn_or_stale_plan(
    scale_corpus_factory,
):
    system, names = _published_system(scale_corpus_factory)
    requests = [
        RetrievalRequest.for_record(system.repo.get_vmi_record(name))
        for name in names
    ]
    # the single-threaded reference: derive every plan once, cold
    reference = {
        r.plan_key(): system.planner.plan_for(r)[0] for r in requests
    }
    system.planner.clear()
    stats_before = system.planner.stats.snapshot()

    start = threading.Barrier(N_THREADS)
    failures = []

    def hammer(worker: int):
        start.wait()
        for round_ in range(ROUNDS):
            # each worker walks the requests at its own offset, so
            # lookups and derivations of every key interleave freely
            for i in range(len(requests)):
                request = requests[(i + worker + round_) % len(requests)]
                plan, _ = system.planner.plan_for(request)
                expected = reference[request.plan_key()]
                if (
                    plan.installs != expected.installs
                    or plan.base_key != expected.base_key
                    or plan.base_bytes != expected.base_bytes
                ):  # pragma: no cover - the regression being pinned
                    failures.append((worker, request.name))

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        list(pool.map(hammer, range(N_THREADS)))

    assert not failures
    # the cache converged to one entry per distinct plan key, and the
    # counters balance: every request was either a derivation or a hit
    stats = system.planner.stats.since(stats_before)
    distinct = len({r.plan_key() for r in requests})
    assert len(system.planner) == distinct
    total_lookups = N_THREADS * ROUNDS * len(requests)
    assert stats.plan_hits + stats.plans_derived == total_lookups
    assert stats.plan_invalidations == 0
    # no torn double-inserts: at most one derivation per key per racer
    assert stats.plans_derived >= distinct


def test_shared_planner_assemble_is_observationally_stable(
    scale_corpus_factory,
):
    system, names = _published_system(scale_corpus_factory)
    reference = {
        name: system.retrieve(name).vmi.full_manifest()
        for name in names
    }
    mismatches = []

    def worker(name: str):
        for _ in range(6):
            request = RetrievalRequest.for_record(
                system.repo.get_vmi_record(name)
            )
            planned = system.planner.assemble(request)
            if (
                planned.report.vmi.full_manifest() != reference[name]
            ):  # pragma: no cover - the regression being pinned
                mismatches.append(name)

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        list(pool.map(worker, names * 2))
    assert not mismatches


def test_single_retrievals_stay_cold_beside_warming_batches(
    scale_corpus_factory,
):
    """Single retrievals (the daemon's path) share the planner with
    batches that warm its base cache; under forced thread switching
    every single retrieval still equals the oracle, charges included —
    never a warm base copy, never a torn plan.  Batch ``planner_stats``
    are planner-wide deltas, so they also count the concurrent singles.
    """
    system, names = _published_system(scale_corpus_factory)
    reference = {name: reference_retrieve(system, name) for name in names}
    mismatches = []
    batches = []
    before = system.planner.stats.snapshot()

    def worker(index: int):
        name = names[index % len(names)]
        expected = reference[name]
        for _ in range(4):
            if index % 2:
                batches.append(system.retrieve_many([name]))
            got = system.retrieve(name)
            if (
                got.imported_packages != expected.imported_packages
                or got.vmi.full_manifest() != expected.vmi.full_manifest()
                or any(
                    got.component(label) != expected.component(label)
                    for label in RETRIEVAL_COMPONENTS
                )
            ):  # pragma: no cover - the regression being pinned
                mismatches.append(name)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            list(pool.map(worker, range(2 * N_THREADS)))
    finally:
        sys.setswitchinterval(interval)
    assert not mismatches
    n_singles = 2 * N_THREADS * 4
    total = system.planner.stats.since(before)
    assert total.requests == n_singles + len(batches)
    assert total.base_copies + total.base_cache_hits == total.requests
    assert all(b.n_retrieved == 1 for b in batches)
    assert all(b.planner_stats.requests >= 1 for b in batches)


def test_batch_stats_are_planner_wide(scale_corpus_factory):
    """A single retrieval that runs while a batch is open is counted in
    that batch's ``planner_stats`` (the delta of the shared planner)."""
    system, names = _published_system(scale_corpus_factory)

    def retrieve_once_mid_batch(done, _total, _item):
        if done == 1:
            system.retrieve(names[-1])

    report = system.retrieve_many(
        names[:2], progress=retrieve_once_mid_batch
    )
    assert report.n_retrieved == 2
    assert report.planner_stats.requests == 3


def test_shared_selection_memo_survives_concurrent_publish_shards(
    scale_corpus_factory,
):
    """Two parallel publish batches over one memo leave it consistent:
    a follow-up sequential publish on the same system still selects
    stored bases (no duplicate base blobs, clean fsck)."""
    corpus = scale_corpus_factory(18, n_families=3, seed="memo-hammer")
    system = Expelliarmus()
    first = system.publish_many(
        [corpus.build(i) for i in range(12)], parallelism=4
    )
    assert first.n_failed == 0
    second = system.publish_many(
        [corpus.build(i) for i in range(12, 18)], parallelism=3
    )
    assert second.n_failed == 0
    assert system.fsck().clean
    # content-addressed convergence: one stored base per distinct blob
    keys = [b.blob_key() for b in system.repo.base_images()]
    assert len(keys) == len(set(keys))


def test_assembled_templates_survive_racing_callers(scale_corpus_factory):
    """Racing retrievals share each plan's template and each base's
    first-boot image: every caller gets its own image (mutating it
    changes no other), digests filled in concurrently are the
    single-threaded ones, the template count matches what the entries
    hold, within the live-record bound, and each per-base record holds
    the stored base object."""
    system, names = _published_system(scale_corpus_factory)

    def observe(vmi):
        return (
            vmi.manifest_digest(),
            vmi.mounted_size,
            [(r.name, r.role, r.auto) for r in vmi.installed_packages()],
        )

    reference = {
        name: observe(reference_retrieve(system, name).vmi)
        for name in names
    }
    mismatches = []

    def worker(index: int):
        for round_ in range(ROUNDS):
            name = names[(index + round_) % len(names)]
            vmi = system.retrieve(name).vmi
            if observe(vmi) != reference[name]:  # pragma: no cover
                mismatches.append(name)
            # callers own what they get back; the rows they share
            # with the template are immutable
            for row in vmi.installed_packages():
                vmi.mark_manual(row.name)
            vmi.detach_user_data()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            list(pool.map(worker, range(2 * N_THREADS)))
    finally:
        sys.setswitchinterval(interval)
    assert not mismatches
    planner = system.planner
    held = sum(len(e.assembled) for e in planner._plans.values())
    assert planner.n_assembled == held == len(names)
    assert held <= system.repo.vmi_count()
    stored = {b.blob_key(): b for b in system.repo.base_images()}
    records = planner._base_records
    assert 0 < len(records) <= len(stored)
    for key, record in records.items():
        assert record.base is stored[key]
        first_boot = record.first_boot
        assert first_boot.user_data is None
        assert all(
            r.role is PackageRole.BASE_MEMBER
            for r in first_boot.installed_packages()
        )
