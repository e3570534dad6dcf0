"""Integration: garbage collection interleaved with batch retrieval.

The lifecycle a production repository actually runs: a corpus is
published, some VMIs are unpublished, the collector reclaims what only
they referenced — and every *surviving* VMI must still retrieve,
through warm plan caches that were populated *before* the collection
pass rearranged the repository.  The plan cache must invalidate (GC
rebuilds master graphs, moving their revisions) rather than serve
plans that reference swept package blobs.
"""

import pytest
from algorithm3_oracle import reference_retrieve

from repro.core.system import Expelliarmus
from repro.ids import content_id
from repro.repository.fsck import check_repository


def _doomed(names, fraction=3):
    """A deterministic pseudo-random subset (every ``fraction``-th)."""
    return [n for n in names if content_id(f"doom/{n}") % fraction == 0]


@pytest.fixture(scope="module")
def corpus(request):
    factory = request.getfixturevalue("scale_corpus_factory")
    return factory(40, n_families=4, seed="gc-mix")


class TestGCRetrievalInterleaving:
    def test_survivors_retrievable_after_gc(self, corpus):
        system = Expelliarmus()
        publish = system.publish_many(list(corpus.build_all()))
        assert publish.n_failed == 0

        names = system.published_names()
        doomed = _doomed(names)
        assert doomed, "deterministic subset must be non-empty"
        survivors = [n for n in names if n not in doomed]

        # warm the plan + base caches while the doomed are still alive
        warmup = system.retrieve_many(names)
        assert warmup.n_failed == 0

        for name in doomed:
            system.delete(name)
        gc_report = system.garbage_collect()
        assert gc_report.removed_anything
        assert check_repository(system.repo).clean

        # every survivor still retrieves — stale plans re-derive
        batch = system.retrieve_many(survivors)
        assert batch.n_failed == 0
        assert batch.planner_stats.plan_invalidations > 0
        assert batch.planner_stats.plan_hits == 0

        # and the batch output matches the Algorithm 3 reference
        for item in batch.results:
            reference = reference_retrieve(system, item.name)
            assert (
                item.report.imported_packages
                == reference.imported_packages
            )
            assert (
                item.report.vmi.full_manifest()
                == reference.vmi.full_manifest()
            )

        # retrieval never mutates: the repository is still consistent
        assert check_repository(system.repo).clean

    def test_deleted_names_fail_cleanly_after_gc(self, corpus):
        system = Expelliarmus()
        system.publish_many(list(corpus.build_all()))
        names = system.published_names()
        doomed = _doomed(names)
        system.retrieve_many(names)
        for name in doomed:
            system.delete(name)
        system.garbage_collect()

        batch = system.retrieve_many(names)
        assert batch.n_failed == len(doomed)
        assert {f.name for f in batch.failures()} == set(doomed)
        assert batch.n_retrieved == len(names) - len(doomed)

    def test_gc_between_batches_then_republish(self, corpus):
        """Delete + GC + republish of identical content: retrieval
        serves the re-published VMIs, never a stale plan of the old
        repository generation."""
        system = Expelliarmus()
        system.publish_many(list(corpus.build_all()))
        names = system.published_names()
        victim = _doomed(names)[0]
        index = next(
            i for i in range(len(corpus)) if corpus.spec(i).name == victim
        )
        before = system.retrieve(victim)

        system.retrieve_many(names)  # warm every plan
        system.delete(victim)
        system.garbage_collect()
        republish = system.publish_many([corpus.build(index)])
        assert republish.n_failed == 0

        after = system.retrieve_many([victim])
        assert after.n_failed == 0
        item = after.results[0]
        assert not item.plan_hit  # the old plan was invalidated
        assert (
            item.report.vmi.full_manifest() == before.vmi.full_manifest()
        )
        assert check_repository(system.repo).clean


class TestMaintenancePlannerInteraction:
    """Incremental GC invalidates exactly the plans it must: requests
    against rebuilt (dirty) masters re-derive, requests against bases
    the pass never touched keep hitting the cache."""

    def test_family_clustered_churn_preserves_clean_plans(self, corpus):
        from repro.workloads.scale import ChurnConfig, churn_schedule

        system = Expelliarmus()
        publish = system.publish_many(list(corpus.build_all()))
        assert publish.n_failed == 0
        names = system.published_names()

        # victims cluster in few families; other families stay clean
        [round1] = churn_schedule(
            corpus,
            ChurnConfig(n_rounds=1, churn_pct=15, mode="family"),
        )
        survivors = [
            n for n in names if n not in set(round1.delete_names)
        ]

        warmup = system.retrieve_many(names)
        assert warmup.n_failed == 0

        deleted = system.delete_many(
            list(round1.delete_names), gc_threshold_bytes=0
        )
        assert deleted.n_failed == 0
        assert deleted.gc_passes >= 1
        assert check_repository(system.repo).clean

        batch = system.retrieve_many(survivors)
        assert batch.n_failed == 0
        stats = batch.planner_stats
        # clean-base plans kept serving; dirty-base plans re-derived
        assert stats.plan_hits > 0
        assert stats.plans_derived > 0

        # served output still matches a cold sequential reference
        for item in batch.results[:5]:
            reference = system.retrieve(item.name)
            assert (
                item.report.imported_packages
                == reference.imported_packages
            )
