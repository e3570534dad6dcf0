"""Unit coverage of the parallel service layer: shard planning,
executor reports, progress, failure isolation and accounting."""

import threading

import pytest

from repro.core.system import Expelliarmus
from repro.errors import PublishError, ReproError
from repro.repository.federation import FederatedRepository
from repro.service.parallel import (
    ParallelPublisher,
    ParallelRetriever,
    plan_shards,
)


# ---------------------------------------------------------------------------
# shard planning
# ---------------------------------------------------------------------------


class TestPlanShards:
    def test_every_item_assigned_exactly_once(self):
        items = [(i, f"g{i % 5}") for i in range(37)]
        shards = plan_shards(items, 4, affinity=lambda it: it[1])
        flat = [item for shard in shards for item in shard]
        assert sorted(flat) == sorted(items)
        assert len(flat) == len(items)

    def test_affinity_groups_never_split(self):
        items = [(i, f"g{i % 7}") for i in range(50)]
        shards = plan_shards(items, 3, affinity=lambda it: it[1])
        home = {}
        for index, shard in enumerate(shards):
            for item in shard:
                assert home.setdefault(item[1], index) == index

    def test_group_internal_order_is_preserved(self):
        items = [(i, "only-group") for i in range(10)]
        shards = plan_shards(items, 4, affinity=lambda it: it[1])
        populated = [s for s in shards if s]
        assert populated == [items]

    def test_load_balances_groups_across_shards(self):
        # 8 equal groups over 4 shards -> 2 groups (6 items) each
        items = [(i, f"g{i % 8}") for i in range(48)]
        shards = plan_shards(items, 4, affinity=lambda it: it[1])
        assert [len(s) for s in shards] == [12, 12, 12, 12]

    def test_deterministic(self):
        items = [(i, f"g{i % 6}") for i in range(40)]
        a = plan_shards(items, 3, affinity=lambda it: it[1])
        b = plan_shards(items, 3, affinity=lambda it: it[1])
        assert a == b

    def test_more_shards_than_groups_leaves_empties(self):
        items = [(i, "g") for i in range(5)]
        shards = plan_shards(items, 4, affinity=lambda it: it[1])
        assert sum(1 for s in shards if s) == 1

    def test_rejects_nonpositive_shard_count(self):
        with pytest.raises(ValueError):
            plan_shards([1, 2], 0, affinity=lambda it: it)

    def test_stable_across_repr_unstable_keys(self):
        """Regression: same-size group ties used to break on
        ``repr(key)``, so keys with id-based reprs (the default for
        plain objects) planned differently run to run.  Ties now break
        on first appearance in the input."""

        class Family:
            # default object repr: "<...Family object at 0x...>" —
            # different addresses every construction
            def __init__(self, label):
                self.label = label

        def build(n_groups, per_group):
            keys = [Family(f"g{g}") for g in range(n_groups)]
            items = [
                (g * per_group + i, keys[g])
                for g in range(n_groups)
                for i in range(per_group)
            ]
            return items, keys

        items_a, keys_a = build(6, 2)
        items_b, keys_b = build(6, 2)
        plan_a = plan_shards(items_a, 3, affinity=lambda it: it[1])
        plan_b = plan_shards(items_b, 3, affinity=lambda it: it[1])
        # identical group structure must plan identically even though
        # every key reprs differently between the two runs
        shape_a = [[i for i, _ in shard] for shard in plan_a]
        shape_b = [[i for i, _ in shard] for shard in plan_b]
        assert shape_a == shape_b

    def test_ties_break_on_first_appearance(self):
        # four equal groups, two shards: first-seen groups fill the
        # shards in arrival order, independent of key repr
        items = [(i, ("z" if i % 4 == 0 else f"k{i % 4}"))
                 for i in range(8)]
        shards = plan_shards(items, 2, affinity=lambda it: it[1])
        first_shard_groups = {key for _, key in shards[0]}
        # "z" (items 0,4) arrived first, so it lands in shard 0 even
        # though it sorts last lexicographically
        assert "z" in first_shard_groups


# ---------------------------------------------------------------------------
# parallel publishing
# ---------------------------------------------------------------------------


def _corpus_vmis(scale_corpus_factory, n=16, families=4):
    corpus = scale_corpus_factory(n, n_families=families)
    return corpus, [corpus.build(i) for i in range(n)]


class TestParallelPublisher:
    def test_rejects_nonpositive_parallelism(self, mini_system):
        with pytest.raises(ValueError):
            ParallelPublisher(mini_system.publisher, parallelism=0)

    def test_rejects_unknown_order_and_policy(
        self, mini_system, redis_vmi
    ):
        runner = ParallelPublisher(mini_system.publisher, parallelism=2)
        with pytest.raises(ValueError):
            runner.publish_many([redis_vmi], order="wat")
        with pytest.raises(ValueError):
            runner.publish_many([redis_vmi], on_error="wat")

    def test_report_matches_sequential_end_state(
        self, scale_corpus_factory
    ):
        corpus, vmis = _corpus_vmis(scale_corpus_factory)
        sequential = Expelliarmus()
        sequential.publish_many([corpus.build(i) for i in range(16)])

        system = Expelliarmus()
        report = system.publish_many(vmis, parallelism=3)
        assert report.n_failed == 0
        assert report.parallelism == 3
        assert report.repo_bytes_after == sequential.repository_size
        assert system.repo.refcounts() == sequential.repo.refcounts()

    def test_results_come_back_in_caller_order(
        self, scale_corpus_factory
    ):
        _, vmis = _corpus_vmis(scale_corpus_factory)
        report = Expelliarmus().publish_many(vmis, parallelism=4)
        assert [r.position for r in report.results] == list(range(16))
        assert [r.name for r in report.results] == [
            v.name for v in vmis
        ]

    def test_critical_path_is_max_shard_and_below_total(
        self, scale_corpus_factory
    ):
        _, vmis = _corpus_vmis(scale_corpus_factory)
        report = Expelliarmus().publish_many(vmis, parallelism=4)
        spans = [s.simulated_seconds for s in report.shards]
        assert report.critical_path_seconds == pytest.approx(max(spans))
        assert sum(spans) == pytest.approx(report.simulated_seconds)
        assert report.overlap_speedup > 1.0
        assert "critical path" in report.render()

    def test_shard_accounts_cover_the_batch(self, scale_corpus_factory):
        _, vmis = _corpus_vmis(scale_corpus_factory)
        report = Expelliarmus().publish_many(vmis, parallelism=4)
        assert sum(s.n_items for s in report.shards) == 16
        assert all(s.n_failed == 0 for s in report.shards)

    @pytest.mark.parametrize(
        "make, kwargs",
        [
            (Expelliarmus, {"parallelism": 4}),
            (lambda: FederatedRepository(shards=3), {}),
        ],
        ids=["parallel", "federated"],
    )
    def test_progress_counts_monotonically(
        self, scale_corpus_factory, make, kwargs
    ):
        _, vmis = _corpus_vmis(scale_corpus_factory)
        names = [v.name for v in vmis]
        seen = []
        lock = threading.Lock()

        def progress(done, total, item):
            with lock:
                seen.append((done, total, item.ok))
                # positions index the caller's sequence, not a shard's
                assert names[item.position] == item.name

        report = make().publish_many(vmis, progress=progress, **kwargs)
        assert report.n_published == 16
        assert [done for done, _, _ in seen] == list(range(1, 17))
        assert all(total == 16 for _, total, _ in seen)

    def test_failures_are_isolated_per_item(self, scale_corpus_factory):
        corpus, vmis = _corpus_vmis(scale_corpus_factory)
        system = Expelliarmus()
        system.publish(corpus.build(3))  # duplicate-name collision
        report = system.publish_many(vmis, parallelism=4)
        assert report.n_failed == 1
        (failure,) = report.failures()
        assert failure.name == corpus.spec(3).name
        assert "already published" in failure.error
        assert sum(s.n_failed for s in report.shards) == 1

    def test_on_error_raise_propagates(self, scale_corpus_factory):
        corpus, vmis = _corpus_vmis(scale_corpus_factory)
        system = Expelliarmus()
        system.publish(corpus.build(3))
        with pytest.raises(PublishError):
            system.publish_many(vmis, parallelism=4, on_error="raise")

    def test_duplicate_objects_keep_distinct_positions(
        self, mini_builder, redis_recipe
    ):
        """The same VMI object twice in one batch: one occurrence
        publishes, the other fails, and the two results carry the two
        distinct caller positions (regression: an id()-keyed position
        map collapsed both onto one index)."""
        vmi = mini_builder.build(redis_recipe)
        report = Expelliarmus().publish_many(
            [vmi, vmi], parallelism=2, order="given"
        )
        assert [r.position for r in report.results] == [0, 1]
        assert report.n_published == 1
        assert report.n_failed == 1


# ---------------------------------------------------------------------------
# parallel retrieval
# ---------------------------------------------------------------------------


class TestParallelRetriever:
    def test_rejects_nonpositive_parallelism(self, mini_system):
        with pytest.raises(ValueError):
            ParallelRetriever(mini_system.planner, parallelism=0)

    def test_rejects_unknown_order_and_policy(self, mini_system):
        runner = ParallelRetriever(mini_system.planner, parallelism=2)
        with pytest.raises(ValueError):
            runner.retrieve_many(["x"], order="wat")
        with pytest.raises(ValueError):
            runner.retrieve_many(["x"], on_error="wat")

    def test_parallel_matches_sequential_retrievals(
        self, scale_corpus_factory
    ):
        corpus, vmis = _corpus_vmis(scale_corpus_factory)
        system = Expelliarmus()
        assert system.publish_many(vmis).n_failed == 0
        names = [corpus.spec(i).name for i in range(16)]
        reference = {n: system.retrieve(n) for n in names}

        report = system.retrieve_many(names, parallelism=4)
        assert report.n_failed == 0
        assert report.parallelism == 4
        for item in report.results:
            expected = reference[item.name]
            assert (
                item.report.imported_packages
                == expected.imported_packages
            )
            assert (
                item.report.vmi.full_manifest()
                == expected.vmi.full_manifest()
            )

    def test_results_in_caller_order_with_failures_inline(
        self, scale_corpus_factory
    ):
        corpus, vmis = _corpus_vmis(scale_corpus_factory)
        system = Expelliarmus()
        assert system.publish_many(vmis).n_failed == 0
        batch = [corpus.spec(0).name, "nope", corpus.spec(1).name]
        report = system.retrieve_many(batch, parallelism=3)
        assert [r.position for r in report.results] == [0, 1, 2]
        assert not report.results[1].ok
        assert report.n_failed == 1

    def test_unresolvable_name_raises_under_raise_policy(
        self, scale_corpus_factory
    ):
        corpus, vmis = _corpus_vmis(scale_corpus_factory)
        system = Expelliarmus()
        assert system.publish_many(vmis).n_failed == 0
        with pytest.raises(ReproError):
            system.retrieve_many(
                ["nope"], parallelism=2, on_error="raise"
            )

    def test_critical_path_accounting(self, scale_corpus_factory):
        corpus, vmis = _corpus_vmis(scale_corpus_factory)
        system = Expelliarmus()
        assert system.publish_many(vmis).n_failed == 0
        names = [corpus.spec(i).name for i in range(16)]
        report = system.retrieve_many(names, parallelism=4)
        spans = [s.simulated_seconds for s in report.shards]
        assert report.critical_path_seconds == pytest.approx(max(spans))
        assert sum(spans) == pytest.approx(report.simulated_seconds)
        assert report.overlap_speedup > 1.0
        assert "critical path" in report.render()

    def test_same_base_requests_share_a_shard_and_its_caches(
        self, scale_corpus_factory
    ):
        corpus, vmis = _corpus_vmis(scale_corpus_factory)
        system = Expelliarmus()
        assert system.publish_many(vmis).n_failed == 0
        names = [corpus.spec(i).name for i in range(16)]
        report = system.retrieve_many(names, parallelism=4)
        # base affinity: each stored base's requests run on one shard,
        # so at most one cold copy is charged per stored base
        assert report.planner_stats.base_copies <= len(
            system.repo.base_images()
        )
