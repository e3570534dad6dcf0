"""Unit tests for assembly planning (plan cache + execution)."""

import dataclasses

import pytest
from algorithm3_oracle import reference_assemble, reference_retrieve

from repro.core.assembly_plan import RetrievalRequest
from repro.errors import NotInRepositoryError, RetrievalError
from repro.image.builder import BuildRecipe
from repro.model.graph import PackageRole


@pytest.fixture
def populated(mini_system, mini_builder, redis_recipe):
    mini_system.publish(mini_builder.build(redis_recipe))
    return mini_system


def _request(system, name):
    return RetrievalRequest.for_record(system.repo.get_vmi_record(name))


class TestRetrievalRequest:
    def test_for_record_carries_identity(self, populated):
        request = _request(populated, "redis-vm")
        assert request.name == "redis-vm"
        assert request.primary_names == ("redis-server",)
        assert request.version_of("redis-server") == "3.0.6"
        assert request.version_of("ghost") is None

    def test_plan_key_is_order_sensitive(self):
        a = RetrievalRequest("x", 1, ("p", "q"))
        b = RetrievalRequest("x", 1, ("q", "p"))
        assert a.plan_key() != b.plan_key()

    def test_plan_key_ignores_name_and_data(self):
        a = RetrievalRequest("x", 1, ("p",), data_label="d1")
        b = RetrievalRequest("y", 1, ("p",), data_label="d2")
        assert a.plan_key() == b.plan_key()


class TestPlanDerivation:
    def test_plan_matches_sequential_imports(self, populated):
        sequential = reference_retrieve(populated, "redis-vm")
        plan, cached = populated.planner.plan_for(
            _request(populated, "redis-vm")
        )
        assert not cached
        assert plan.imported_names() == sequential.imported_packages
        assert plan.base_bytes == populated.repo.base_image_size(
            plan.base_key
        )

    def test_install_roles_match_request(self, populated):
        plan, _ = populated.planner.plan_for(
            _request(populated, "redis-vm")
        )
        roles = {step.name: step.role for step in plan.installs}
        assert roles["redis-server"] is PackageRole.PRIMARY
        assert roles["libssl"] is PackageRole.DEPENDENCY

    def test_unknown_package_same_error_as_assembler(self, populated):
        base_key = populated.repo.base_images()[0].blob_key()
        request = RetrievalRequest("x", base_key, ("ghost",))
        with pytest.raises(RetrievalError) as planned:
            populated.planner.plan_for(request)
        with pytest.raises(RetrievalError) as sequential:
            reference_assemble(populated, "x", base_key, ("ghost",))
        assert str(planned.value) == str(sequential.value)

    def test_unknown_base_raises(self, populated):
        with pytest.raises(NotInRepositoryError):
            populated.planner.plan_for(RetrievalRequest("x", 42, ()))


class TestPlanCache:
    def test_repeat_request_hits(self, populated):
        planner = populated.planner
        request = _request(populated, "redis-vm")
        plan_a, hit_a = planner.plan_for(request)
        plan_b, hit_b = planner.plan_for(request)
        assert (hit_a, hit_b) == (False, True)
        assert plan_a is plan_b
        assert planner.stats.plans_derived == 1
        assert planner.stats.plan_hits == 1

    def test_hit_survives_unrelated_mutation(self, populated):
        """A repository mutation that leaves the master untouched only
        forces revalidation, not rederivation."""
        planner = populated.planner
        request = _request(populated, "redis-vm")
        planner.plan_for(request)
        mutations = populated.repo.mutations
        # an unrelated write moves the mutation counter ...
        populated.repo.put_master_graph(
            populated.repo.get_master_graph(request.base_key)
        )
        assert populated.repo.mutations > mutations
        # ... but the master revision is unchanged, so the plan holds
        _, hit = planner.plan_for(request)
        assert hit
        assert planner.stats.plan_invalidations == 0

    def test_master_revision_move_invalidates(
        self, populated, mini_builder
    ):
        planner = populated.planner
        request = _request(populated, "redis-vm")
        planner.plan_for(request)
        # publishing a sibling merges into the master -> revision moves
        populated.publish(
            mini_builder.build(
                BuildRecipe(name="nginx-vm", primaries=("nginx",))
            )
        )
        plan, hit = planner.plan_for(request)
        assert not hit
        assert planner.stats.plan_invalidations == 1
        # the re-derived plan tracks the grown master graph: whatever
        # order Algorithm 3 would import in now, the plan matches it
        assert (
            plan.imported_names()
            == populated.retrieve("redis-vm").imported_packages
        )

    def test_removed_base_invalidates(self, populated):
        planner = populated.planner
        request = _request(populated, "redis-vm")
        planner.plan_for(request)
        populated.repo.remove_base_image(request.base_key)
        with pytest.raises(NotInRepositoryError):
            planner.plan_for(request)
        assert planner.stats.plan_invalidations == 1

    def test_clear_drops_plans_and_warm_bases(self, populated):
        planner = populated.planner
        planner.assemble(_request(populated, "redis-vm"))
        assert len(planner) == 1
        planner.clear()
        assert len(planner) == 0
        planned = planner.assemble(_request(populated, "redis-vm"))
        assert not planned.plan_hit
        assert not planned.warm_base

    def test_cache_stays_bounded_under_publish_delete_churn(
        self, scale_corpus_factory
    ):
        """Under a daemon's churn — publish, retrieve, delete, GC —
        each derivation trims the cache to the live record count."""
        from repro.core.system import Expelliarmus

        n, live = 40, 4
        corpus = scale_corpus_factory(n, n_families=10)
        system = Expelliarmus()
        keys = set()
        for i in range(n):
            system.publish(corpus.build(i))
            name = corpus.spec(i).name
            system.retrieve(name)
            assert len(system.planner) <= system.repo.vmi_count()
            keys.add(_request(system, name).plan_key())
            if i >= live:
                system.delete(corpus.spec(i - live).name)
                if i % 8 == 0:
                    system.garbage_collect()
        assert system.repo.vmi_count() == live
        # the bound was exercised: far more plans were derived
        assert len(keys) > 2 * live

    def test_eviction_drops_least_recently_served(
        self, populated, mini_builder
    ):
        populated.publish(
            mini_builder.build(
                BuildRecipe(name="nginx-vm", primaries=("nginx",))
            )
        )
        planner = populated.planner
        redis = _request(populated, "redis-vm")
        nginx = _request(populated, "nginx-vm")
        bare = dataclasses.replace(redis, primary_names=())
        planner.plan_for(redis)
        planner.plan_for(nginx)
        assert planner.plan_for(redis)[1]  # now the most recent
        planner.plan_for(bare)
        # two live records bound the cache: nginx was served last-but-one
        assert len(planner) == 2
        assert planner.plan_for(redis)[1]
        assert not planner.plan_for(nginx)[1]


class TestPlanExecution:
    def test_first_assembly_is_cold(self, populated):
        planned = populated.planner.assemble(
            _request(populated, "redis-vm")
        )
        assert not planned.warm_base
        assert not planned.plan_hit
        sequential = reference_retrieve(populated, "redis-vm")
        assert planned.report.retrieval_time == pytest.approx(
            sequential.retrieval_time
        )

    def test_warm_base_charges_clone_not_read(self, populated):
        planner = populated.planner
        request = _request(populated, "redis-vm")
        cold = planner.assemble(request)
        warm = planner.assemble(request)
        assert warm.warm_base and warm.plan_hit
        assert warm.report.component("base-copy") < cold.report.component(
            "base-copy"
        )
        # every other Figure-5a component is charged identically
        for label in ("handle", "reset", "import"):
            assert warm.report.component(label) == pytest.approx(
                cold.report.component(label)
            )

    def test_warm_output_identical_to_cold(self, populated):
        planner = populated.planner
        request = _request(populated, "redis-vm")
        cold = planner.assemble(request)
        warm = planner.assemble(request)
        assert (
            warm.report.imported_packages == cold.report.imported_packages
        )
        assert (
            warm.report.vmi.full_manifest()
            == cold.report.vmi.full_manifest()
        )

    def test_warm_survives_remove_and_restore(self, populated):
        """The warm cache is content-addressed: the same blob key means
        the same bytes, so a base removed and re-stored between
        retrievals still clones warm."""
        planner = populated.planner
        request = _request(populated, "redis-vm")
        planner.assemble(request)
        base = populated.repo.get_base_image(request.base_key)
        populated.repo.blobs.remove(request.base_key)
        populated.repo.blobs.put(
            request.base_key, *_blob_args(populated, base)
        )
        planned = planner.assemble(request)
        assert planned.warm_base
        assert planner.stats.base_copies == 1

    def test_charge_demotes_while_blob_absent(self, populated):
        """A warm entry is not trusted while its blob is gone — the
        charge falls back to a cold read (and re-warms)."""
        planner = populated.planner
        request = _request(populated, "redis-vm")
        plan, _ = planner.plan_for(request)
        planner._charge_base_copy(plan, cold=False)  # reads, warms
        populated.repo.blobs.remove(plan.base_key)
        assert not planner._charge_base_copy(plan, cold=False)
        assert planner.stats.base_copies == 2
        assert planner.stats.base_cache_hits == 0

    def test_stats_counters(self, populated):
        planner = populated.planner
        request = _request(populated, "redis-vm")
        planner.assemble(request)
        planner.assemble(request)
        stats = planner.stats
        assert stats.requests == 2
        assert stats.plans_derived == 1
        assert stats.plan_hits == 1
        assert stats.base_copies == 1
        assert stats.base_cache_hits == 1
        assert stats.subgraph_extractions == 1
        assert stats.compat_checks == 1

    def test_stats_since_delta(self, populated):
        planner = populated.planner
        request = _request(populated, "redis-vm")
        planner.assemble(request)
        before = planner.stats.snapshot()
        planner.assemble(request)
        delta = planner.stats.since(before)
        assert delta.requests == 1
        assert delta.plan_hits == 1
        assert delta.plans_derived == 0


def _blob_args(system, base):
    from repro.repository.blobstore import BlobKind
    from repro.repository.repo import base_image_qcow2

    qcow = base_image_qcow2(base)
    return BlobKind.BASE_IMAGE, qcow.size, str(base.attrs)
