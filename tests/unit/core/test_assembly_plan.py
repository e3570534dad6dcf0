"""Unit tests for assembly planning (plan cache + execution)."""

import dataclasses
import pickle

import pytest
from algorithm3_oracle import reference_assemble, reference_retrieve

from repro.core.assembly_plan import RetrievalRequest
from repro.core.system import Expelliarmus
from repro.errors import NotInRepositoryError, RetrievalError
from repro.image.builder import BuildRecipe
from repro.model.graph import PackageRole, SemanticGraph
from repro.model.package import make_package


@pytest.fixture
def populated(mini_system, mini_builder, redis_recipe):
    mini_system.publish(mini_builder.build(redis_recipe))
    return mini_system


def _request(system, name):
    return RetrievalRequest.for_record(system.repo.get_vmi_record(name))


def _assert_matches_oracle(system, request, plan):
    """The plan imports what Algorithm 3 derives from scratch, and
    executing it assembles the oracle's VMI."""
    oracle = reference_retrieve(system, request.name)
    assert plan.imported_names() == oracle.imported_packages
    served = system.planner.assemble(request).report
    assert served.imported_packages == oracle.imported_packages
    assert served.vmi.full_manifest() == oracle.vmi.full_manifest()


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

    def test_sibling_publish_moves_revision_but_hits(
        self, populated, mini_builder
    ):
        """A merge that leaves the plan's closure untouched moves the
        master revision, yet the cached plan is still served — and it
        is still exactly what Algorithm 3 derives from scratch."""
        planner = populated.planner
        request = _request(populated, "redis-vm")
        cached, _ = planner.plan_for(request)
        revision = populated.repo.get_master_graph(request.base_key).revision
        # publishing a sibling merges into the master -> revision moves
        populated.publish(
            mini_builder.build(
                BuildRecipe(name="nginx-vm", primaries=("nginx",))
            )
        )
        master = populated.repo.get_master_graph(request.base_key)
        assert master.revision != revision
        plan, hit = planner.plan_for(request)
        assert hit and plan is cached
        assert planner.stats.plan_invalidations == 0
        _assert_matches_oracle(populated, request, plan)

    def test_new_out_edge_in_closure_invalidates(self, populated):
        """A merge that gives a closure vertex a new dependency changes
        what the plan must import: the plan is re-derived."""
        planner = populated.planner
        request = _request(populated, "redis-vm")
        cached, _ = planner.plan_for(request)
        master = populated.repo.get_master_graph(request.base_key)
        libssl = master.find_package("libssl")
        assert master.package_graph.package_key(libssl) in cached.closure
        extra = make_package(
            "libssl-extra", "1.0", installed_size=10_000, n_files=2
        )
        populated.repo.store_package(extra)
        sub = SemanticGraph()
        src = sub.add_package(libssl, PackageRole.DEPENDENCY)
        dst = sub.add_package(extra, PackageRole.DEPENDENCY)
        sub.add_dependency_edge(src, dst)
        nodes = len(master.package_graph)
        master.add_primary_subgraph(sub)
        # only a vertex outside the closure and one out-edge of a
        # closure vertex were added; no primary's name count moved
        assert len(master.package_graph) == nodes + 1
        plan, hit = planner.plan_for(request)
        assert not hit
        assert planner.stats.plan_invalidations == 1
        assert "libssl-extra" in plan.imported_names()
        _assert_matches_oracle(populated, request, plan)

    def test_newer_unpinned_primary_invalidates(self, populated):
        """An unpinned request resolves to the newest version: merging
        a newer one (no new edges anywhere in the closure) must move
        the plan's root."""
        planner = populated.planner
        base_key = populated.repo.base_images()[0].blob_key()
        populated.assemble_custom("custom", base_key, ("redis-server",))
        newer = make_package(
            "redis-server", "3.2.0", installed_size=1_600_000, n_files=31
        )
        populated.repo.store_package(newer)
        sub = SemanticGraph()
        sub.add_package(newer, PackageRole.PRIMARY)
        populated.repo.get_master_graph(base_key).add_primary_subgraph(sub)
        report = populated.assemble_custom(
            "custom", base_key, ("redis-server",)
        )
        assert planner.stats.plan_invalidations == 1
        assert planner.stats.plan_hits == 0
        installed = report.vmi.installed("redis-server")
        assert str(installed.package.version) == "3.2.0"
        oracle = reference_assemble(
            populated, "custom", base_key, ("redis-server",)
        )
        assert report.imported_packages == oracle.imported_packages
        assert report.vmi.full_manifest() == oracle.vmi.full_manifest()

    def test_gc_rebuild_invalidates_on_lineage(self, populated):
        """A GC rebuild yields an equal master with equal degrees and
        name counts, but it is a new object: the plan is re-derived."""
        planner = populated.planner
        request = _request(populated, "redis-vm")
        plan, _ = planner.plan_for(request)
        old = populated.repo.get_master_graph(request.base_key)
        populated.garbage_collect(full=True)
        rebuilt = populated.repo.get_master_graph(request.base_key)
        assert rebuilt is not old and rebuilt.lineage != plan.lineage
        assert rebuilt.package_graph.out_degree_sum(plan.closure) == (
            plan.out_degree
        )
        population = rebuilt.package_population()
        assert all(
            len(population[name]) == count
            for name, count in plan.name_counts
        )
        fresh, hit = planner.plan_for(request)
        assert not hit
        assert planner.stats.plan_invalidations == 1
        assert fresh.lineage == rebuilt.lineage
        assert fresh.installs == plan.installs

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
        assert planner._base_records == {}
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


class TestBaseRecords:
    def test_first_boot_image_rebuilt_when_the_base_object_changes(
        self, populated
    ):
        planner, repo = populated.planner, populated.repo
        request = _request(populated, "redis-vm")
        planner.assemble(request)
        planner.assemble(request)
        key = request.base_key
        record = planner._base_records[key]
        assert record.base is repo.get_base_image(key)
        assert record.first_boot.base is record.base
        assert record.first_boot.user_data is None

        # an equal base, stored again as another object under the key
        master = repo.get_master_graph(key)
        twin = pickle.loads(pickle.dumps(repo.remove_base_image(key)))
        assert twin is not record.base
        repo.store_base_image(twin)
        repo.put_master_graph(master)
        served = planner.assemble(request).report.vmi
        rebuilt = planner._base_records[key]
        assert rebuilt is not record
        assert rebuilt.base is twin and rebuilt.first_boot.base is twin
        assert served.base is twin
        oracle = reference_retrieve(populated, "redis-vm")
        assert served.manifest_digest() == oracle.vmi.manifest_digest()
        planner.assemble(request)
        assert planner._base_records[key] is rebuilt

    def test_records_never_outnumber_stored_bases(self, scale_corpus_factory):
        """Base replacement and GC remove bases; the record of a base
        whose blob is gone leaves at the next request."""
        corpus = scale_corpus_factory(
            12, n_families=2, seed="oracle-fat", fat_base_pct=30
        )
        system = Expelliarmus()
        planner = system.planner
        names = [corpus.spec(i).name for i in range(12)]
        seen = set()

        def retrieve_all(published):
            for name in published:
                system.retrieve(name)
                stored = {b.blob_key() for b in system.repo.base_images()}
                assert set(planner._base_records) <= stored
                seen.update(planner._base_records)

        replaced = 0
        for index in range(12):
            replaced += system.publish(corpus.build(index)).replaced_bases
            retrieve_all(names[: index + 1])
        kept = names[::3]
        system.delete_many([n for n in names if n not in kept])
        system.garbage_collect()
        retrieve_all(kept)
        assert replaced > 0
        assert len(seen) > len(planner._base_records)


def _blob_args(system, base):
    from repro.repository.blobstore import BlobKind
    from repro.repository.repo import base_image_qcow2

    qcow = base_image_qcow2(base)
    return BlobKind.BASE_IMAGE, qcow.size, str(base.attrs)
