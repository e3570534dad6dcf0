"""Unit tests for Algorithm 1 (VMI publishing)."""

import pytest

from repro.errors import AlreadyPublishedError, PublishError
from repro.image.builder import BuildRecipe
from repro.repository.blobstore import BlobKind


class TestFirstPublish:
    def test_stores_base_packages_and_data(
        self, mini_system, redis_vmi
    ):
        report = mini_system.publish(redis_vmi)
        repo = mini_system.repo
        assert report.stored_new_base
        assert len(repo.base_images()) == 1
        # redis-server and libssl exported; base members skipped
        assert set(report.exported_packages) == {
            "redis-server", "libssl",
        }
        assert repo.blobs.total_bytes(BlobKind.USER_DATA) > 0

    def test_similarity_zero_on_empty_repo(
        self, mini_system, redis_vmi
    ):
        assert mini_system.publish(redis_vmi).similarity == 0.0

    def test_strips_vmi_to_base(self, mini_system, redis_vmi):
        mini_system.publish(redis_vmi)
        assert redis_vmi.is_base_only()

    def test_breakdown_components(self, mini_system, redis_vmi):
        report = mini_system.publish(redis_vmi)
        assert report.breakdown.component("handle") > 0
        assert report.breakdown.component("export") > 0
        assert report.breakdown.component("store-base") > 0
        assert report.publish_time == pytest.approx(
            report.breakdown.total
        )

    def test_bytes_accounting(self, mini_system, redis_vmi):
        report = mini_system.publish(redis_vmi)
        assert report.repo_bytes_before == 0
        assert report.bytes_added == mini_system.repository_size


class TestSecondPublish:
    def test_duplicate_name_rejected(
        self, mini_system, mini_builder, redis_recipe
    ):
        mini_system.publish(mini_builder.build(redis_recipe))
        with pytest.raises(AlreadyPublishedError) as caught:
            mini_system.publish(mini_builder.build(redis_recipe))
        assert isinstance(caught.value, PublishError)
        assert caught.value.name == "redis-vm"

    def test_identical_content_adds_only_user_data(
        self, mini_system, mini_builder, redis_recipe
    ):
        mini_system.publish(mini_builder.build(redis_recipe))
        size_before = mini_system.repository_size
        twin_recipe = BuildRecipe(
            name="redis-twin",
            primaries=("redis-server",),
            user_data_size=1_000_000,
            user_data_files=10,
        )
        report = mini_system.publish(mini_builder.build(twin_recipe))
        # nothing exported, base reused, only the twin's user data added
        assert report.exported_packages == ()
        assert set(report.deduplicated_packages) == {
            "redis-server", "libssl",
        }
        assert not report.stored_new_base
        assert report.bytes_added == 1_000_000
        assert mini_system.repository_size == size_before + 1_000_000

    def test_dedup_publish_is_faster(
        self, mini_system, mini_builder, redis_recipe
    ):
        first = mini_system.publish(mini_builder.build(redis_recipe))
        twin = BuildRecipe(name="twin", primaries=("redis-server",))
        second = mini_system.publish(mini_builder.build(twin))
        assert second.publish_time < first.publish_time

    def test_similarity_high_for_twin(
        self, mini_system, mini_builder, redis_recipe
    ):
        mini_system.publish(mini_builder.build(redis_recipe))
        twin = BuildRecipe(name="twin", primaries=("redis-server",))
        report = mini_system.publish(mini_builder.build(twin))
        assert report.similarity > 0.9

    def test_new_primary_exports_only_new_packages(
        self, mini_system, mini_builder, redis_recipe
    ):
        mini_system.publish(mini_builder.build(redis_recipe))
        nginx = BuildRecipe(name="nginx-vm", primaries=("nginx",))
        report = mini_system.publish(mini_builder.build(nginx))
        assert set(report.exported_packages) == {"nginx"}
        assert "libssl" in report.deduplicated_packages

    def test_master_graph_accumulates(
        self, mini_system, mini_builder, redis_recipe
    ):
        mini_system.publish(mini_builder.build(redis_recipe))
        nginx = BuildRecipe(name="nginx-vm", primaries=("nginx",))
        mini_system.publish(mini_builder.build(nginx))
        masters = mini_system.repo.master_graphs()
        assert len(masters) == 1
        names = {p.name for p in masters[0].primary_packages()}
        assert names == {"redis-server", "nginx"}
        assert masters[0].check_invariant()


class TestResidueHandling:
    def test_residue_not_stored(self, mini_system, mini_builder):
        noisy = BuildRecipe(
            name="noisy",
            primaries=("redis-server",),
            user_data_size=1_000,
            user_data_files=2,
            instance_noise_size=50_000_000,
            instance_noise_files=500,
        )
        report = mini_system.publish(mini_builder.build(noisy))
        # repository holds base + packages + 1 KB data; the 50 MB of
        # noise was cleaned up, not stored
        data_bytes = mini_system.repo.blobs.total_bytes(
            BlobKind.USER_DATA
        )
        assert data_bytes == 1_000
        assert report.breakdown.component("remove") > 0


class TestSemanticDecompositionVariant:
    def test_variant_exports_every_time(self, mini_builder):
        from repro.core.system import Expelliarmus

        system = Expelliarmus(dedup_packages=False)
        system.publish(mini_builder.build(
            BuildRecipe(name="a", primaries=("redis-server",))
        ))
        report = system.publish(mini_builder.build(
            BuildRecipe(name="b", primaries=("redis-server",))
        ))
        # charged the export although the store already had the bytes
        assert report.breakdown.component("export") > 0
        assert report.exported_packages == ()
        assert report.bytes_added <= 25_000_000  # only user data
