"""Unit tests for the scale-out batch publish pipeline."""

import pytest

from repro.core.system import Expelliarmus
from repro.image.builder import BuildRecipe, ImageBuilder
from repro.repository.federation import FederatedRepository
from repro.service.batch import (
    BatchPublisher,
    dedup_aware_order,
)

from tests.conftest import make_mini_catalog, make_mini_template


@pytest.fixture
def builders():
    catalog = make_mini_catalog()
    lean = ImageBuilder(catalog, make_mini_template())
    fat = ImageBuilder(
        catalog, make_mini_template(extra=("portable-tool",))
    )
    return lean, fat


def _vmi(builder, name, primaries=("redis-server",)):
    return builder.build(
        BuildRecipe(
            name=name,
            primaries=primaries,
            user_data_size=1_000_000,
            user_data_files=10,
            instance_noise_size=2_000_000,
            instance_noise_files=20,
        )
    )


class TestDedupAwareOrder:
    def test_lean_bases_before_fat(self, builders):
        lean, fat = builders
        batch = [_vmi(fat, "fat-vm"), _vmi(lean, "lean-vm")]
        ordered = dedup_aware_order(batch)
        assert [v.name for v in ordered] == ["lean-vm", "fat-vm"]

    def test_deterministic_total_order(self, builders):
        lean, fat = builders
        names = ["b", "a", "c"]
        batch1 = [_vmi(lean, n) for n in names]
        batch2 = [_vmi(lean, n) for n in reversed(names)]
        assert [v.name for v in dedup_aware_order(batch1)] == [
            v.name for v in dedup_aware_order(batch2)
        ]

    def test_fewer_primaries_first(self, builders):
        lean, _ = builders
        big = _vmi(lean, "big", primaries=("redis-server", "nginx"))
        small = _vmi(lean, "small", primaries=("nginx",))
        ordered = dedup_aware_order([big, small])
        assert [v.name for v in ordered] == ["small", "big"]


class TestBatchPublisher:
    def test_publishes_all_and_aggregates(self, builders):
        lean, fat = builders
        system = Expelliarmus()
        batch = [
            _vmi(lean, "vm-a"),
            _vmi(lean, "vm-b", primaries=("nginx",)),
            _vmi(fat, "vm-c"),
        ]
        report = system.publish_many(batch)
        assert report.n_published == 3
        assert report.n_failed == 0
        assert report.simulated_seconds > 0
        assert report.bytes_added == report.repo_bytes_after
        assert set(system.published_names()) == {"vm-a", "vm-b", "vm-c"}
        assert report.selection_stats.calls == 3

    def test_dedup_order_avoids_fat_base_storage(self, builders):
        """Lean-first ordering lets the fat upload select the stored
        lean base instead of storing its own to be replaced later."""
        lean, fat = builders
        system = Expelliarmus()
        report = system.publish_many(
            [_vmi(fat, "fat-vm"), _vmi(lean, "lean-vm")]
        )
        assert report.new_bases == 1
        assert report.replaced_bases == 0
        assert len(system.repo.base_images()) == 1

    def test_given_order_preserved(self, builders):
        lean, fat = builders
        system = Expelliarmus()
        report = system.publish_many(
            [_vmi(fat, "fat-vm"), _vmi(lean, "lean-vm")],
            order="given",
        )
        assert [r.name for r in report.results] == ["fat-vm", "lean-vm"]
        # fat stored first, then replaced by the lean base
        assert report.replaced_bases == 1

    def test_failure_isolated(self, builders):
        lean, _ = builders
        system = Expelliarmus()
        report = system.publish_many(
            [_vmi(lean, "dup"), _vmi(lean, "dup"), _vmi(lean, "ok")]
        )
        assert report.n_published == 2
        assert report.n_failed == 1
        (failure,) = report.failures()
        assert failure.name == "dup"
        assert "already published" in failure.error
        assert "FAILED dup" in report.render()

    def test_on_error_raise(self, builders):
        from repro.errors import PublishError

        lean, _ = builders
        system = Expelliarmus()
        with pytest.raises(PublishError):
            system.publish_many(
                [_vmi(lean, "dup"), _vmi(lean, "dup")],
                on_error="raise",
            )

    @pytest.mark.parametrize(
        "make",
        [Expelliarmus, lambda: FederatedRepository(shards=2)],
        ids=["sequential", "federated"],
    )
    def test_progress_callback(self, builders, make):
        lean, _ = builders
        system = make()
        seen = []
        # given in reverse: the dedup order runs vm-a first, and the
        # callback reports each item at its caller position
        system.publish_many(
            [_vmi(lean, "vm-b"), _vmi(lean, "vm-a")],
            progress=lambda done, total, item: seen.append(
                (done, total, item.name, item.position, item.ok)
            ),
        )
        assert seen == [(1, 2, "vm-a", 1, True), (2, 2, "vm-b", 0, True)]

    def test_invalid_options_raise(self, builders):
        lean, _ = builders
        publisher = BatchPublisher(Expelliarmus().publisher)
        with pytest.raises(ValueError):
            publisher.publish_many([], order="random")
        with pytest.raises(ValueError):
            publisher.publish_many([], on_error="ignore")

    def test_empty_batch(self):
        report = Expelliarmus().publish_many([])
        assert report.n_items == 0
        assert report.simulated_seconds == 0.0
        assert report.publish_rate == 0.0
        assert report.dedup_ratio == 0.0
