"""Unit tests for the Expelliarmus facade."""


from repro.core.system import Expelliarmus
from repro.image.builder import BuildRecipe


class TestFacade:
    def test_publish_retrieve_cycle(self, mini_builder, redis_recipe):
        system = Expelliarmus()
        report = system.publish(mini_builder.build(redis_recipe))
        assert report.vmi_name == "redis-vm"
        result = system.retrieve("redis-vm")
        assert result.vmi.name == "redis-vm"

    def test_published_names_in_order(self, mini_builder):
        system = Expelliarmus()
        for name in ("a", "b", "c"):
            system.publish(
                mini_builder.build(
                    BuildRecipe(name=name, primaries=("redis-server",))
                )
            )
        assert system.published_names() == ["a", "b", "c"]

    def test_repository_breakdown_sums_to_total(
        self, mini_builder, redis_recipe
    ):
        system = Expelliarmus()
        system.publish(mini_builder.build(redis_recipe))
        breakdown = system.repository_breakdown()
        assert sum(breakdown.values()) == system.repository_size

    def test_clock_is_shared(self, mini_builder, redis_recipe):
        system = Expelliarmus()
        system.publish(mini_builder.build(redis_recipe))
        t_after_publish = system.clock.now
        assert t_after_publish > 0
        system.retrieve("redis-vm")
        assert system.clock.now > t_after_publish

    def test_custom_params(self, mini_builder, redis_recipe):
        from repro.sim.costmodel import CostParams

        slow = Expelliarmus(
            params=CostParams(repo_write_bw=1_000_000)
        )
        fast = Expelliarmus(
            params=CostParams(repo_write_bw=1_000_000_000)
        )
        slow_report = slow.publish(mini_builder.build(redis_recipe))
        fast_report = fast.publish(mini_builder.build(redis_recipe))
        assert slow_report.publish_time > fast_report.publish_time


class TestRepositoryInjection:
    def test_components_bind_to_injected_repository(self):
        from repro.repository.repo import Repository

        repo = Repository()
        system = Expelliarmus(repository=repo)
        assert system.repo is repo
        assert system.publisher.repo is repo
        assert system.assembler.planner is system.planner
        assert system.planner.repo is repo

    def test_injected_repository_serves_the_full_cycle(
        self, mini_builder, redis_recipe
    ):
        from repro.repository.repo import Repository

        system = Expelliarmus(repository=Repository())
        system.publish(mini_builder.build(redis_recipe))
        assert system.retrieve("redis-vm").vmi.has_package(
            "redis-server"
        )
        system.delete("redis-vm")
        assert system.garbage_collect().removed_anything
        assert system.fsck().clean

    def test_default_builds_fresh_repository(self):
        a = Expelliarmus()
        b = Expelliarmus()
        assert a.repo is not b.repo
