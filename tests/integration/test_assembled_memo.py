"""Integration: the planner's assembled templates (DESIGN.md §9).

A cached plan assembles its image once and later executions clone it.
These tests hold that memo to three promises:

* **isolation** — whatever a caller does to a retrieved image, the
  next retrieval of the same name is unchanged;
* **soundness** — a template never answers for a part that is gone: a
  cached plan still raises when its user data was deleted, and
  assembles afresh when the label comes back with other content;
* **lifetime** — across base replacement, delete plus GC and reopen,
  every retrieval equals the Algorithm 3 oracle, and the memo never
  holds more templates than there are live records.
"""

import pytest
from algorithm3_oracle import reference_assemble, reference_retrieve

from repro.core.system import Expelliarmus
from repro.errors import NotInRepositoryError
from repro.guestos.manager import PackageManager
from repro.image.builder import BaseTemplate, BuildRecipe, ImageBuilder
from repro.image.manifest import FileManifest
from repro.model.attributes import BaseImageAttrs
from repro.model.graph import PackageRole
from repro.service.protocol import manifest_digest

from tests.conftest import (
    BASE_PACKAGE_NAMES,
    make_mini_catalog,
    make_mini_template,
)


def _recipe(name, primaries=("redis-server",), user_data_size=40_000):
    return BuildRecipe(
        name=name, primaries=primaries,
        user_data_size=user_data_size, user_data_files=4,
        instance_noise_size=100_000, instance_noise_files=5,
    )


def _fingerprint(vmi):
    """Everything a caller can observe of an assembled image."""
    return (
        vmi.manifest_digest(),
        manifest_digest(vmi.full_manifest()),
        vmi.mounted_size,
        vmi.n_files,
        [
            (r.name, r.package.identity, r.role, r.auto)
            for r in vmi.installed_packages()
        ],
        vmi.user_data.label if vmi.user_data is not None else None,
    )


def _install_and_remove(system, vmi, tag):
    manager = PackageManager(make_mini_catalog(), vmi)
    manager.install(["nginx"])
    manager.remove("redis-server")


def _strengthen_role(system, vmi, tag):
    # libssl came in as a dependency; asking for it makes it primary
    PackageManager(make_mini_catalog(), vmi).install(["libssl"])
    assert vmi.installed("libssl").role is PackageRole.PRIMARY


def _attach_residue(system, vmi, tag):
    vmi.attach_residue(FileManifest.synthesize(f"junk/{tag}", 6, 70_000))


def _republish(system, vmi, tag):
    # Algorithm 1 strips the uploaded image in place
    vmi.name = f"copy-{tag}"
    system.publish(vmi)
    assert vmi.is_base_only()


class TestIsolation:
    @pytest.mark.parametrize(
        "mutate",
        [_install_and_remove, _strengthen_role, _attach_residue, _republish],
        ids=["install-remove", "role", "residue", "republish"],
    )
    def test_mutating_a_retrieval_leaves_the_next_unchanged(
        self, mini_builder, mutate
    ):
        system = Expelliarmus()
        system.publish(mini_builder.build(_recipe("redis-vm")))
        first = system.retrieve("redis-vm").vmi  # built: the template
        expected = _fingerprint(first)
        mutate(system, first, "built")
        second = system.retrieve("redis-vm").vmi  # cloned
        assert _fingerprint(second) == expected
        mutate(system, second, "cloned")
        third = system.retrieve("redis-vm").vmi
        assert _fingerprint(third) == expected
        assert expected == _fingerprint(
            reference_retrieve(system, "redis-vm").vmi
        )
        assert system.planner.stats.plan_hits == 2
        assert system.planner.n_assembled == 1

    def test_cached_plan_never_serves_a_deleted_label(self):
        """The template of a deleted label never answers for it: the
        lookup still raises, and the label published again with other
        content is assembled afresh."""
        catalog = make_mini_catalog()
        lean = ImageBuilder(catalog, make_mini_template())
        other = ImageBuilder(
            catalog,
            BaseTemplate(
                attrs=BaseImageAttrs("linux", "ubuntu", "18.04", "amd64"),
                package_names=BASE_PACKAGE_NAMES,
                skeleton_files=150,
                skeleton_size=15_000_000,
            ),
        )
        system = Expelliarmus()
        system.publish(lean.build(_recipe("redis-a")))
        system.publish(other.build(_recipe("redis-b")))
        label = system.repo.get_vmi_record("redis-a").data_label
        base_key = system.repo.get_vmi_record("redis-b").base_key

        def custom():
            return system.assemble_custom(
                "custom", base_key, ("redis-server",), label
            )

        custom()
        assert custom().vmi.user_data.label == label  # cloned
        system.delete("redis-a")
        system.garbage_collect()
        assert label not in system.repo.user_data_labels()
        hits = system.planner.stats.plan_hits
        with pytest.raises(NotInRepositoryError):
            custom()
        # the plan (and its template for the label) was still cached
        assert system.planner.stats.plan_hits == hits + 1

        system.publish(
            lean.build(_recipe("redis-a", user_data_size=90_000))
        )
        got = custom()
        assert system.planner.stats.plan_hits == hits + 2
        want = reference_assemble(
            system, "custom", base_key, ("redis-server",), label
        )
        assert _fingerprint(got.vmi) == _fingerprint(want.vmi)
        assert got.vmi.user_data.size == 90_000


class TestLifetime:
    def _check_all(self, system):
        for _ in range(2):  # the second pass clones every template
            for name in system.published_names():
                got = system.retrieve(name)
                want = reference_retrieve(system, name)
                assert _fingerprint(got.vmi) == _fingerprint(want.vmi)
                assert got.imported_packages == want.imported_packages
                assert got.breakdown.totals == want.breakdown.totals
                assert (
                    system.planner.n_assembled
                    <= system.repo.vmi_count()
                )

    def test_oracle_equal_across_replacement_gc_and_reopen(
        self, scale_corpus_factory, tmp_path
    ):
        corpus = scale_corpus_factory(
            24, n_families=3, seed="memo-life", fat_base_pct=40
        )
        system = Expelliarmus.open(tmp_path / "ws")
        replaced = 0
        for index in range(len(corpus)):
            replaced += system.publish(corpus.build(index)).replaced_bases
            self._check_all(system)
        assert replaced > 0, "the corpus must exercise base replacement"
        assert system.planner.n_assembled > 0

        # deletes alone leave the surviving plans valid; their
        # templates are trimmed to the shrinking record count
        names = system.published_names()
        for name in names[::3]:
            system.delete(name)
        self._check_all(system)
        for name in names[1::3]:
            system.delete(name)
        self._check_all(system)
        assert system.garbage_collect().removed_anything
        self._check_all(system)

        system.close()
        system = Expelliarmus.open(tmp_path / "ws")
        assert system.planner.n_assembled == 0
        self._check_all(system)
        system.close()
