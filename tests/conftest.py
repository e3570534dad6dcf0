"""Shared fixtures.

Three tiers of test substrate:

* the *mini* fixtures — a hand-built six-package catalog with the
  libc6/dpkg/perl-base cycle, used by fast unit tests;
* the *corpus* fixtures — the full synthetic Table II workload, session
  scoped because experiment harnesses take seconds;
* the *scale* fixture factory — multi-family generated corpora
  (:mod:`repro.workloads.scale`), session-cached per configuration so
  integration and property suites share corpora instead of rebuilding
  the family catalogs inline.
"""

from __future__ import annotations

import pytest

from repro.guestos.catalog import Catalog
from repro.image.builder import BaseTemplate, BuildRecipe, ImageBuilder
from repro.model.attributes import BaseImageAttrs
from repro.model.package import DependencySpec, make_package
from repro.model.versions import Version


def _d(name: str, op: str | None = None, ver: str | None = None):
    return DependencySpec(
        name, op, Version.parse(ver) if ver is not None else None
    )


MINI_ATTRS = BaseImageAttrs("linux", "ubuntu", "16.04", "amd64")
OTHER_ARCH_ATTRS = BaseImageAttrs("linux", "ubuntu", "16.04", "arm64")


def make_mini_catalog() -> Catalog:
    """Six-package base + small app layer, with the Figure 1a cycle."""
    packages = [
        make_package(
            "libc6", "2.23", installed_size=11_000_000, n_files=120,
            essential=True, depends=(_d("dpkg"),), section="libs",
        ),
        make_package(
            "dpkg", "1.18.4", installed_size=7_000_000, n_files=90,
            essential=True, depends=(_d("perl-base"),), section="admin",
        ),
        make_package(
            "perl-base", "5.22.1", installed_size=6_000_000, n_files=60,
            essential=True, depends=(_d("libc6"),), section="perl",
        ),
        make_package(
            "bash", "4.3", installed_size=4_000_000, n_files=40,
            essential=True,
            depends=(_d("libc6", ">=", "2.15"),), section="shells",
        ),
        make_package(
            "libssl", "1.0.2", installed_size=2_500_000, n_files=15,
            depends=(_d("libc6"),), section="libs",
        ),
        make_package(
            "redis-server", "3.0.6", installed_size=1_500_000,
            n_files=30, depends=(_d("libc6"), _d("libssl")),
            section="database",
        ),
        make_package(
            "nginx", "1.10.3", installed_size=3_200_000, n_files=55,
            depends=(_d("libc6"), _d("libssl")), section="httpd",
        ),
        make_package(
            "bigapp", "2.0.0", installed_size=160_000_000, n_files=900,
            depends=(_d("libbig"),), section="misc", gzip_ratio=0.7,
        ),
        make_package(
            "libbig", "2.0.0", installed_size=40_000_000, n_files=200,
            depends=(_d("libc6"),), section="libs",
        ),
        make_package(
            "portable-tool", "1.0", arch="all",
            installed_size=800_000, n_files=12, section="utils",
        ),
        make_package(
            "future-app", "9.9", installed_size=1_000_000, n_files=10,
            depends=(_d("libc6", ">=", "99.0"),), section="misc",
        ),
        # a second, newer libssl version for constraint tests
        make_package(
            "libssl", "1.1.0", installed_size=2_700_000, n_files=16,
            depends=(_d("libc6"),), section="libs",
        ),
    ]
    return Catalog(packages)


BASE_PACKAGE_NAMES = ("libc6", "dpkg", "perl-base", "bash")


def make_mini_template(extra: tuple[str, ...] = ()) -> BaseTemplate:
    return BaseTemplate(
        attrs=MINI_ATTRS,
        package_names=BASE_PACKAGE_NAMES + extra,
        skeleton_files=200,
        skeleton_size=20_000_000,
    )


@pytest.fixture
def mini_catalog() -> Catalog:
    return make_mini_catalog()


@pytest.fixture
def mini_template() -> BaseTemplate:
    return make_mini_template()


@pytest.fixture
def mini_builder(mini_catalog, mini_template) -> ImageBuilder:
    return ImageBuilder(mini_catalog, mini_template)


@pytest.fixture
def redis_recipe() -> BuildRecipe:
    return BuildRecipe(
        name="redis-vm",
        primaries=("redis-server",),
        user_data_size=1_000_000,
        user_data_files=10,
        instance_noise_size=2_000_000,
        instance_noise_files=20,
    )


@pytest.fixture
def redis_vmi(mini_builder, redis_recipe):
    return mini_builder.build(redis_recipe)


@pytest.fixture
def mini_system():
    """A fresh Expelliarmus over an empty repository."""
    from repro.core.system import Expelliarmus

    return Expelliarmus()


# ---------------------------------------------------------------------------
# generated scale corpora, session cached per configuration
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def scale_corpus_factory():
    """Session-cached :class:`~repro.workloads.scale.ScaleCorpus` maker.

    ``factory(n_vmis, n_families=..., seed=..., **overrides)`` returns
    the corpus for that exact configuration, building it at most once
    per session.  Sharing is safe: corpora are immutable recipes —
    every ``build()`` call constructs fresh (mutable) images — so two
    tests drawing from one cached corpus can never interfere.
    """
    from repro.workloads.scale import scale_corpus

    cache = {}

    def factory(n_vmis, n_families=4, seed="scale", **overrides):
        key = (
            n_vmis,
            n_families,
            seed,
            tuple(sorted(overrides.items())),
        )
        if key not in cache:
            cache[key] = scale_corpus(
                n_vmis, n_families=n_families, seed=seed, **overrides
            )
        return cache[key]

    return factory


# ---------------------------------------------------------------------------
# full corpus, session scoped
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def corpus():
    from repro.workloads.generator import standard_corpus

    return standard_corpus()


@pytest.fixture(scope="session")
def related_work_result(corpus):
    """The related-work experiment over the standard corpus (the one
    ``expelliarmus experiments related`` runs), computed once."""
    from repro.experiments.related_work import run_related_work

    return run_related_work(corpus)


@pytest.fixture(scope="session")
def table2_result():
    from repro.experiments.table2 import run_table2

    return run_table2()


@pytest.fixture(scope="session")
def fig3a_result():
    from repro.experiments.fig3 import run_fig3a

    return run_fig3a()


@pytest.fixture(scope="session")
def fig3b_result():
    from repro.experiments.fig3 import run_fig3b

    return run_fig3b()


@pytest.fixture(scope="session")
def fig3c_result():
    from repro.experiments.fig3 import run_fig3c

    return run_fig3c()


@pytest.fixture(scope="session")
def fig4a_result():
    from repro.experiments.fig4 import run_fig4a

    return run_fig4a()


@pytest.fixture(scope="session")
def fig4b_result():
    from repro.experiments.fig4 import run_fig4b

    return run_fig4b()


@pytest.fixture(scope="session")
def fig5a_result():
    from repro.experiments.fig5 import run_fig5a

    return run_fig5a()


@pytest.fixture(scope="session")
def fig5b_result():
    from repro.experiments.fig5 import run_fig5b

    return run_fig5b()
