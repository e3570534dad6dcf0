"""Corpus builders: specs -> VirtualMachineImage objects.

Two corpora live here: the paper's 19-image Table II workload
(:class:`Corpus` / :func:`standard_corpus`) and the parameterizable
large-corpus generator for scale experiments
(:func:`scale_corpus`, re-exported from
:mod:`repro.workloads.scale` — hundreds to thousands of VMIs across
many OS families).
"""

from __future__ import annotations

from repro.guestos.catalog import Catalog
from repro.image.builder import BaseTemplate, BuildRecipe, ImageBuilder
from repro.model.vmi import VirtualMachineImage
from repro.workloads.catalog_data import base_template, build_catalog
from repro.workloads.scale import (
    ScaleConfig,
    ScaleCorpus,
    scale_corpus,
)
from repro.workloads.vmi_specs import (
    FOUR_VMI_NAMES,
    TABLE_II_ORDER,
    VMISpec,
    spec_for,
)

__all__ = [
    "Corpus",
    "standard_corpus",
    "ScaleConfig",
    "ScaleCorpus",
    "scale_corpus",
]


class Corpus:
    """Builds the paper's evaluation images on demand.

    Images are *built fresh on every call* because publishing mutates
    them (Algorithm 1 strips a VMI down to its base); the underlying
    package manifests are cached, so a build costs milliseconds.
    """

    def __init__(
        self,
        catalog: Catalog | None = None,
        template: BaseTemplate | None = None,
    ) -> None:
        self.catalog = catalog or build_catalog()
        self.template = template or base_template()
        self.builder = ImageBuilder(self.catalog, self.template)

    def spec(self, name: str) -> VMISpec:
        return spec_for(name)

    def build(self, name: str, build_id: int = 0) -> VirtualMachineImage:
        """Build one Table II image (optionally a specific rebuild)."""
        spec = spec_for(name)
        return self.builder.build(
            BuildRecipe(
                name=spec.name if build_id == 0 else f"{spec.name}#{build_id}",
                primaries=spec.primaries,
                user_data_size=spec.user_data_size,
                user_data_files=spec.user_data_files,
                build_id=build_id,
            )
        )

    def build_four(self) -> list[VirtualMachineImage]:
        """Mini, Base, Desktop, IDE (Figures 3a and 4a)."""
        return [self.build(name) for name in FOUR_VMI_NAMES]

    def table_ii_names(self) -> tuple[str, ...]:
        return TABLE_II_ORDER


def standard_corpus() -> Corpus:
    """The default corpus over the synthetic xenial catalog."""
    return Corpus()
