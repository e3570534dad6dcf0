"""The distribution package catalog and its dependency resolver.

The catalog plays the role of the Ubuntu archive: it knows every
available package version and answers APT-style resolution queries —
"give me an ordered install plan for these names, honouring version
constraints, tolerating dependency cycles".

Cycles are first-class: libc6, dpkg and perl-base depend on each other
(Figure 1a of the paper), so the resolver works on the strongly-connected
condensation rather than assuming a DAG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import DependencyError, UnknownPackageError
from repro.model.graph import strongly_connected_components
from repro.model.package import DependencySpec, Package

__all__ = ["Catalog", "InstallPlan", "PlanStep"]


@dataclass(frozen=True)
class PlanStep:
    """One package of an install plan, with its auto/manual mark."""

    package: Package
    #: True when the package is pulled in purely as a dependency.
    auto: bool


@dataclass(frozen=True)
class InstallPlan:
    """An ordered, dependency-closed install plan.

    The order is a reverse-topological order of the dependency graph's
    condensation (dependencies first), so installing sequentially never
    references a missing package.  Members of a dependency cycle appear
    consecutively ("they need to be provided and installed together",
    Section III-B).
    """

    steps: tuple[PlanStep, ...]

    def packages(self) -> list[Package]:
        return [s.package for s in self.steps]

    def names(self) -> list[str]:
        return [s.package.name for s in self.steps]

    def total_installed_size(self) -> int:
        return sum(s.package.installed_size for s in self.steps)

    def total_deb_size(self) -> int:
        return sum(s.package.deb_size for s in self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[PlanStep]:
        return iter(self.steps)


class Catalog:
    """All package versions the synthetic distribution offers."""

    def __init__(self, packages: Iterable[Package] = ()) -> None:
        self._versions: dict[str, list[Package]] = {}
        for pkg in packages:
            self.add(pkg)

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------

    def add(self, pkg: Package) -> None:
        """Register a package version.

        Raises:
            DependencyError: if the exact version is already present.
        """
        versions = self._versions.setdefault(pkg.name, [])
        if any(v.identity == pkg.identity for v in versions):
            raise DependencyError(
                f"catalog already contains {pkg.name} {pkg.version}"
            )
        versions.append(pkg)
        versions.sort(key=lambda p: p.version)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._versions

    def __len__(self) -> int:
        return sum(len(v) for v in self._versions.values())

    def names(self) -> list[str]:
        return sorted(self._versions)

    def versions_of(self, name: str) -> list[Package]:
        """All known versions, oldest first.

        Raises:
            UnknownPackageError: for names not in the catalog.
        """
        try:
            return list(self._versions[name])
        except KeyError:
            raise UnknownPackageError(name) from None

    def latest(self, name: str) -> Package:
        """The newest version of ``name``."""
        return self.versions_of(name)[-1]

    def best_candidate(self, spec: DependencySpec) -> Package:
        """Newest version satisfying ``spec``.

        Raises:
            UnknownPackageError: unknown name.
            DependencyError: no version satisfies the constraint.
        """
        for pkg in reversed(self.versions_of(spec.name)):
            if spec.satisfied_by(pkg.version):
                return pkg
        raise DependencyError(f"no version of {spec.name} satisfies {spec}")

    def essential_packages(self) -> list[Package]:
        """Latest version of every essential package (the minimal OS)."""
        return [
            self.latest(name)
            for name in self.names()
            if self.latest(name).essential
        ]

    def all_packages(self) -> list[Package]:
        return [p for vs in self._versions.values() for p in vs]

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------

    def resolve(
        self,
        requested: Iterable[str],
        *,
        preinstalled: dict[str, Package] | None = None,
    ) -> InstallPlan:
        """Compute an install plan for ``requested`` package names.

        ``preinstalled`` maps names to versions already on the guest
        (typically the base image's packages): these are not re-planned,
        but every dependency constraint pointing at them is *verified*,
        and an unsatisfiable constraint raises.

        Raises:
            UnknownPackageError: a requested or depended-on name is
                neither in the catalog nor preinstalled.
            DependencyError: a version constraint cannot be met.
        """
        preinstalled = dict(preinstalled or {})
        requested = list(requested)
        chosen: dict[str, Package] = {}
        manual: set[str] = set()

        # -- closure ----------------------------------------------------
        frontier: list[DependencySpec] = []
        for name in requested:
            manual.add(name)
            frontier.append(DependencySpec(name))
        while frontier:
            spec = frontier.pop()
            if spec.name in preinstalled:
                if not spec.satisfied_by(preinstalled[spec.name].version):
                    raise DependencyError(
                        f"installed {spec.name} "
                        f"{preinstalled[spec.name].version} does not "
                        f"satisfy {spec}"
                    )
                continue
            if spec.name in chosen:
                if not spec.satisfied_by(chosen[spec.name].version):
                    raise DependencyError(
                        f"selected {spec.name} {chosen[spec.name].version} "
                        f"does not satisfy {spec}"
                    )
                continue
            pkg = self.best_candidate(spec)
            chosen[spec.name] = pkg
            frontier.extend(pkg.depends)

        # -- order: dependencies first, cycles kept adjacent -------------
        order = _dependency_order(chosen, preinstalled)
        steps = tuple(
            PlanStep(package=chosen[name], auto=name not in manual)
            for name in order
        )
        return InstallPlan(steps=steps)


def _dependency_order(
    chosen: dict[str, Package], preinstalled: dict[str, Package]
) -> list[str]:
    """Reverse-topological order over the condensation of Depends.

    Implemented with an iterative Tarjan SCC so dependency cycles
    (libc6 / dpkg / perl-base) cannot blow the recursion limit and their
    members stay consecutive in the plan.
    """
    depends = {
        name: [dep for dep in pkg.dependency_names() if dep in chosen]
        for name, pkg in chosen.items()
    }
    components = strongly_connected_components(depends)
    component_of = {
        name: i for i, members in enumerate(components) for name in members
    }
    # The condensation is ordered generation by generation from the
    # components nothing depends on (Kahn), then reversed.  Tarjan's
    # emission order would also be a valid install order, but this is
    # the order networkx's condensation gives, which stored install
    # orders and the simulated import timings were recorded with (the
    # graph oracle property suite pins the equality).
    dependencies: list[dict[int, None]] = [{} for _ in components]
    dependents = [0] * len(components)
    for name, deps in depends.items():
        source = component_of[name]
        for dep in deps:
            target = component_of[dep]
            if target != source and target not in dependencies[source]:
                dependencies[source][target] = None
                dependents[target] += 1
    generation = [i for i, n in enumerate(dependents) if n == 0]
    ranked: list[int] = []
    while generation:
        ranked.extend(generation)
        following = []
        for source in generation:
            for target in dependencies[source]:
                dependents[target] -= 1
                if dependents[target] == 0:
                    following.append(target)
        generation = following
    order: list[str] = []
    for i in reversed(ranked):
        order.extend(sorted(components[i]))
    return order
