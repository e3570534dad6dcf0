"""APT-style package manager driving a VirtualMachineImage.

Where the paper runs ``apt-get install`` inside the guest through
libguestfs, the reproduction drives the same state machine directly:
resolution against the catalog, installation with auto/manual marks,
removal, and autoremove of orphaned dependencies.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import UnknownPackageError
from repro.guestos.catalog import Catalog, InstallPlan
from repro.model.graph import PackageRole
from repro.model.package import Package
from repro.model.vmi import VirtualMachineImage

__all__ = ["PackageManager"]


class PackageManager:
    """Installs and removes packages on one guest image."""

    def __init__(self, catalog: Catalog, vmi: VirtualMachineImage) -> None:
        self.catalog = catalog
        self.vmi = vmi

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _installed_versions(self) -> dict[str, Package]:
        return {
            rec.name: rec.package for rec in self.vmi.installed_packages()
        }

    def plan_install(self, names: Iterable[str]) -> InstallPlan:
        """Resolve ``names`` against the catalog and current guest state."""
        return self.catalog.resolve(
            names, preinstalled=self._installed_versions()
        )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def install(
        self,
        names: Iterable[str],
        *,
        role: PackageRole = PackageRole.PRIMARY,
    ) -> InstallPlan:
        """Install ``names`` plus dependencies; returns the executed plan.

        Requested packages get ``role`` (primary by default); pulled-in
        dependencies are recorded with the dependency role and the auto
        mark, exactly like ``apt-get install``.
        """
        requested = list(names)
        plan = self.plan_install(requested)
        requested_set = set(requested)
        for step in plan:
            pkg_role = role if step.package.name in requested_set else (
                PackageRole.DEPENDENCY
            )
            self.vmi.install_package(
                step.package, pkg_role, auto=step.auto
            )
        # a requested name that was already installed will not appear in
        # the plan; still promote its role (apt marks it manual).
        for name in requested_set:
            if not self.vmi.has_package(name):
                raise UnknownPackageError(name, where="guest after install")
            if role is PackageRole.PRIMARY:
                self.vmi.mark_manual(name)
        return plan

    def install_package_object(
        self, pkg: Package, *, role: PackageRole, auto: bool = False
    ) -> None:
        """Install one concrete package version without re-resolving.

        Used by the VMI assembler, which imports exact stored versions
        from the local repository rather than asking the archive.
        """
        self.vmi.install_package(pkg, role, auto=auto)

    def remove(self, name: str) -> Package:
        """Remove one package (not its dependencies).

        Raises:
            PackageStateError: if ``name`` is not removable (not
                installed, or part of the base OS).
        """
        return self.vmi.remove_package(name)

    def autoremove(self) -> list[str]:
        """Remove all orphaned auto-installed dependencies."""
        return self.vmi.remove_unused_dependencies()

    def purge(self, names: Iterable[str]) -> list[str]:
        """Remove ``names`` then autoremove; returns everything removed."""
        removed: list[str] = []
        for name in names:
            self.remove(name)
            removed.append(name)
        removed.extend(self.autoremove())
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PackageManager vmi={self.vmi.name!r}>"
