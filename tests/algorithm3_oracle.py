"""Reference implementation of Algorithm 3 (VMI retrieval) for tests.

The library serves every retrieval through one planner with a plan
cache (:mod:`repro.core.assembly_plan`).  Comparing it with itself
proves nothing, so the differential suites compare it with this
paper-literal derivation instead: no plans, no caches, every request
derived from the master graph from scratch and charged a cold base
copy — Algorithm 3 line by line.

``reference_retrieve(system, name)`` and ``reference_assemble(system,
...)`` mirror :meth:`~repro.core.assembler.VMIAssembler.retrieve` and
:meth:`~repro.core.assembler.VMIAssembler.assemble`: same result type,
same errors under the same conditions.  They charge a private clock,
so calling the oracle never moves the system's own accounting.
"""

from __future__ import annotations

from repro.core.assembly_plan import RetrievalReport
from repro.errors import IncompatibleImageError, RetrievalError
from repro.image.guestfs import GuestfsHandle
from repro.image.sysprep import sysprep
from repro.model.graph import PackageRole, SemanticGraph
from repro.model.vmi import VirtualMachineImage
from repro.sim.clock import SimulatedClock
from repro.similarity.compatibility import is_compatible

__all__ = ["reference_assemble", "reference_retrieve"]


def reference_retrieve(system, name: str) -> RetrievalReport:
    """Reassemble the published VMI ``name`` from scratch."""
    record = system.repo.get_vmi_record(name)
    return reference_assemble(
        system,
        name,
        record.base_key,
        record.primary_names,
        record.data_label,
        {pname: version for pname, version, _ in record.primary_identities},
    )


def reference_assemble(
    system,
    name: str,
    base_key: int,
    primary_names: tuple[str, ...],
    data_label: str | None = None,
    primary_versions: dict[str, str] | None = None,
) -> RetrievalReport:
    """Algorithm 3 over ``system.repo``, charged at ``system.cost``."""
    repo, cost = system.repo, system.cost
    clock = SimulatedClock()
    versions = primary_versions or {}
    with clock.measure() as breakdown:
        # -- line 1: fetch subgraphs ----------------------------------
        master = repo.get_master_graph(base_key)
        gi_bi = master.base_subgraph
        gi_ps = SemanticGraph()
        for pname in primary_names:
            if not master.has_package(pname):
                raise RetrievalError(
                    f"package {pname!r} is not available for base "
                    f"{master.attrs}"
                )
            gi_ps.union_update(
                master.extract_primary_subgraph(pname, versions.get(pname))
            )

        # -- line 2: compatibility precondition -------------------------
        if primary_names and not is_compatible(gi_bi, gi_ps):
            raise IncompatibleImageError(
                f"requested packages {primary_names} are not compatible "
                f"with base {master.attrs}"
            )

        # -- line 3: copy the base image out of the repository ----------
        base = repo.get_base_image(base_key)
        clock.advance(
            cost.read_bytes(repo.base_image_size(base_key)), "base-copy"
        )
        handle = GuestfsHandle(clock, cost, label="handle")
        handle.launch()

        # -- line 4: reset to first-boot state ----------------------------
        vmi = VirtualMachineImage(name, base)
        handle.mount(vmi)
        sysprep(vmi)
        clock.advance(cost.vmi_reset(), "reset")

        # -- line 5: import user data --------------------------------------
        if data_label is not None:
            data = repo.get_user_data(data_label)
            vmi.attach_user_data(data)
            clock.advance(cost.read_bytes(data.size), "import")

        # -- lines 6-13: install missing packages ----------------------------
        base_names = base.package_names()
        imported: list[str] = []
        for pkg in gi_ps.packages():
            if pkg.name in base_names:
                continue  # line 7: already provided by the base image
            stored = repo.get_package(pkg.blob_key())
            role = (
                PackageRole.PRIMARY
                if pkg.name in primary_names
                else PackageRole.DEPENDENCY
            )
            vmi.install_package(
                stored, role, auto=role is PackageRole.DEPENDENCY
            )
            clock.advance(cost.import_package(stored), "import")
            imported.append(pkg.name)

        handle.shutdown()
    return RetrievalReport(
        vmi=vmi, imported_packages=tuple(imported), breakdown=breakdown
    )
