"""Repository garbage collection — incremental by default.

Deleting a published VMI only drops its index record; the packages,
user data and base image it referenced may still serve other VMIs.
The repository maintains liveness *eagerly* (DESIGN.md §10): reference
counts per stored object, updated at publish/delete time, plus a
dirty-base set naming the bases whose master graphs and record
contributions a deletion or base replacement invalidated.

:class:`GarbageCollector` re-establishes the Section III-H invariant
(master graphs hold exactly the primary subgraphs of published VMIs)
in one of two modes:

* **incremental** (the default): re-derive only the *dirty* bases —
  rebuild their master graphs around live members, re-derive their
  records' package contributions — then sweep exactly the
  zero-reference candidates the refcounts already identified.  Work
  scales with churn since the last pass, not with repository size.
* **full** (``collect(full=True)``): the original stop-the-world
  mark-and-sweep, kept as the verification anchor.  Every live base is
  re-derived, every refcount rebuilt from scratch, and every stored
  object scanned.  The incremental path must match it exactly —
  identical survivors, master graphs, refcounts and byte accounting —
  a property the differential suite in
  ``tests/property/test_gc_incremental_props.py`` pins down.

Either mode keeps the blob-store byte accounting exact — the property
the GC tests and the sprawl example rely on.  When constructed with a
clock and cost model, a pass charges simulated time under the ``"gc"``
label (record scans, master rebuilds, blob unlinks).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.repository.master_graphs import MasterGraph
from repro.repository.repo import Repository
from repro.sim.clock import SimulatedClock
from repro.sim.costmodel import CostModel

__all__ = ["GCReport", "GarbageCollector"]


@dataclass(frozen=True)
class GCReport:
    """What one collection pass reclaimed, and what it cost to find."""

    removed_packages: int
    removed_user_data: int
    removed_bases: int
    reclaimed_bytes: int
    #: "incremental" or "full"
    mode: str = "full"
    #: VMI records whose contributions were (re)derived this pass
    records_scanned: int = 0
    #: master graphs rebuilt around live members
    graph_rebuilds: int = 0
    #: simulated seconds charged to the pass (0 without a clock)
    gc_seconds: float = 0.0

    @property
    def removed_anything(self) -> bool:
        return (
            self.removed_packages
            + self.removed_user_data
            + self.removed_bases
        ) > 0


class GarbageCollector:
    """Refcount-driven sweep over the repository's reference graph."""

    def __init__(
        self,
        repo: Repository,
        clock: SimulatedClock | None = None,
        cost: CostModel | None = None,
    ) -> None:
        self.repo = repo
        self.clock = clock
        self.cost = cost

    def collect(self, *, full: bool = False) -> GCReport:
        """Run one collection pass; returns what was reclaimed.

        ``full=True`` runs the stop-the-world verification pass (every
        base re-derived, refcounts rebuilt, every stored object
        scanned); the default sweeps incrementally from the dirty-base
        set and the zero-reference candidates.
        """
        if self.clock is None:
            return self._run(full)
        with self.clock.measure() as breakdown:
            report = self._run(full)
        return dataclasses.replace(report, gc_seconds=breakdown.total)

    # ------------------------------------------------------------------

    def _charge(self, seconds: float) -> None:
        if self.clock is not None:
            self.clock.advance(seconds, "gc")

    def _run(self, full: bool) -> GCReport:
        repo = self.repo
        bytes_before = repo.total_bytes()

        if full:
            basis = [row.blob_key for row in repo.db.base_images()]
        else:
            basis = sorted(repo.dirty_bases())

        # -- mark: re-derive dirty (or all) bases -----------------------
        records_scanned = 0
        graph_rebuilds = 0
        for base_key in basis:
            records = repo.vmi_records_for_base(base_key)
            records_scanned += len(records)
            if self.cost is not None:
                self._charge(
                    len(records) * self.cost.gc_record_scan()
                )
            if records and repo.has_master_graph(base_key):
                self._rederive_base(base_key, records)
                graph_rebuilds += 1
            repo.clear_base_dirty(base_key)

        if full:
            # verification anchor: recompute every refcount from the
            # records and join rows instead of trusting the increments
            repo.rebuild_refcounts()

        # -- sweep: zero-reference packages, data, bases ----------------
        if full:
            pkg_candidates = [
                row.blob_key for row in repo.db.all_packages()
            ]
            data_candidates = list(repo.user_data_labels())
            base_candidates = [
                base.blob_key() for base in repo.base_images()
            ]
        else:
            pkg_candidates = sorted(repo.zero_ref_packages())
            data_candidates = sorted(repo.zero_ref_data())
            base_candidates = sorted(repo.zero_ref_bases())

        removed_packages = 0
        for key in pkg_candidates:
            if repo.package_refs(key) == 0:
                repo.remove_package(key)
                removed_packages += 1
                if self.cost is not None:
                    self._charge(self.cost.unlink_blob())

        removed_data = 0
        for label in data_candidates:
            if repo.data_refs(label) == 0:
                repo.remove_user_data(label)
                removed_data += 1
                if self.cost is not None:
                    self._charge(self.cost.unlink_blob())

        removed_bases = 0
        for key in base_candidates:
            if repo.base_refs(key) == 0:
                repo.remove_base_image(key)
                removed_bases += 1
                if self.cost is not None:
                    self._charge(self.cost.unlink_blob())

        return GCReport(
            removed_packages=removed_packages,
            removed_user_data=removed_data,
            removed_bases=removed_bases,
            reclaimed_bytes=bytes_before - repo.total_bytes(),
            mode="full" if full else "incremental",
            records_scanned=records_scanned,
            graph_rebuilds=graph_rebuilds,
        )

    # ------------------------------------------------------------------

    def _rederive_base(self, base_key: int, records: list) -> None:
        """Rebuild one live base's master graph around its live members
        and re-derive each record's package contribution.

        The inverse of Algorithm 1's storage steps, restricted to one
        base: the rebuilt master holds exactly the live members'
        primary subgraphs, and each record's contribution is its
        closure minus what the base provides — the same quantity the
        publisher records and the refcounts track.
        """
        repo = self.repo
        master = repo.get_master_graph(base_key)

        #: (primary name, version | None) pairs live on this base
        live_pairs: set[tuple[str, str | None]] = set()
        for record in records:
            for pname in record.primary_names:
                live_pairs.add((pname, record.primary_version(pname)))

        rebuilt = MasterGraph.for_base(master.base)
        #: pair -> the stored blob keys its closure imports
        pair_imports: dict[tuple[str, str | None], set[int]] = {}
        base_names = master.base.package_names()
        for pair in sorted(
            live_pairs, key=lambda pv: (pv[0], pv[1] or "")
        ):
            pname, version = pair
            if not master.has_package(pname):
                continue
            subgraph = master.extract_primary_subgraph(pname, version)
            rebuilt.add_primary_subgraph(subgraph)
            pair_imports[pair] = {
                pkg.blob_key()
                for pkg in subgraph.packages()
                if pkg.name not in base_names
                and repo.blobs.contains(pkg.blob_key())
            }
        rebuilt.member_vmis = [r.name for r in records]
        repo.put_master_graph(rebuilt)
        if self.cost is not None:
            self._charge(self.cost.master_rebuild(len(pair_imports)))

        for record in records:
            contribution: set[int] = set()
            for pname in record.primary_names:
                pair = (pname, record.primary_version(pname))
                contribution |= pair_imports.get(pair, set())
            repo.reassign_vmi_packages(
                record.name, sorted(contribution)
            )
