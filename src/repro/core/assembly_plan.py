"""Algorithm 3 of the paper — VMI retrieval through cacheable plans
(DESIGN.md §9).

Retrieval assembles a requested VMI from stored parts: copy the base
image from the repository, create a guestfs handle, reset the image
(virt-sysprep), import user data, then install every primary-subgraph
package the base does not already provide.  The four charged
components — base-image copy, handle creation, reset, import — are
exactly the stack Figure 5a plots.

Most of that is derivation repeated for every member of a VMI family:
fetch the master graph, extract each requested primary's subgraph,
union them, check the compatibility precondition, and decide which
packages the base already provides.  Read-heavy traffic hits a small
set of ``(base image, primary set)`` combinations, so
:class:`AssemblyPlanner` splits retrieval into two halves:

* **derive** — resolve a :class:`RetrievalRequest` into an explicit
  :class:`AssemblyPlan`: the base blob to copy (and its charged size),
  and the exact ordered list of :class:`InstallStep` package imports.
  Plans are cached keyed by the request's ``(base_key, primary
  identity sequence)``.  Deriving reads the master's own indexes and
  builds no graph: each primary's root comes from the master's name
  population (``MasterGraph.primary_root``), ``GI[PS]`` is the ordered
  union of the roots' closure keys, checked against the base's name →
  package map (``packages_compatibility``).
* **execute** — run a plan against the repository, charging the four
  Figure-5a components.  Warm and cold retrieval differ only in the
  base-copy charge: batches clone a warm local copy of a base they
  already read (:meth:`AssemblyPlanner.assemble`), while single
  requests (:class:`~repro.core.assembler.VMIAssembler`) always pay the
  full repository read.

**Cache soundness.**  A cached plan is only served while the inputs
it was derived from still hold.  The base blob must still be stored
(content-addressed, so same key ⟹ same bytes) and the base must
still have a master graph.  Then either the master's
:attr:`~repro.repository.master_graphs.MasterGraph.revision` equals
the one the cache entry was last validated at — revisions come from a
process-wide monotonic counter, so an equal revision means no merge
since — or the plan's own dependency closure is unchanged.  A plan
records, when it is derived, the master's
:attr:`~repro.repository.master_graphs.MasterGraph.lineage`, the
closure's vertex keys, the sum of their out-degrees in the master's
package graph, and for each requested primary how many master
vertices carry its name.  The closure is unchanged while all four
match, because:

* within one lineage the package graph only grows, through
  ``add_primary_subgraph`` → ``union_update``: vertices and edges are
  appended, never removed, and an existing key's payload is never
  replaced;
* role strengthening does not matter: plans never read graph roles
  (each step's role comes from the request, and the compatibility
  check reads packages only);
* a primary's root is the first maximal version among the vertices
  with its name, which cannot move while that name's count is
  unchanged;
* DFS discovery order and the induced edge order cannot move while no
  closure vertex gains an out-edge — and since edges are only ever
  added, an unchanged out-degree sum means none was.

A GC rebuild, a restore, a base replacement or a new master is a new
object and so a new lineage, which always re-derives.  A
repository-wide mutation counter
(:attr:`~repro.repository.repo.Repository.mutations`) provides a
faster path still: while nothing in the repository changed at all,
revalidation is one integer compare.  The cache holds at most one plan
per live VMI record and drops the least recently served plan first, so
a long-running daemon's churn (deletes, replaced bases) cannot grow
it.

**Assembled once.**  Execution builds from parts that are shared,
each sound because what it is made of is immutable or checked by
identity:

* *a record per stored base*: the base object, its package-name set
  and name → package map (derivation filters installs and checks
  compatibility against them) and its *first-boot image*
  ``VirtualMachineImage("", base)``: every base package registered,
  no user data, no residue, so sysprep is a no-op on it and a build
  clones it instead of registering every base package.  A record is
  trusted only while the repository returns that very base object
  under its key, and is dropped at the first request after its blob
  is gone, so records never outnumber stored bases.
* *a template per plan entry and user-data label*: the image the
  entry's first execution built, the stored packages it installed and
  the charges that followed its base copy (handle, reset, data import,
  each step's import).  A later execution does a build's lookups in a
  build's order (base, user data, each step's package); when each
  returns the template's part, it charges the base copy as always,
  then the recorded sequence in one
  :meth:`~repro.sim.clock.SimulatedClock.advance_all` (the cost model
  is a pure function of those parts, so the same floats land in the
  same order), and returns a clone.  If any lookup fails or returns
  another object, the image is built step by step, so errors, the
  point they are raised and the clock are those of a full build.
  Templates are dropped with their entry and bounded by the live
  record count like plans.
* *installed rows*: :class:`~repro.model.vmi.InstalledPackage` is
  immutable, so a clone copies two dicts and shares every row; a role
  change replaces the changed image's own row.

This is the only implementation of Algorithm 3.  The paper-literal
derivation — no plans, no caches — lives in the test suite as the
reference oracle (``tests/algorithm3_oracle.py``): the differential
and property tests hold every path here to it — same assembled VMI,
same imported-package order, same errors, same charges up to the
warm base copy.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass, field

from repro.errors import (
    IncompatibleImageError,
    NotInRepositoryError,
    RetrievalError,
)
from repro.model.graph import PackageRole
from repro.model.package import Package
from repro.model.vmi import BaseImage, VirtualMachineImage
from repro.repository.master_graphs import MasterGraph
from repro.repository.repo import Repository, VMIRecord
from repro.sim.clock import SimulatedClock, TimeBreakdown
from repro.sim.costmodel import CostModel
from repro.similarity.compatibility import packages_compatibility

__all__ = [
    "RETRIEVAL_COMPONENTS",
    "AssemblyPlan",
    "AssemblyPlanner",
    "InstallStep",
    "PlannedRetrieval",
    "PlannerStats",
    "RetrievalReport",
    "RetrievalRequest",
]

#: the four charged retrieval components, in Figure-5a stack order
RETRIEVAL_COMPONENTS = ("base-copy", "handle", "reset", "import")


@dataclass(frozen=True)
class RetrievalReport:
    """The assembled VMI plus the Figure-5a time breakdown."""

    vmi: VirtualMachineImage
    #: packages imported from the repository (name order = install order)
    imported_packages: tuple[str, ...]
    breakdown: TimeBreakdown = field(default_factory=TimeBreakdown)

    @property
    def retrieval_time(self) -> float:
        """Total simulated retrieval duration (Table II column 7)."""
        return self.breakdown.total

    def component(self, label: str) -> float:
        return self.breakdown.component(label)


@dataclass(frozen=True)
class RetrievalRequest:
    """One retrieval to resolve: which VMI to assemble, from what."""

    name: str
    base_key: int
    primary_names: tuple[str, ...]
    data_label: str | None = None
    #: exact primary versions, when known (published VMIs record them);
    #: unlisted primaries resolve to the newest version in the master
    primary_versions: tuple[tuple[str, str], ...] = ()

    @classmethod
    def for_record(cls, record: VMIRecord) -> "RetrievalRequest":
        """The request that reassembles one published VMI."""
        return cls(
            name=record.name,
            base_key=record.base_key,
            primary_names=record.primary_names,
            data_label=record.data_label,
            primary_versions=tuple(
                (pname, version)
                for pname, version, _ in record.primary_identities
            ),
        )

    def plan_key(self) -> tuple:
        """The cache key: base blob + ordered primary identity set.

        The primary sequence is part of the key because install order
        follows request order — two orderings of one set are distinct
        plans with distinct (equally valid) import sequences.
        """
        return (self.base_key, self.primary_names, self.primary_versions)

    def version_of(self, name: str) -> str | None:
        for pname, version in self.primary_versions:
            if pname == name:
                return version
        return None


@dataclass(frozen=True)
class InstallStep:
    """One package import of a plan (Algorithm 3 lines 6-13)."""

    blob_key: int
    name: str
    role: PackageRole


@dataclass(frozen=True)
class AssemblyPlan:
    """Everything retrieval must do, resolved once and replayable."""

    base_key: int
    #: stored qcow2 bytes — the charged size of a cold base copy
    base_bytes: int
    installs: tuple[InstallStep, ...]
    #: the master-graph inputs the install list was derived from (see
    #: the module docstring): the master's lineage, the closure's
    #: vertex keys, their summed out-degree, and per requested primary
    #: the number of master vertices carrying its name
    lineage: int
    closure: tuple[str, ...]
    out_degree: int
    name_counts: tuple[tuple[str, int], ...]

    def imported_names(self) -> tuple[str, ...]:
        return tuple(step.name for step in self.installs)

    def closure_unchanged(self, master: MasterGraph) -> bool:
        """Does ``master`` still yield the closure this plan read?"""
        if master.lineage != self.lineage:
            return False
        population = master.package_population()
        if any(
            len(population.get(name, ())) != count
            for name, count in self.name_counts
        ):
            return False
        return (
            master.package_graph.out_degree_sum(self.closure)
            == self.out_degree
        )


@dataclass
class PlannerStats:
    """Work counters for the planner (benchmark + test probes)."""

    #: retrieval requests resolved through the planner
    requests: int = 0
    #: plans derived from scratch (cache miss or invalidation)
    plans_derived: int = 0
    #: requests answered by a still-valid cached plan
    plan_hits: int = 0
    #: cached plans discarded because the repository moved on
    plan_invalidations: int = 0
    #: primary subgraph extractions performed while deriving
    subgraph_extractions: int = 0
    #: compatibility checks performed while deriving
    compat_checks: int = 0
    #: base copies charged at full repository-read cost
    base_copies: int = 0
    #: base copies served from the warm local cache (clone cost)
    base_cache_hits: int = 0

    def snapshot(self) -> "PlannerStats":
        return dataclasses.replace(self)

    def since(self, before: "PlannerStats") -> "PlannerStats":
        """The counter delta between ``before`` and now."""
        return PlannerStats(**{
            f.name: getattr(self, f.name) - getattr(before, f.name)
            for f in dataclasses.fields(self)
        })


@dataclass(frozen=True, slots=True)
class _BaseRecord:
    """What every plan over one stored base reads of it (module
    docstring, "Assembled once")."""

    base: BaseImage
    names: frozenset[str]
    by_name: dict[str, Package]
    #: ``VirtualMachineImage("", base)``, which every build clones:
    #: sysprep is a no-op on it
    first_boot: VirtualMachineImage


@dataclass(frozen=True, slots=True)
class _Template:
    """An image a plan assembled, the stored packages it installed (in
    step order) and the charges that followed its base copy."""

    vmi: VirtualMachineImage
    packages: tuple[Package, ...]
    charges: tuple[tuple[float, str], ...]


@dataclass
class _CacheEntry:
    plan: AssemblyPlan
    #: repository mutation counter at last successful validation —
    #: while it matches, the plan is fresh by construction
    validated_at: int
    #: master revision at last successful validation — while it
    #: matches, nothing merged into the master since
    revision: int
    #: user-data label -> the image this plan assembled with it, cloned
    #: by later executions (module docstring, "Assembled once")
    assembled: dict[str | None, _Template] = field(
        default_factory=dict
    )


@dataclass(frozen=True)
class PlannedRetrieval:
    """One planner-driven retrieval plus its cache outcome."""

    report: RetrievalReport
    plan_hit: bool
    warm_base: bool


class AssemblyPlanner:
    """Derives, caches and executes assembly plans for one repository."""

    def __init__(
        self, repo: Repository, clock: SimulatedClock, cost: CostModel
    ) -> None:
        self.repo = repo
        self.clock = clock
        self.cost = cost
        self.stats = PlannerStats()
        #: one planner may serve many retrieval threads (DESIGN.md
        #: §12): the plan dict, warm-base set and work counters mutate
        #: only under this mutex, so a reader can never observe a torn
        #: cache entry or serve a half-derived plan.  Reentrant, so
        #: derivation helpers may take it again.
        self._mutex = threading.RLock()
        self._plans: dict[tuple, _CacheEntry] = {}
        #: templates held across all entries (bounded like the plans)
        self._n_assembled = 0
        #: base blobs with a warm local copy; entries are only trusted
        #: while the blob is still stored
        self._warm_bases: set[int] = set()
        #: base blob -> its record, trusted while the repository holds
        #: that very base object under the key; dropped once the blob
        #: is gone, checked once per repository mutation
        self._base_records: dict[int, _BaseRecord] = {}
        self._swept_at: int | None = None

    # ------------------------------------------------------------------
    # plan cache
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._mutex:
            return len(self._plans)

    @property
    def n_assembled(self) -> int:
        """Assembled templates held across all cached plans."""
        with self._mutex:
            return self._n_assembled

    def clear(self) -> None:
        """Drop every cached plan, its templates, warm base copy and
        per-base record."""
        with self._mutex:
            self._plans.clear()
            self._n_assembled = 0
            self._warm_bases.clear()
            self._base_records.clear()

    def plan_for(self, request: RetrievalRequest) -> tuple[AssemblyPlan, bool]:
        """The plan for ``request``: ``(plan, served_from_cache)``.

        Raises:
            NotInRepositoryError: the base (or its master graph) is not
                stored.
            RetrievalError: a requested primary is not available for
                the base.
            IncompatibleImageError: the requested primary set violates
                the Algorithm 3 line-2 precondition.
        """
        entry, hit = self._entry_for(request)
        return entry.plan, hit

    def _entry_for(
        self, request: RetrievalRequest
    ) -> tuple[_CacheEntry, bool]:
        key = request.plan_key()
        with self._mutex:
            self._drop_gone_bases()
            entry = self._plans.pop(key, None)
            if entry is not None:
                # one integer compare while the repository is
                # unchanged since the last validation
                if (
                    entry.validated_at == self.repo.mutations
                    or self._still_valid(entry)
                ):
                    entry.validated_at = self.repo.mutations
                    self.stats.plan_hits += 1
                    # re-inserted last: dict order is recency order
                    self._plans[key] = entry
                    self._trim_assembled()
                    return entry, True
                self.stats.plan_invalidations += 1
                self._n_assembled -= len(entry.assembled)
            plan, revision = self._derive(request)
            entry = _CacheEntry(
                plan=plan,
                validated_at=self.repo.mutations,
                revision=revision,
            )
            self._plans[key] = entry
            # at most one plan per live record: drop the least recently
            # served, so plans of deleted VMIs and replaced bases (never
            # served again) leave first
            while len(self._plans) > max(1, self.repo.vmi_count()):
                oldest = self._plans.pop(next(iter(self._plans)))
                self._n_assembled -= len(oldest.assembled)
            self._trim_assembled()
            return entry, False

    def _trim_assembled(self) -> None:  # reprolint: unguarded
        """At most one template per live record: the templates of the
        least recently served plans leave first.  Caller holds the
        mutex."""
        limit = max(1, self.repo.vmi_count())
        for entry in self._plans.values():
            if self._n_assembled <= limit:
                return
            self._n_assembled -= len(entry.assembled)
            entry.assembled.clear()

    def _drop_gone_bases(self) -> None:  # reprolint: unguarded
        """Drop the per-base records whose blob is gone, once per
        repository mutation.  Caller holds the mutex."""
        mutations = self.repo.mutations
        if self._swept_at == mutations:
            return
        self._swept_at = mutations
        stored = self.repo.blobs.contains
        for key in [k for k in self._base_records if not stored(k)]:
            del self._base_records[key]

    def _base_record(self, key: int) -> _BaseRecord:
        """The record of the stored base ``key``, rebuilt when the
        repository holds another object under the key.

        Raises:
            NotInRepositoryError: the base is not stored.
        """
        base = self.repo.get_base_image(key)
        with self._mutex:
            record = self._base_records.get(key)
            if record is None or record.base is not base:
                record = self._base_records[key] = _BaseRecord(
                    base=base,
                    names=base.package_names(),
                    by_name={p.name: p for p in base.packages},
                    first_boot=VirtualMachineImage("", base),
                )
            return record

    def _still_valid(self, entry: _CacheEntry) -> bool:
        """Are the inputs the entry's plan was derived from intact?

        A revalidated entry is stamped with the master's current
        revision, so the next lookup takes the integer path again.
        """
        plan = entry.plan
        if not self.repo.blobs.contains(plan.base_key):
            return False
        master = self.repo.find_master_graph(plan.base_key)
        if master is None:
            return False
        if master.revision != entry.revision:
            if not plan.closure_unchanged(master):
                return False
            entry.revision = master.revision
        return True

    def _derive(
        self, request: RetrievalRequest
    ) -> tuple[AssemblyPlan, int]:
        """Resolve a request from the master graph (Alg. 3 lines 1-2,
        6-7); returns the plan and the master revision it was read at."""
        self.stats.plans_derived += 1
        master = self.repo.get_master_graph(request.base_key)
        population = master.package_population()
        graph = master.package_graph
        # GI[PS] as an ordered key set: the closures concatenated
        # first-seen, the vertex order a union of the per-primary
        # subgraphs would have, without building any graph
        closure_keys: dict[str, None] = {}
        for pname in request.primary_names:
            if pname not in population:
                raise RetrievalError(
                    f"package {pname!r} is not available for base "
                    f"{master.attrs}"
                )
            root = master.primary_root(pname, request.version_of(pname))
            closure_keys.update(graph.dependency_closure([root]))
            self.stats.subgraph_extractions += 1
        packages = graph.packages_at(closure_keys)
        base = self._base_record(request.base_key)
        if request.primary_names:
            self.stats.compat_checks += 1
            if packages_compatibility(base.by_name, packages) != 1.0:
                raise IncompatibleImageError(
                    f"requested packages {request.primary_names} are not "
                    f"compatible with base {master.attrs}"
                )
        primary_set = set(request.primary_names)
        installs = tuple(
            InstallStep(
                blob_key=pkg.blob_key(),
                name=pkg.name,
                role=(
                    PackageRole.PRIMARY
                    if pkg.name in primary_set
                    else PackageRole.DEPENDENCY
                ),
            )
            for pkg in packages
            if pkg.name not in base.names
        )
        closure = tuple(closure_keys)
        plan = AssemblyPlan(
            base_key=request.base_key,
            base_bytes=self.repo.base_image_size(request.base_key),
            installs=installs,
            lineage=master.lineage,
            closure=closure,
            out_degree=graph.out_degree_sum(closure),
            name_counts=tuple(
                (pname, len(population[pname]))
                for pname in request.primary_names
            ),
        )
        return plan, master.revision

    # ------------------------------------------------------------------
    # plan execution
    # ------------------------------------------------------------------

    def assemble(
        self, request: RetrievalRequest, *, cold_base: bool = False
    ) -> PlannedRetrieval:
        """Resolve and execute a retrieval through the plan cache.

        ``cold_base=True`` charges the base copy as a full repository
        read and leaves the warm-base cache untouched — the per-request
        cost of Figure 5a.

        Raises:
            NotInRepositoryError: the base, a planned package or the
                user data is not stored.
            RetrievalError: a requested primary is not available for
                the base.
            IncompatibleImageError: ``comp(GI[BI], GI[PS]) != 1``.
        """
        with self._mutex:
            self.stats.requests += 1
        entry, plan_hit = self._entry_for(request)
        with self.clock.measure() as breakdown:
            vmi, warm = self._execute(request, entry, cold_base)
        return PlannedRetrieval(
            report=RetrievalReport(
                vmi=vmi,
                imported_packages=entry.plan.imported_names(),
                breakdown=breakdown,
            ),
            plan_hit=plan_hit,
            warm_base=warm,
        )

    def _execute(
        self, request: RetrievalRequest, entry: _CacheEntry, cold_base: bool
    ) -> tuple[VirtualMachineImage, bool]:
        """Algorithm 3 lines 3-13, replayed from the plan.

        Every part is looked up and every component charged on every
        call.  While the entry's template for the data label was built
        from the very parts the lookups return, the image is its clone
        and its recorded charges are applied at once; otherwise the
        image is built step by step and becomes the template.
        """
        with self._mutex:
            template = entry.assembled.get(request.data_label)
        if template is not None and self._holds(request, entry, template):
            warm = self._charge_base_copy(entry.plan, cold_base)
            self.clock.advance_all(template.charges)
            return template.vmi.clone(request.name), warm
        return self._build(request, entry, cold_base)

    def _holds(
        self, request: RetrievalRequest, entry: _CacheEntry, template: _Template
    ) -> bool:
        """Do the lookups of a build, in its order (base, user data,
        each step's package), all return the template's parts?"""
        repo = self.repo
        try:
            if repo.get_base_image(entry.plan.base_key) is not (
                template.vmi.base
            ):
                return False
            if request.data_label is not None and (
                repo.get_user_data(request.data_label)
                is not template.vmi.user_data
            ):
                return False
            for step, pkg in zip(entry.plan.installs, template.packages):
                if repo.get_package(step.blob_key) is not pkg:
                    return False
        except NotInRepositoryError:
            return False
        return True

    def _build(
        self, request: RetrievalRequest, entry: _CacheEntry, cold_base: bool
    ) -> tuple[VirtualMachineImage, bool]:
        """Build the image step by step, charging each component as its
        part is looked up, and keep it as the entry's template."""
        plan = entry.plan
        base = self._base_record(plan.base_key)
        warm = self._charge_base_copy(plan, cold_base)
        charges: list[tuple[float, str]] = []

        def charge(seconds: float, label: str) -> None:
            self.clock.advance(seconds, label)
            charges.append((seconds, label))

        charge(self.cost.guestfs_launch(), "handle")
        charge(self.cost.vmi_reset(), "reset")
        vmi = base.first_boot.clone(request.name)
        if request.data_label is not None:
            data = self.repo.get_user_data(request.data_label)
            charge(self.cost.read_bytes(data.size), "import")
            vmi.attach_user_data(data)
        packages: list[Package] = []
        for step in plan.installs:
            stored = self.repo.get_package(step.blob_key)
            vmi.install_package(
                stored, step.role, auto=step.role is PackageRole.DEPENDENCY
            )
            charge(self.cost.import_package(stored), "import")
            packages.append(stored)
        self._remember(
            request,
            entry,
            _Template(vmi.clone(vmi.name), tuple(packages), tuple(charges)),
        )
        return vmi, warm

    def _remember(
        self,
        request: RetrievalRequest,
        entry: _CacheEntry,
        template: _Template,
    ) -> None:
        """Keep a freshly built template (over a private copy of the
        image) for the entry's data label — unless the entry left the
        cache meanwhile."""
        with self._mutex:
            if self._plans.get(request.plan_key()) is not entry:
                return
            if request.data_label not in entry.assembled:
                self._n_assembled += 1
            entry.assembled[request.data_label] = template
            self._trim_assembled()

    def _charge_base_copy(self, plan: AssemblyPlan, cold: bool) -> bool:
        """Charge the base-copy component; True when served warm.

        The first copy of a base reads the full qcow2 from the
        repository; while the blob stays stored, later copies clone the
        warm local image instead.  A vanished blob (GC, replacement)
        silently demotes back to a cold read of the re-stored content.
        ``cold`` always reads, without warming the cache.
        """
        key = plan.base_key
        with self._mutex:
            if not cold and key in self._warm_bases:
                if self.repo.blobs.contains(key):
                    self.stats.base_cache_hits += 1
                    self.clock.advance(
                        self.cost.base_cache_clone(plan.base_bytes),
                        "base-copy",
                    )
                    return True
                self._warm_bases.discard(key)
            self.stats.base_copies += 1
            self.clock.advance(
                self.cost.read_bytes(plan.base_bytes), "base-copy"
            )
            if not cold:
                self._warm_bases.add(key)
            return False
