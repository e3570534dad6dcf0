"""Sharded repository federation (DESIGN.md §14).

One :class:`~repro.core.system.Expelliarmus` scales to one
``RepositoryLock``; the federation scales the paper's scheme to N
*shard* repositories behind one router while keeping the stored
outcome byte-identical to a single repository:

* **Family-affine routing.**  Algorithm 2's visibility domain is
  exactly the ``(os_type, distro)`` family — candidate bases come from
  :meth:`~repro.repository.repo.Repository.base_images_matching`, which
  never crosses families.  The router therefore consistent-hashes whole
  families onto shards (rendezvous hashing over
  :func:`~repro.ids.content_id`), the same never-split-a-family
  affinity contract :func:`~repro.service.parallel.plan_shards` gives
  the ``parallelism=N`` shards.  Because every one of a family's
  publishes lands on the one shard holding that family's bases,
  per-shard Algorithm 2 sees exactly the candidate set a single
  repository would — so base evolution, dedup decisions and retrieval
  manifests match the single-repository run, and the union of the
  shards' content-addressed blobs equals the single repository's blob
  set (the differential property suite pins this down).
* **Global base-image index.**  :attr:`FederatedRepository.base_index`
  maps every stored family to the shard holding its bases.  Publishes
  consult it *before* per-shard selection: a base stored on any shard
  steers the whole family's future publishes to that shard, so
  cross-shard dedup never regresses storage.  The index is rebuilt from
  the shards themselves (never trusted blindly); federation fsck flags
  drift between index and shards.
* **Rebalance.**  Moving a family between shards is a journaled,
  idempotent copy-then-delete: an intent file makes the operation
  crash-recoverable (reopen re-runs the move), and every sub-operation
  rides the shard workspaces' §11 write-ahead op-logs, so a crash at
  any point leaves each shard individually consistent and the re-run
  converges.
* **Maintenance.**  GC runs shard-local (incremental by default);
  federation fsck runs every per-shard check plus the cross-shard
  invariants (no split families, no duplicate names, no index drift,
  no tenant quota drift).

The facade mirrors the :class:`Expelliarmus` surface (publish /
retrieve / delete, the ``*_many`` batch pipelines, GC, fsck, save /
close), so the CLI and the image server front a federation unchanged.
All shard systems share one :class:`~repro.sim.clock.SimulatedClock`;
the ``*_many`` pipelines route items onto the batch executor
(:mod:`repro.service.executor`), so critical-path speedup vs shard
count is read off the same per-shard accounting as ``parallelism=N``
batches: the shards run one after another, their overlap modelled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from repro.analysis.mining import MiningReport
from repro.core.system import Expelliarmus
from repro.errors import (
    AlreadyPublishedError,
    NotInRepositoryError,
    WorkspaceError,
)
from repro.ids import content_id
from repro.model.vmi import VirtualMachineImage
from repro.repository.blobstore import BlobKind, BlobRecord
from repro.repository.fsck import FsckReport, Inconsistency
from repro.repository.gc import GCReport
from repro.repository.locking import RepositoryLock
from repro.repository.master_graphs import master_from_state, master_state
from repro.service.batch import BatchPublishReport, publish_batch
from repro.service.executor import (
    Progress,
    check_options,
    route,
)
from repro.service.maintenance import DeleteItemResult, MaintenanceReport
from repro.service.rebase import RebaseReport
from repro.service.retrieval import (
    BatchRetrieveReport,
    resolve_request,
    retrieve_batch,
)
from repro.service.tenancy import validate_stored_name
from repro.sim.clock import SimulatedClock

__all__ = [
    "FederatedRepository",
    "RebalanceReport",
    "family_of",
    "route_family",
]

#: persisted federation manifest (shard count + routing overrides)
MANIFEST_NAME = "federation.json"
#: rebalance intent journal — present only while a move is in flight
INTENT_NAME = "rebalance.json"

Family = tuple[str, str]


def family_of(attrs) -> Family:
    """The ``(os_type, distro)`` family of a base-attribute quadruple.

    Exactly the partition :meth:`~repro.repository.repo.Repository.
    base_images_matching` serves from its index — Algorithm 2 never
    considers a candidate outside it, which is what makes family-affine
    sharding invisible to base selection.
    """
    return (attrs.os_type, attrs.distro)


def route_family(family: Family, n_shards: int) -> int:
    """Rendezvous-hash a family onto one of ``n_shards`` shards.

    Highest-random-weight over :func:`~repro.ids.content_id`: growing
    the federation moves only the families whose winner changes, and
    the choice is deterministic across processes and runs (no
    ``PYTHONHASHSEED`` dependence).
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    os_type, distro = family
    return max(
        range(n_shards),
        key=lambda s: (
            content_id(f"federation/{os_type}/{distro}/shard-{s}"),
            -s,
        ),
    )


@dataclass(frozen=True)
class RebalanceReport:
    """What one rebalance moved between shards."""

    family: Family
    #: shard the family lived on (None when nothing was stored yet)
    source: int | None
    target: int
    moved_vmis: int
    moved_bases: int
    #: bytes the target shard grew by (blob copies)
    moved_bytes: int


class _UnionBlobs:
    """Read-only union of the shards' blob stores, deduped by key.

    Blobs are content-addressed, so the same key on two shards is the
    same bytes — the union is the single-repository blob set, and its
    sizes are the *logical* (dedup-accounted) storage the experiments
    plot.
    """

    def __init__(self, fed: "FederatedRepository") -> None:
        self._fed = fed

    def records(self, kind: BlobKind | None = None) -> list[BlobRecord]:
        seen: dict[int, BlobRecord] = {}
        for system in self._fed.systems:
            for record in system.repo.blobs.records(kind):
                seen.setdefault(record.key, record)
        return list(seen.values())

    def total_bytes(self, kind: BlobKind | None = None) -> int:
        return sum(r.size for r in self.records(kind))

    def contains(self, key: int) -> bool:
        return any(
            system.repo.blobs.contains(key)
            for system in self._fed.systems
        )

    def get(self, key: int) -> BlobRecord:
        for system in self._fed.systems:
            if system.repo.blobs.contains(key):
                return system.repo.blobs.get(key)
        raise NotInRepositoryError("blob", key)


class _FederationWorkspace:
    """Durable-state view the server's checkpoint policy reads.

    Mirrors the :class:`~repro.repository.workspace.Workspace`
    attributes operator tooling consumes; counters aggregate over the
    shard workspaces.
    """

    def __init__(self, fed: "FederatedRepository") -> None:
        self._fed = fed
        self.path = fed.root

    @property
    def ops_since_checkpoint(self) -> int:
        return sum(
            system.workspace.ops_since_checkpoint
            for system in self._fed.systems
            if system.workspace is not None
        )

    @property
    def checkpoints_written(self) -> int:
        return sum(
            system.workspace.checkpoints_written
            for system in self._fed.systems
            if system.workspace is not None
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FederationWorkspace path={self.path} "
            f"shards={self._fed.n_shards}>"
        )


class FederatedRepository:
    """N shard repositories behind one family-affine router.

    In-memory by default; :meth:`open` (or ``Expelliarmus.open(path,
    federation=N)``) roots every shard in its own durable workspace
    under one federation directory.  The facade surface matches
    :class:`~repro.core.system.Expelliarmus`, so callers scale out by
    swapping the constructor.

    >>> from repro.workloads import standard_corpus
    >>> corpus = standard_corpus()
    >>> fed = FederatedRepository(shards=2)
    >>> _ = fed.publish(corpus.build("Mini"))
    >>> fed.retrieve("Mini").vmi.name
    'Mini'
    """

    def __init__(
        self,
        *,
        shards: int | None = None,
        root=None,
        clock: SimulatedClock | None = None,
        **system_kwargs,
    ) -> None:
        """``system_kwargs`` (``params``, ``dedup_packages``,
        ``indexed_selection``) configure every shard system
        identically; all shards share one simulated clock so charges
        land in a single accounting domain.

        Raises:
            ValueError: non-positive ``shards``.
            WorkspaceError: ``root`` holds a federation whose persisted
                shard count contradicts ``shards``.
        """
        self.clock = clock if clock is not None else SimulatedClock()
        self.root = Path(root) if root is not None else None
        self._overrides: dict[Family, int] = {}
        persisted: int | None = None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            persisted = self._read_manifest()
        if persisted is not None:
            if shards is not None and shards != persisted:
                raise WorkspaceError(
                    f"federation root {self.root} holds {persisted} "
                    f"shard(s); cannot reopen with shards={shards}"
                )
            shards = persisted
        if shards is None:
            shards = 2
        if shards < 1:
            raise ValueError(f"shards must be positive, got {shards}")
        self.n_shards = shards
        #: federation-level lock the service layer takes around
        #: facade operations; shard locks nest strictly underneath
        self.lock = RepositoryLock()
        self._names: dict[str, int] = {}
        self._family_home: dict[Family, int] = {}
        if self.root is None:
            self.systems = [
                Expelliarmus(clock=self.clock, **system_kwargs)
                for _ in range(shards)
            ]
        else:
            self.systems = [
                Expelliarmus.open(
                    self.shard_path(i), clock=self.clock, **system_kwargs
                )
                for i in range(shards)
            ]
            self._write_manifest()
            self._recover_rebalance()
        self.cost = self.systems[0].cost
        self._rebuild_routing()

    @classmethod
    def open(cls, path, *, shards: int | None = None, **system_kwargs):
        """Open (or initialise) a durable federation root at ``path``.

        Each shard lives in ``path/shard-NN`` as an ordinary §11
        workspace (snapshot + write-ahead op-log); the root's
        ``federation.json`` pins the shard count and routing overrides.
        A reopen recovers any in-flight rebalance before serving.

        Raises:
            WorkspaceError: persisted shard count contradicts
                ``shards``, or a shard workspace is corrupt/locked.
        """
        return cls(root=path, shards=shards, **system_kwargs)

    def shard_path(self, index: int) -> Path:
        if self.root is None:
            raise WorkspaceError("in-memory federation has no root")
        return self.root / f"shard-{index:02d}"

    # ------------------------------------------------------------------
    # routing (the global base-image index)
    # ------------------------------------------------------------------

    @property
    def base_index(self) -> dict[Family, int]:
        """The global base-image index: stored family → home shard.

        Consulted before per-shard Algorithm-2 selection — a base
        stored on *any* shard steers its whole family's publishes
        there, which is what keeps cross-shard dedup lossless.
        """
        return dict(self._family_home)

    def shard_for_family(self, family: Family) -> int:
        """Where a family's publishes go: stored home, then rebalance
        override, then rendezvous hash."""
        home = self._family_home.get(family)
        if home is not None:
            return home
        override = self._overrides.get(family)
        if override is not None and 0 <= override < self.n_shards:
            return override
        return route_family(family, self.n_shards)

    def shard_of(self, name: str) -> int:
        """The shard holding a published VMI.

        Raises:
            NotInRepositoryError: unpublished name.
        """
        shard = self._names.get(name)
        if shard is None:
            raise NotInRepositoryError("VMI", name)
        return shard

    def _rebuild_routing(self) -> None:
        """Re-derive the name and base indexes from the shards.

        The shards are the source of truth — the router never trusts
        its own maps across GC, rebalance, reopen or a raised batch.
        On conflicting placements (a split family / duplicate name,
        which fsck flags) the lowest shard index wins deterministically.
        """
        self._family_home = {}
        self._names = {}
        for index, system in enumerate(self.systems):
            repo = system.repo
            for base in repo.base_images():
                self._family_home.setdefault(family_of(base.attrs), index)
            for record in repo.vmi_records():
                self._names.setdefault(record.name, index)

    # ------------------------------------------------------------------
    # manifest + rebalance journal persistence
    # ------------------------------------------------------------------

    def _read_manifest(self) -> int | None:
        path = self.root / MANIFEST_NAME
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
            shards = int(data["shards"])
        except (ValueError, KeyError, TypeError) as exc:
            raise WorkspaceError(
                f"unreadable federation manifest {path}: {exc}"
            ) from exc
        self._overrides = {
            tuple(key.split("/", 1)): int(shard)
            for key, shard in data.get("overrides", {}).items()
        }
        return shards

    def _write_manifest(self) -> None:
        if self.root is None:
            return
        payload = {
            "version": 1,
            "shards": self.n_shards,
            "overrides": {
                f"{fam[0]}/{fam[1]}": shard
                for fam, shard in sorted(self._overrides.items())
            },
        }
        path = self.root / MANIFEST_NAME
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
        tmp.replace(path)

    def _recover_rebalance(self) -> None:
        """Finish a rebalance a crash interrupted (reopen path).

        The intent file names the move; re-running the idempotent
        copy-then-delete converges from any intermediate state the
        shard op-logs replayed to.
        """
        intent = self.root / INTENT_NAME
        if not intent.exists():
            return
        try:
            data = json.loads(intent.read_text())
            family = tuple(data["family"].split("/", 1))
            target = int(data["target"])
        except (ValueError, KeyError, TypeError) as exc:
            raise WorkspaceError(
                f"unreadable rebalance intent {intent}: {exc}"
            ) from exc
        self._move_family(family, target)
        self._overrides[family] = target
        self._write_manifest()
        intent.unlink()

    # ------------------------------------------------------------------
    # publish / retrieve / delete (the Figure 2 operations)
    # ------------------------------------------------------------------

    def publish(self, vmi: VirtualMachineImage):
        """Route one publish to its family's shard (Algorithm 1).

        The stored name is validated against the service-layer
        namespace grammar first, so a federation can never hold a name
        the daemon would misattribute to the wrong tenant.

        Raises:
            ProtocolError: separator-ambiguous or empty name.
            AlreadyPublishedError: name already published (on any
                shard).
        """
        validate_stored_name(vmi.name)
        with self.lock.write():
            return self._publish_routed(vmi)

    def _publish_routed(self, vmi: VirtualMachineImage):
        if vmi.name in self._names:
            raise AlreadyPublishedError(vmi.name)
        family = family_of(vmi.base.attrs)
        shard = self.shard_for_family(family)
        report = self.systems[shard].publish(vmi)
        self._names[vmi.name] = shard
        self._family_home.setdefault(family, shard)
        return report

    def retrieve(self, name: str):
        """Route one retrieval to the shard holding the VMI.

        Raises:
            NotInRepositoryError: unpublished name.
        """
        with self.lock.read():
            return self.systems[self.shard_of(name)].retrieve(name)

    def delete(self, name: str) -> None:
        """Unpublish a VMI on its shard (blobs stay until that shard's
        GC).

        Raises:
            NotInRepositoryError: unpublished name.
        """
        with self.lock.write():
            shard = self.shard_of(name)
            self.systems[shard].delete(name)
            del self._names[name]

    # ------------------------------------------------------------------
    # batch pipelines (one modelled worker per shard)
    # ------------------------------------------------------------------

    def publish_many(
        self,
        vmis: Sequence[VirtualMachineImage],
        *,
        order: str = "dedup",
        progress=None,
        on_error: str = "continue",
        parallelism: int | None = None,
    ) -> BatchPublishReport:
        """Batch-publish across the shards on the batch executor.

        Same contract as :meth:`Expelliarmus.publish_many`; the
        federation's parallelism *is* its shard count, so
        ``parallelism`` is accepted for signature compatibility and
        ignored.  Routing replaces :func:`plan_shards`: items go to
        their family's home shard, which keeps dedup-relevant order
        within each family exactly as the single-repository pipeline
        would (stable sort, same keys).
        """
        batch_shard: dict[str, int] = {}

        def place(vmi: VirtualMachineImage):
            validate_stored_name(vmi.name)
            family = family_of(vmi.base.attrs)
            shard = self.shard_for_family(family)
            # a same-shard duplicate fails inside the shard's run; a
            # cross-shard one must fail here or both copies would land
            if vmi.name in self._names or (
                batch_shard.setdefault(vmi.name, shard) != shard
            ):
                raise AlreadyPublishedError(vmi.name)
            # steer the rest of this batch's family members here
            self._family_home.setdefault(family, shard)
            return shard, vmi

        with self.lock.write():
            try:
                report = publish_batch(
                    [system.publisher for system in self.systems], vmis,
                    order=order, progress=progress, on_error=on_error,
                    place=place, total_bytes=self.total_bytes,
                )
            except BaseException:
                self._rebuild_routing()  # the items stored before it
                raise
            for item in report.results:
                if item.ok:
                    self._names[item.name] = batch_shard[item.name]
            return report

    def retrieve_many(
        self,
        requests,
        *,
        order: str = "affine",
        progress=None,
        on_error: str = "continue",
        parallelism: int | None = None,
    ) -> BatchRetrieveReport:
        """Batch-retrieve across the shards on the batch executor.

        Same contract as :meth:`Expelliarmus.retrieve_many`
        (``parallelism`` accepted and ignored — the shard count is the
        parallelism); names resolve through the router, request
        objects route by their recorded name.
        """

        def place(item):
            shard = self.shard_of(item if isinstance(item, str) else item.name)
            return shard, resolve_request(self.systems[shard].repo, item)

        with self.lock.read():
            return retrieve_batch(
                [system.planner for system in self.systems], requests,
                order=order, progress=progress, on_error=on_error,
                place=place,
            )

    def delete_many(
        self,
        names,
        *,
        progress=None,
        on_error: str = "continue",
        gc_threshold_bytes: int | None = None,
        checkpoint_every_ops: int | None = None,
    ) -> MaintenanceReport:
        """Batch-delete across the shards, one shard after another.

        Same contract as :meth:`Expelliarmus.delete_many`; GC
        thresholds and checkpoint policies apply per shard (each shard
        sweeps and snapshots its own garbage).
        """
        check_options(on_error)
        names = list(names)
        tracker = Progress(progress, len(names))

        def run_shard(index: int, items: list):
            def in_batch(item):  # shard-local -> caller position
                return replace(item, position=items[item.position][0])

            report = self.systems[index].delete_many(
                [name for _, name in items],
                progress=lambda done, total, item: tracker.step(
                    in_batch(item)
                ),
                on_error=on_error,
                gc_threshold_bytes=gc_threshold_bytes,
                checkpoint_every_ops=checkpoint_every_ops,
            )
            return [in_batch(r) for r in report.results], report

        with self.lock.write():
            bytes_before = self.total_bytes()
            shards, failed = route(
                enumerate(names),
                lambda name: (self.shard_of(name), name),
                lambda pos, name, error: DeleteItemResult(pos, name, error),
                self.n_shards, on_error=on_error, progress=tracker,
            )
            try:
                outcomes = [
                    run_shard(index, items)
                    for index, items in enumerate(shards) if items
                ]
            except BaseException:
                self._rebuild_routing()  # the items deleted before it
                raise
            results = sorted(
                [*failed, *(r for ran, _ in outcomes for r in ran)],
                key=lambda item: item.position,
            )
            for item in results:
                if item.ok:
                    self._names.pop(item.name, None)
            reports = [r for _, r in outcomes]
            return MaintenanceReport(
                results=tuple(results),
                gc_reports=tuple(gc for r in reports for gc in r.gc_reports),
                repo_bytes_before=bytes_before,
                repo_bytes_after=self.total_bytes(),
                reclaimable_after=self.reclaimable_bytes(),
                simulated_seconds=sum(r.simulated_seconds for r in reports),
                checkpoints=sum(r.checkpoints for r in reports),
            )

    # ------------------------------------------------------------------
    # maintenance: GC, fsck, rebalance
    # ------------------------------------------------------------------

    def garbage_collect(self, *, full: bool = False) -> GCReport:
        """Run (incremental by default) GC on every shard; merged
        report."""
        with self.lock.write():
            reports = [
                system.garbage_collect(full=full)
                for system in self.systems
            ]
            self._rebuild_routing()
            return GCReport(
                removed_packages=sum(r.removed_packages for r in reports),
                removed_user_data=sum(
                    r.removed_user_data for r in reports
                ),
                removed_bases=sum(r.removed_bases for r in reports),
                reclaimed_bytes=sum(r.reclaimed_bytes for r in reports),
                mode="full" if full else "incremental",
                records_scanned=sum(r.records_scanned for r in reports),
                graph_rebuilds=sum(r.graph_rebuilds for r in reports),
                gc_seconds=sum(r.gc_seconds for r in reports),
            )

    def mine_bases(self) -> MiningReport:
        """Mine every shard's base population; merged report.

        Families never span shards (federation fsck flags a split as
        ``federation-split-family``), so shard-local mining sees every
        mergeable pool a single repository would.  Candidates come
        back globally re-ranked by estimated bytes saved.
        """
        with self.lock.read():
            reports = [system.mine_bases() for system in self.systems]
            candidates = [
                c for report in reports for c in report.candidates
            ]
            candidates.sort(key=lambda c: -c.est_saved_bytes)
            return MiningReport(
                candidates=tuple(candidates),
                groups_examined=sum(
                    r.groups_examined for r in reports
                ),
                bases_examined=sum(r.bases_examined for r in reports),
                mining_seconds=sum(r.mining_seconds for r in reports),
            )

    def rebase(self, mining: MiningReport | None = None) -> RebaseReport:
        """Run the journaled re-base on every shard; merged report.

        Each shard recovers and applies its own ``rebase.json`` intent
        (kept in the shard workspace, like its op-log), so a crash
        mid-federation-rebase leaves each shard individually
        recoverable.  A candidate from a federated ``mining`` report is
        applied by the one shard holding its donor bases — the others
        resolve it as stale and skip it.
        """
        with self.lock.write():
            reports = [
                system.rebase(mining) for system in self.systems
            ]
            self._rebuild_routing()
            return RebaseReport(
                candidates_applied=sum(
                    r.candidates_applied for r in reports
                ),
                bases_published=sum(
                    r.bases_published for r in reports
                ),
                bases_removed=sum(r.bases_removed for r in reports),
                migrated_vmis=sum(r.migrated_vmis for r in reports),
                migrated_names=tuple(
                    name
                    for report in reports
                    for name in report.migrated_names
                ),
                bytes_before=sum(r.bytes_before for r in reports),
                bytes_after=sum(r.bytes_after for r in reports),
                reclaimable_after=sum(
                    r.reclaimable_after for r in reports
                ),
                recovered=any(r.recovered for r in reports),
                rebase_seconds=sum(r.rebase_seconds for r in reports),
            )

    def fsck(self, *, registry=None) -> FsckReport:
        """Every per-shard check plus the cross-shard invariants.

        Per-shard findings come back subject-prefixed with their shard
        (``shard-00:…``); the federation adds ``federation-split-family``
        (a family's bases on more than one shard — Algorithm 2 would
        see a partial candidate set), ``federation-name-collision``
        (one name published on two shards) and
        ``federation-index-drift`` (router maps diverge from the
        shards).  With a ``registry``
        (:class:`~repro.service.tenancy.TenantRegistry`), quota drift
        the refund clamp recorded is flagged as ``quota-drift``.
        """
        with self.lock.read():
            findings: list[Inconsistency] = []
            checked_blobs = 0
            checked_vmis = 0
            for index, system in enumerate(self.systems):
                report = system.fsck()
                checked_blobs += report.checked_blobs
                checked_vmis += report.checked_vmis
                findings.extend(
                    Inconsistency(
                        f.kind, f"shard-{index:02d}:{f.subject}", f.detail
                    )
                    for f in report.findings
                )
            findings.extend(self._cross_shard_findings())
            if registry is not None:
                drift_bytes, drift_events = registry.total_drift()
                if drift_events:
                    findings.append(
                        Inconsistency(
                            "quota-drift",
                            "tenant-registry",
                            f"{drift_events} refund event(s) clamped, "
                            f"{drift_bytes} byte(s) unaccounted",
                        )
                    )
            return FsckReport(
                findings=tuple(findings),
                checked_blobs=checked_blobs,
                checked_vmis=checked_vmis,
            )

    def _cross_shard_findings(self) -> list[Inconsistency]:
        family_shards: dict[Family, set[int]] = {}
        name_shards: dict[str, set[int]] = {}
        for index, system in enumerate(self.systems):
            repo = system.repo
            for base in repo.base_images():
                family_shards.setdefault(
                    family_of(base.attrs), set()
                ).add(index)
            for record in repo.vmi_records():
                name_shards.setdefault(record.name, set()).add(index)
        findings = []
        for family, shards in sorted(family_shards.items()):
            if len(shards) > 1:
                findings.append(
                    Inconsistency(
                        "federation-split-family",
                        "/".join(family),
                        f"bases stored on shards {sorted(shards)} — "
                        "base selection sees a partial candidate set",
                    )
                )
        for name, shards in sorted(name_shards.items()):
            if len(shards) > 1:
                findings.append(
                    Inconsistency(
                        "federation-name-collision",
                        name,
                        f"published on shards {sorted(shards)}",
                    )
                )
            routed = self._names.get(name)
            if routed not in shards:
                findings.append(
                    Inconsistency(
                        "federation-index-drift",
                        name,
                        f"router maps to shard {routed}, "
                        f"stored on {sorted(shards)}",
                    )
                )
        for name, routed in sorted(self._names.items()):
            if name not in name_shards:
                findings.append(
                    Inconsistency(
                        "federation-index-drift",
                        name,
                        f"router maps to shard {routed}, "
                        "but no shard stores it",
                    )
                )
        return findings

    def rebalance(self, family, target: int) -> RebalanceReport:
        """Move one family (bases, masters, records, blobs) to
        ``target``.

        Journaled and idempotent: on a durable federation an intent
        file is written first, every sub-operation rides the shard
        op-logs, and a crash at any point is recovered on reopen by
        re-running the same copy-then-delete (already-copied objects
        are skipped, already-deleted ones are gone).  The family's
        routing override persists, so future publishes follow the
        move.

        ``family`` is ``(os_type, distro)`` or the ``"os/distro"``
        spelling.

        Raises:
            ValueError: target shard out of range.
        """
        family = self._normalise_family(family)
        if not 0 <= target < self.n_shards:
            raise ValueError(
                f"target shard {target} out of range "
                f"(federation has {self.n_shards})"
            )
        with self.lock.write():
            source = self._family_home.get(family)
            if self.root is not None:
                intent = self.root / INTENT_NAME
                tmp = intent.with_suffix(".tmp")
                tmp.write_text(
                    json.dumps(
                        {
                            "family": "/".join(family),
                            "target": target,
                        }
                    )
                )
                tmp.replace(intent)
            moved_vmis, moved_bases, moved_bytes = self._move_family(
                family, target
            )
            self._overrides[family] = target
            self._write_manifest()
            if self.root is not None:
                (self.root / INTENT_NAME).unlink(missing_ok=True)
            self._rebuild_routing()
            return RebalanceReport(
                family=family,
                source=source if source != target else source,
                target=target,
                moved_vmis=moved_vmis,
                moved_bases=moved_bases,
                moved_bytes=moved_bytes,
            )

    def _normalise_family(self, family) -> Family:
        if isinstance(family, str):
            os_type, sep, distro = family.partition("/")
            if not sep or not os_type or not distro:
                raise ValueError(
                    f"family must be 'os_type/distro', got {family!r}"
                )
            return (os_type, distro)
        os_type, distro = family
        return (str(os_type), str(distro))

    def _move_family(
        self, family: Family, target: int
    ) -> tuple[int, int, int]:
        """Idempotent copy-then-delete of one family onto ``target``.

        Copies every base, master graph, record and referenced blob to
        the target (skipping anything already there — content
        addressing makes the copy a no-op on re-run), then deletes the
        records from the source and sweeps the stranded blobs with a
        shard-local incremental GC.  Safe to re-run from any
        intermediate state, which is what makes the intent journal
        sufficient for crash recovery.
        """
        destination = self.systems[target].repo
        bytes_before = destination.total_bytes()
        moved_vmis = 0
        moved_bases = 0
        for index, system in enumerate(self.systems):
            if index == target:
                continue
            source = system.repo
            bases = [
                base
                for base in source.base_images()
                if family_of(base.attrs) == family
            ]
            if not bases:
                continue
            for base in bases:
                key = base.blob_key()
                if destination.store_base_image(base):
                    moved_bases += 1
                if source.has_master_graph(key) and (
                    not destination.has_master_graph(key)
                ):
                    state = master_state(source.get_master_graph(key))
                    destination.put_master_graph(
                        master_from_state(
                            destination.get_base_image(key), state
                        )
                    )
                for record in list(source.vmi_records_for_base(key)):
                    contribution = source.vmi_contribution(record.name)
                    for package_key in contribution:
                        destination.store_package(
                            source.get_package(package_key)
                        )
                    if record.data_label is not None:
                        destination.store_user_data(
                            source.get_user_data(record.data_label)
                        )
                    try:
                        destination.get_vmi_record(record.name)
                    except NotInRepositoryError:
                        destination.record_vmi(record, contribution)
                    source.delete_vmi_record(record.name)
                    moved_vmis += 1
            system.garbage_collect()
        return (
            moved_vmis,
            moved_bases,
            destination.total_bytes() - bytes_before,
        )

    # ------------------------------------------------------------------
    # durability (the §11 surface, aggregated)
    # ------------------------------------------------------------------

    @property
    def workspace(self):
        """Aggregated workspace view (None for an in-memory
        federation)."""
        if self.root is None:
            return None
        return _FederationWorkspace(self)

    def save(self, path=None) -> int:
        """Checkpoint every shard workspace; returns summed snapshot
        bytes.

        Raises:
            WorkspaceError: in-memory federation, or ``path`` given
                (a federation's root is fixed at open time).
        """
        if path is not None:
            raise WorkspaceError(
                "a federation cannot adopt a new root — "
                "open it with FederatedRepository.open(path)"
            )
        if self.root is None:
            raise WorkspaceError(
                "in-memory federation has no workspace to save"
            )
        return sum(system.save() for system in self.systems)

    def checkpoint_if_due(self, every_ops: int | None) -> bool:
        """Apply the op-count checkpoint policy to every shard."""
        checkpointed = [
            system.checkpoint_if_due(every_ops)
            for system in self.systems
        ]
        return any(checkpointed)

    def close(self) -> None:
        """Detach every shard from its workspace (state kept)."""
        for system in self.systems:
            system.close()

    # ------------------------------------------------------------------
    # repository view (union over shards)
    # ------------------------------------------------------------------

    @property
    def repo(self):
        """The federation doubles as the repository view the service
        layer reads (lock, records, accounting) — methods below."""
        return self

    @property
    def blobs(self) -> _UnionBlobs:
        return _UnionBlobs(self)

    def get_vmi_record(self, name: str):
        """Raises NotInRepositoryError for unpublished names."""
        return self.systems[self.shard_of(name)].repo.get_vmi_record(
            name
        )

    def vmi_records(self) -> list:
        return [
            record
            for system in self.systems
            for record in system.repo.vmi_records()
        ]

    def vmi_contribution(self, name: str) -> list[int]:
        return self.systems[self.shard_of(name)].repo.vmi_contribution(
            name
        )

    def base_images(self) -> list:
        seen: dict[int, object] = {}
        for system in self.systems:
            for base in system.repo.base_images():
                seen.setdefault(base.blob_key(), base)
        return list(seen.values())

    def total_bytes(self) -> int:
        """Logical (dedup-accounted union) bytes — the Figure 3
        metric; equals the single repository's size when the
        differential invariant holds."""
        return self.blobs.total_bytes()

    def bytes_by_kind(self) -> dict[str, int]:
        blobs = self.blobs
        return {kind.value: blobs.total_bytes(kind) for kind in BlobKind}

    def physical_bytes(self) -> int:
        """Summed shard disk usage (≥ :meth:`total_bytes` when
        cross-family packages repeat on several shards)."""
        return sum(
            system.repo.total_bytes() for system in self.systems
        )

    def shard_bytes(self) -> list[int]:
        return [system.repo.total_bytes() for system in self.systems]

    def refcounts(self) -> dict[str, dict]:
        """Per-key reference counts summed across shards — equals the
        single repository's maps under the differential invariant."""
        merged: dict[str, dict] = {"packages": {}, "data": {}, "bases": {}}
        for system in self.systems:
            for kind, counts in system.repo.refcounts().items():
                bucket = merged[kind]
                for key, count in counts.items():
                    bucket[key] = bucket.get(key, 0) + count
        return merged

    def reclaimable_bytes(self) -> int:
        return sum(
            system.repo.reclaimable_bytes() for system in self.systems
        )

    # ------------------------------------------------------------------
    # accounting facade (Expelliarmus surface)
    # ------------------------------------------------------------------

    @property
    def repository_size(self) -> int:
        return self.total_bytes()

    def repository_breakdown(self) -> dict[str, int]:
        return self.bytes_by_kind()

    def published_names(self) -> list[str]:
        return [record.name for record in self.vmi_records()]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FederatedRepository shards={self.n_shards} "
            f"vmis={len(self._names)} bytes={self.total_bytes()}>"
        )
