"""The Expelliarmus system facade (Figure 2).

Wires the semantic analyzer, decomposer (publisher) and assembler to
one repository, one simulated clock and one cost model, and exposes the
two user-facing operations of the paper's use case: *publish* an
uploaded VMI and *retrieve* a requested one.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.analyzer import SemanticAnalyzer
from repro.core.assembler import RetrievalReport, VMIAssembler
from repro.core.assembly_plan import AssemblyPlanner
from repro.core.publisher import PublishReport, VMIPublisher
from repro.model.vmi import VirtualMachineImage
from repro.repository.repo import Repository
from repro.sim.clock import SimulatedClock
from repro.sim.costmodel import CostModel, CostParams

__all__ = ["Expelliarmus"]


class Expelliarmus:
    """Semantics-aware VMI management system.

    >>> from repro.workloads import standard_corpus
    >>> corpus = standard_corpus()
    >>> system = Expelliarmus()
    >>> report = system.publish(corpus.build("Mini"))
    >>> round(report.similarity, 2)
    0.0
    >>> result = system.retrieve("Mini")
    >>> result.vmi.name
    'Mini'
    """

    def __init__(
        self,
        *,
        params: CostParams | None = None,
        dedup_packages: bool = True,
        indexed_selection: bool = True,
        repository: Repository | None = None,
        clock: SimulatedClock | None = None,
    ) -> None:
        """``repository=`` adopts an existing (e.g. reloaded)
        repository instead of building a fresh one — the publisher,
        assembler and planner are all bound to it, so publish, retrieve
        and GC work on the injected instance exactly as the persistence
        docstring promises.  ``clock=`` shares an external simulated
        clock — the federation router injects one clock across all its
        shard systems so per-shard charges land in a single accounting
        domain."""
        self.clock = clock if clock is not None else SimulatedClock()
        self.cost = CostModel(params)
        self.repo = (
            repository if repository is not None else Repository()
        )
        #: the durable workspace backing ``repo`` (set by :meth:`open`
        #: / :meth:`save`); None for a purely in-memory system
        self.workspace = None
        self.analyzer = SemanticAnalyzer(self.clock, self.cost)
        self.publisher = VMIPublisher(
            self.repo,
            self.clock,
            self.cost,
            self.analyzer,
            dedup_packages=dedup_packages,
            indexed_selection=indexed_selection,
        )
        #: plan + warm-base caches persist across retrievals, single
        #: and batched; revision-checked against the repository, so
        #: publishes, base replacements and GC in between can never
        #: serve a stale plan
        self.planner = AssemblyPlanner(self.repo, self.clock, self.cost)
        self.assembler = VMIAssembler(self.planner)

    # ------------------------------------------------------------------
    # durable workspaces (persistence across process restarts)
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, path, *, federation: int | None = None, **kwargs):
        """Open (or initialise) a durable workspace at ``path``.

        Reopen = last snapshot + write-ahead op-log replay, so the
        cost scales with the ops since the last checkpoint, not with
        the repository.  Every subsequent state-changing operation is
        journaled before it applies — the returned system survives
        process exits and crashes without an explicit save.

        ``federation=N`` opens ``path`` as a *federation root* of N
        shard workspaces instead and returns a
        :class:`~repro.repository.federation.FederatedRepository` —
        the same facade surface (publish/retrieve/delete/GC/fsck),
        scaled out across shards.

        Raises:
            WorkspaceError: the directory holds a mismatched or
                unreadable snapshot/op-log pair (or, federated, a
                root whose persisted shard count contradicts
                ``federation``).
        """
        if federation is not None:
            from repro.repository.federation import FederatedRepository

            return FederatedRepository.open(
                path, shards=federation, **kwargs
            )
        from repro.repository.workspace import Workspace

        workspace = Workspace(path)
        system = cls(repository=workspace.load(), **kwargs)
        system.workspace = workspace
        return system

    def save(self, path=None) -> int:
        """Checkpoint to the workspace; returns the snapshot bytes.

        With ``path``, an in-memory system becomes durable there (the
        repository is adopted by a fresh workspace and journaled from
        now on).  Without, the backing workspace writes a snapshot and
        truncates its op-log, so the next reopen pays pure
        snapshot-load cost.

        Raises:
            WorkspaceError: no workspace and no ``path``, or ``path``
                already holds a different repository.
        """
        from repro.errors import WorkspaceError
        from repro.repository.workspace import Workspace

        if path is None:
            if self.workspace is None:
                raise WorkspaceError(
                    "system has no workspace — pass save(path)"
                )
            return self.workspace.checkpoint()
        if self.workspace is not None and Path(path).resolve() == (
            self.workspace.path.resolve()
        ):
            return self.workspace.checkpoint()
        workspace = Workspace(path)
        size = workspace.adopt(self.repo)
        self.workspace = workspace
        return size

    def checkpoint_if_due(self, every_ops: int | None) -> bool:
        """Checkpoint when the op-log reached ``every_ops`` entries.

        Delegates to the workspace's op-count policy; False without a
        workspace.
        """
        if self.workspace is None:
            return False
        return self.workspace.checkpoint_if_due(every_ops)

    def close(self) -> None:
        """Detach from the workspace (journal closed, state kept)."""
        if self.workspace is not None:
            self.workspace.close()
            self.workspace = None

    # ------------------------------------------------------------------
    # the two user-facing operations of Figure 2
    # ------------------------------------------------------------------

    def publish(self, vmi: VirtualMachineImage) -> PublishReport:
        """Steps 1-3 of Figure 2: upload, analyze, decompose, store."""
        return self.publisher.publish(vmi)

    def publish_many(
        self,
        vmis,
        *,
        order: str = "dedup",
        progress=None,
        on_error: str = "continue",
        parallelism: int | None = None,
    ):
        """Batch-publish a corpus through the scale-out pipeline.

        Orders the batch dedup-aware by default (``order="given"``
        preserves arrival order), isolates per-item failures and returns
        the aggregated :class:`~repro.service.batch.BatchPublishReport`
        (simulated seconds, bytes, dedup counts, Algorithm 2 work).

        ``parallelism=N`` shards the batch instead
        (:class:`~repro.service.parallel.ParallelPublisher`): N
        family-affine shards, run one after another on the calling
        thread and accounted as N overlapped workers — per-shard
        critical-path accounting in the report's ``shards``.  The
        stored outcome is identical to the sequential pipeline's.
        """
        from repro.service.batch import BatchPublisher
        from repro.service.parallel import ParallelPublisher

        front = BatchPublisher(self.publisher) if parallelism is None else (
            ParallelPublisher(self.publisher, parallelism=parallelism)
        )
        return front.publish_many(
            vmis, order=order, progress=progress, on_error=on_error
        )

    def retrieve(self, name: str) -> RetrievalReport:
        """Steps 4-5 of Figure 2: request, assemble, deliver."""
        return self.assembler.retrieve(name)

    def retrieve_many(
        self,
        requests,
        *,
        order: str = "affine",
        progress=None,
        on_error: str = "continue",
        parallelism: int | None = None,
    ):
        """Batch-retrieve through the scale-out pipeline.

        ``requests`` holds published VMI names and/or
        :class:`~repro.core.assembly_plan.RetrievalRequest` objects.
        Orders the batch base-affine by default (``order="given"``
        preserves arrival order) so the warm base and plan caches
        amortise copies and plan derivation, isolates per-item failures
        and returns the aggregated :class:`~repro.service.retrieval.
        BatchRetrieveReport`.  Assembled VMIs are observationally
        identical to sequential :meth:`retrieve` — only the charged
        cost differs.

        ``parallelism=N`` shards the batch instead
        (:class:`~repro.service.parallel.ParallelRetriever`): N
        base-affine shards, run one after another on the calling
        thread and accounted as N overlapped workers — per-shard
        critical-path accounting in the report's ``shards``.
        """
        from repro.service.parallel import ParallelRetriever
        from repro.service.retrieval import BatchRetriever

        front = BatchRetriever(self.planner) if parallelism is None else (
            ParallelRetriever(self.planner, parallelism=parallelism)
        )
        return front.retrieve_many(
            requests, order=order, progress=progress, on_error=on_error
        )

    def assemble_custom(
        self, name: str, base_key: int, primary_names: tuple[str, ...],
        data_label: str | None = None,
    ) -> RetrievalReport:
        """Assemble a composition that was never uploaded as-is."""
        return self.assembler.assemble(
            name, base_key, primary_names, data_label
        )

    # ------------------------------------------------------------------
    # lifecycle management (sprawl control)
    # ------------------------------------------------------------------

    def delete(self, name: str) -> None:
        """Unpublish a VMI; shared content stays until garbage collection.

        The repository decrements the refcounts of everything the VMI
        referenced and marks its base dirty, so the next incremental GC
        pass sweeps it in work proportional to the churn.

        Raises:
            NotInRepositoryError: unpublished name.
        """
        self.repo.delete_vmi_record(name)
        self.clock.advance(self.cost.delete_record(), "delete")

    def delete_many(
        self,
        names,
        *,
        progress=None,
        on_error: str = "continue",
        gc_threshold_bytes: int | None = None,
        checkpoint_every_ops: int | None = None,
    ):
        """Batch-delete VMIs through the maintenance pipeline.

        Isolates per-item failures, tracks the reclaimable-bytes
        estimate as it grows, and — when ``gc_threshold_bytes`` is set —
        interleaves incremental GC passes whenever the estimate crosses
        the threshold.  On a workspace-backed system,
        ``checkpoint_every_ops`` additionally schedules snapshot
        checkpoints whenever the op-log grows past that many entries,
        bounding reopen replay cost.  Returns the aggregated
        :class:`~repro.service.maintenance.MaintenanceReport`.
        """
        from repro.service.maintenance import MaintenanceService

        return MaintenanceService(
            self.repo,
            self.clock,
            self.cost,
            gc_threshold_bytes=gc_threshold_bytes,
            workspace=self.workspace,
            checkpoint_every_ops=checkpoint_every_ops,
        ).delete_many(names, progress=progress, on_error=on_error)

    def garbage_collect(self, *, full: bool = False):
        """Reclaim packages / data / bases no published VMI references.

        Incremental by default (work scales with churn since the last
        pass); ``full=True`` runs the stop-the-world verification pass.
        Returns the :class:`~repro.repository.gc.GCReport`.
        """
        from repro.repository.gc import GarbageCollector

        return GarbageCollector(
            self.repo, self.clock, self.cost
        ).collect(full=full)

    def mine_bases(self):
        """Mine stored master graphs for mergeable base families.

        Groups the live bases by attribute quadruple and skeleton,
        pre-clusters large families with SimG k-medoids, and proposes
        candidate merged package-sets whose publication provably keeps
        every member VMI byte-identical.  Read-only; returns the
        :class:`~repro.analysis.mining.MiningReport` ranked by
        estimated bytes saved.
        """
        from repro.analysis.mining import BaseMiner

        return BaseMiner(self.repo, self.clock, self.cost).mine()

    def rebase(self, mining=None):
        """Apply mined base merges as a crash-recoverable maintenance op.

        Publishes each winning merged base, merges the donor master
        graphs, repoints and reassigns every member VMI and removes the
        obsoleted donors — journaled through a ``rebase.json`` intent
        file on workspace-backed systems so a crash at any point is
        recovered (and completed) by the next ``rebase()`` call.  Pass
        a :class:`~repro.analysis.mining.MiningReport` to apply a plan
        already mined; otherwise mines first.  Returns the
        :class:`~repro.service.rebase.RebaseReport`.
        """
        from repro.service.rebase import RebaseService

        return RebaseService(
            self.repo,
            self.clock,
            self.cost,
            workspace=self.workspace,
            selection_memo=self.publisher.selection_memo,
        ).run(mining)

    def fsck(self):
        """Run every repository consistency check (read-only).

        Returns the :class:`~repro.repository.fsck.FsckReport`.
        """
        from repro.repository.fsck import check_repository

        return check_repository(self.repo)

    def containerizer(self):
        """A :class:`~repro.containerize.converter.Containerizer` over
        this repository (the paper's future-work extension)."""
        from repro.containerize.converter import Containerizer

        return Containerizer(self.repo)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    @property
    def repository_size(self) -> int:
        """Bytes on the repository disk (the Figure 3 metric)."""
        return self.repo.total_bytes()

    def repository_breakdown(self) -> dict[str, int]:
        return self.repo.bytes_by_kind()

    def published_names(self) -> list[str]:
        return [r.name for r in self.repo.vmi_records()]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Expelliarmus vmis={len(self.published_names())} "
            f"bytes={self.repository_size}>"
        )
