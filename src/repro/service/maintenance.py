"""Repository maintenance: batched deletion with scheduled GC.

The write-side lifecycle a production repository runs continuously:
tenants unpublish images in bursts (CI churn, marketplace delistings,
family retirements), and the reclaimable bytes those deletions strand
must be swept back — without a stop-the-world pass after every delete,
and without letting garbage pile up unboundedly either.

:class:`MaintenanceService` drives both halves over one repository:

* **Batched deletes.**  :meth:`~MaintenanceService.delete_many`
  unpublishes a batch with per-item failure isolation (an unknown name
  is recorded and the batch continues, unless ``on_error="raise"``),
  charging the delete cost per record.
* **GC scheduling.**  The repository's eagerly maintained refcounts
  make :meth:`~repro.repository.repo.Repository.reclaimable_bytes` an
  exact O(pending-garbage) estimate, so the service can run an
  incremental pass exactly when the stranded bytes cross
  ``gc_threshold_bytes`` — mid-batch if the batch is large — instead of
  guessing on a timer.  ``gc_threshold_bytes=None`` defers collection
  entirely; ``0`` collects after every delete that strands bytes.
* **Re-base scheduling.**  With ``rebase_threshold_bytes`` set,
  :meth:`~MaintenanceService.maybe_rebase` runs the base miner
  (read-only) and applies the journaled re-base only when the mined
  candidates' estimated savings clear the threshold — heavyweight
  base-population maintenance gated by its own predicted payoff.
* **Checkpoint scheduling.**  On a workspace-backed repository the
  write-ahead op-log grows with every delete and GC sweep; reopen cost
  is O(ops since the last checkpoint).  With ``checkpoint_every_ops``
  set, the service writes a snapshot checkpoint (truncating the log)
  whenever the journal crosses that many entries — the op-count policy
  that bounds replay work without re-snapshotting per operation.
* **Cache interaction safety.**  Every delete bumps the repository's
  ``mutations`` counter and every GC rebuild replaces the affected
  master graphs with new objects (a new lineage), so
  :class:`~repro.core.assembly_plan.AssemblyPlanner` caches revalidate
  instead of serving stale plans — plans for bases the pass never
  touched keep hitting.  The integration tests pin this down.

:class:`MaintenanceReport` aggregates the batch: per-item outcomes,
interleaved GC reports, exact byte movement and the simulated seconds
charged under the ``"delete"`` and ``"gc"`` labels.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ReproError
from repro.repository.gc import GarbageCollector, GCReport
from repro.repository.repo import Repository
from repro.service.executor import (
    check_options,
    failure_lines,
    summary_line,
)
from repro.sim.clock import SimulatedClock
from repro.sim.costmodel import CostModel

__all__ = [
    "DeleteItemResult",
    "MaintenanceReport",
    "MaintenanceService",
]

#: progress callback: (items done, batch size, result of the last item)
ProgressFn = Callable[[int, int, "DeleteItemResult"], None]


@dataclass(frozen=True)
class DeleteItemResult:
    """Outcome of one batch delete: success or a recorded failure."""

    position: int
    name: str
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class MaintenanceReport:
    """What one maintenance batch deleted, swept and cost."""

    results: tuple[DeleteItemResult, ...]
    #: GC passes the batch triggered, in execution order
    gc_reports: tuple[GCReport, ...]
    repo_bytes_before: int
    repo_bytes_after: int
    #: exact bytes still awaiting the next pass when the batch ended
    reclaimable_after: int
    #: simulated seconds charged by the batch (deletes + GC passes)
    simulated_seconds: float = 0.0
    #: snapshot checkpoints the op-count policy scheduled mid-batch
    checkpoints: int = 0

    # -- outcomes -------------------------------------------------------

    @property
    def n_items(self) -> int:
        return len(self.results)

    @property
    def n_deleted(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def n_failed(self) -> int:
        return self.n_items - self.n_deleted

    def failures(self) -> list[DeleteItemResult]:
        return [r for r in self.results if not r.ok]

    # -- aggregated accounting ------------------------------------------

    @property
    def reclaimed_bytes(self) -> int:
        return self.repo_bytes_before - self.repo_bytes_after

    @property
    def gc_passes(self) -> int:
        return len(self.gc_reports)

    def render(self) -> str:
        """A compact operator-facing summary of the batch."""
        lines = [
            summary_line("deleted", self.n_deleted, self.n_items, self.simulated_seconds),
            f"  repository: -{self.reclaimed_bytes / 1e9:.3f} GB "
            f"(now {self.repo_bytes_after / 1e9:.3f} GB), "
            f"{self.reclaimable_after / 1e9:.3f} GB awaiting GC",
        ]
        for i, gc in enumerate(self.gc_reports, start=1):
            lines.append(
                f"  gc pass {i} ({gc.mode}): reclaimed "
                f"{gc.reclaimed_bytes / 1e9:.3f} GB — "
                f"{gc.removed_packages} packages, "
                f"{gc.removed_user_data} user data, "
                f"{gc.removed_bases} bases; rebuilt "
                f"{gc.graph_rebuilds} master graphs over "
                f"{gc.records_scanned} records"
            )
        if self.checkpoints:
            lines.append(
                f"  {self.checkpoints} snapshot checkpoint(s) written "
                "(op-count policy)"
            )
        return "\n".join(lines + failure_lines(self.results))


class MaintenanceService:
    """Batched deletion plus threshold-scheduled incremental GC."""

    def __init__(
        self,
        repo: Repository,
        clock: SimulatedClock | None = None,
        cost: CostModel | None = None,
        *,
        gc_threshold_bytes: int | None = None,
        full_gc: bool = False,
        workspace=None,
        checkpoint_every_ops: int | None = None,
        rebase_threshold_bytes: int | None = None,
    ) -> None:
        self.repo = repo
        self.clock = clock
        self.cost = cost
        self.gc_threshold_bytes = gc_threshold_bytes
        self.full_gc = full_gc
        #: the durable workspace journaling ``repo`` (checkpoint target)
        self.workspace = workspace
        self.checkpoint_every_ops = checkpoint_every_ops
        self.rebase_threshold_bytes = rebase_threshold_bytes
        self._collector = GarbageCollector(repo, clock, cost)

    # ------------------------------------------------------------------

    def collect(self, *, full: bool | None = None) -> GCReport:
        """Run one GC pass now (mode defaults to the service's)."""
        return self._collector.collect(
            full=self.full_gc if full is None else full
        )

    def maybe_collect(self) -> GCReport | None:
        """Run a pass iff the reclaimable estimate crossed the threshold."""
        if self.gc_threshold_bytes is None:
            return None
        if self.repo.reclaimable_bytes() < max(self.gc_threshold_bytes, 1):
            return None
        return self.collect()

    def maybe_rebase(self):
        """Mine, and re-base iff enough bytes would be reclaimed.

        Mining is read-only and cheap relative to a re-base, so the
        scheduling decision uses the miner's own estimate: when the
        ranked candidates promise at least ``rebase_threshold_bytes``
        of savings, the journaled re-base runs on the mined plan and
        its :class:`~repro.service.rebase.RebaseReport` is returned;
        otherwise (or with no threshold configured) ``None``.
        """
        if self.rebase_threshold_bytes is None:
            return None
        from repro.analysis.mining import BaseMiner
        from repro.service.rebase import RebaseService

        mining = BaseMiner(self.repo, self.clock, self.cost).mine()
        if mining.est_saved_bytes < max(self.rebase_threshold_bytes, 1):
            return None
        return RebaseService(
            self.repo,
            self.clock,
            self.cost,
            workspace=self.workspace,
        ).run(mining)

    def maybe_checkpoint(self) -> bool:
        """Checkpoint iff the op-log crossed the op-count threshold."""
        if self.workspace is None:
            return False
        return self.workspace.checkpoint_if_due(
            self.checkpoint_every_ops
        )

    def delete_many(
        self,
        names: Sequence[str],
        *,
        progress: ProgressFn | None = None,
        on_error: str = "continue",
    ) -> MaintenanceReport:
        """Delete a batch; returns the aggregated report.

        ``on_error`` is ``"continue"`` (record the failure, keep going)
        or ``"raise"``.  With a threshold configured, incremental GC
        passes interleave whenever the reclaimable estimate crosses it,
        and the triggered reports ride along in the result.

        Raises:
            ValueError: unknown ``on_error`` value.
            ReproError: a failing delete, when ``on_error="raise"``.
        """
        check_options(on_error)

        bytes_before = self.repo.total_bytes()
        results: list[DeleteItemResult] = []
        gc_reports: list[GCReport] = []
        checkpoints = 0

        # a thread-local window, not a ``clock.now`` delta: under a
        # federation the shards share one clock and run concurrently,
        # so the delta would pick up the other shards' charges
        window = self.clock.measure() if self.clock else nullcontext()
        with window as charged:
            for position, name in enumerate(names):
                try:
                    # the record delete touches two tables; commit them as
                    # one transaction per item (GC passes batch their own)
                    with self.repo.metadata_batch():
                        self.repo.delete_vmi_record(name)
                    if self.clock is not None and self.cost is not None:
                        self.clock.advance(
                            self.cost.delete_record(), "delete"
                        )
                except ReproError as exc:
                    if on_error == "raise":
                        raise
                    item = DeleteItemResult(
                        position=position, name=name, error=str(exc)
                    )
                else:
                    item = DeleteItemResult(position=position, name=name)
                results.append(item)
                if progress is not None:
                    progress(len(results), len(names), item)
                if item.ok:
                    triggered = self.maybe_collect()
                    if triggered is not None:
                        gc_reports.append(triggered)
                    if self.maybe_checkpoint():
                        checkpoints += 1

        return MaintenanceReport(
            results=tuple(results),
            gc_reports=tuple(gc_reports),
            repo_bytes_before=bytes_before,
            repo_bytes_after=self.repo.total_bytes(),
            reclaimable_after=self.repo.reclaimable_bytes(),
            simulated_seconds=charged.total if charged is not None else 0.0,
            checkpoints=checkpoints,
        )
