"""Batch publishing: many VMIs, one pipeline, one report.

Publishing a corpus one :meth:`~repro.core.publisher.VMIPublisher.
publish` call at a time is correct but leaves two things on the table:

* **Order.**  The repository is content-addressed, so *storage* ends up
  identical whatever the order — but publish *time* and base-image
  churn do not.  Publishing a fat base before a lean one of the same
  quadruple stores the fat qcow2 only for Algorithm 2 to replace and
  delete it later; publishing the lean one first lets every following
  upload select the stored base outright.  :func:`dedup_aware_order`
  sorts a batch so that happens.
* **Accounting.**  Per-upload reports answer "what did this publish
  cost"; an operator ingesting a corpus needs the batch view — total
  simulated seconds, bytes added versus bytes uploaded, how much the
  package dedup saved, how hard Algorithm 2 had to work.
  :class:`BatchPublishReport` aggregates all of it, including the
  :class:`~repro.core.base_selection.SelectionStats` delta for the
  batch.

Failure isolation: a failing item (duplicate name, incompatible graph)
is recorded and the batch continues, unless ``on_error="raise"``.
Every batch runs on :mod:`repro.service.executor` through
:func:`publish_batch`, which the sharded fronts share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.core.base_selection import SelectionStats
from repro.core.publisher import PublishReport, VMIPublisher
from repro.model.vmi import VirtualMachineImage
from repro.service.executor import (
    Job,
    OverlapAccounting,
    ShardAccount,
    check_options,
    failure_lines,
    merge_reports,
    run_batch,
    summary_line,
)

__all__ = [
    "BatchItemResult",
    "BatchPublisher",
    "BatchPublishReport",
    "dedup_aware_order",
]

#: progress callback: (items done, batch size, result of the last item)
ProgressFn = Callable[[int, int, "BatchItemResult"], None]


def dedup_aware_order(
    vmis: Iterable[VirtualMachineImage],
) -> list[VirtualMachineImage]:
    """Order a batch to maximise dedup and minimise base churn.

    Deterministic sort key, coarse to fine:

    1. base-attribute quadruple — uploads of one OS family arrive
       consecutively, so master graphs and the Algorithm 2 memo stay
       hot;
    2. base package count, ascending — lean bases are stored first and
       fat ones select them, instead of being stored and replaced;
    3. primary count, ascending — small uploads seed the package store
       so larger ones dedup against it at export time;
    4. name — a total order, so batches are reproducible.

    The sort is stable, so equal-key uploads keep their given order.
    """
    return sorted(vmis, key=_dedup_key)


def _dedup_key(vmi: VirtualMachineImage) -> tuple:
    return (
        vmi.base.attrs.key(),
        len(vmi.base.packages),
        len(vmi.primary_names()),
        vmi.name,
    )


@dataclass(frozen=True)
class BatchItemResult:
    """Outcome of one batch item: a report or a recorded failure."""

    #: index of this VMI in the caller's sequence (not the execution
    #: position — the batch may have been reordered)
    position: int
    name: str
    report: PublishReport | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.report is not None


@dataclass(frozen=True)
class BatchPublishReport(OverlapAccounting):
    """What one batch did, and what it cost in aggregate."""

    #: per-item outcomes in caller order (see ``position``)
    results: tuple[BatchItemResult, ...]
    repo_bytes_before: int
    repo_bytes_after: int
    #: SelectionStats delta attributable to this batch
    selection_stats: SelectionStats
    #: per-shard accounts of a sharded run; empty when sequential
    shards: tuple[ShardAccount, ...] = ()

    # -- outcomes -------------------------------------------------------

    @property
    def n_items(self) -> int:
        return len(self.results)

    @property
    def n_published(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def n_failed(self) -> int:
        return self.n_items - self.n_published

    def failures(self) -> list[BatchItemResult]:
        return [r for r in self.results if not r.ok]

    def reports(self) -> list[PublishReport]:
        return [r.report for r in self.results if r.report is not None]

    # -- aggregated cost ------------------------------------------------

    @property
    def simulated_seconds(self) -> float:
        """Total simulated publish duration across the batch."""
        return sum(r.publish_time for r in self.reports())

    @property
    def bytes_added(self) -> int:
        return self.repo_bytes_after - self.repo_bytes_before

    @property
    def exported_packages(self) -> int:
        return sum(len(r.exported_packages) for r in self.reports())

    @property
    def deduplicated_packages(self) -> int:
        return sum(len(r.deduplicated_packages) for r in self.reports())

    @property
    def new_bases(self) -> int:
        return sum(1 for r in self.reports() if r.stored_new_base)

    @property
    def replaced_bases(self) -> int:
        return sum(r.replaced_bases for r in self.reports())

    @property
    def dedup_ratio(self) -> float:
        """Fraction of required packages served from the repository."""
        total = self.exported_packages + self.deduplicated_packages
        return self.deduplicated_packages / total if total else 0.0

    @property
    def publish_rate(self) -> float:
        """Published VMIs per simulated second (batch throughput)."""
        seconds = self.simulated_seconds
        return self.n_published / seconds if seconds else 0.0

    def render(self) -> str:
        """A compact operator-facing summary of the batch."""
        stats = self.selection_stats
        lines = [
            summary_line("published", self.n_published, self.n_items, self.simulated_seconds)
            + f" ({self.publish_rate:.2f} VMI/s)",
            f"  repository: +{self.bytes_added / 1e9:.3f} GB "
            f"(now {self.repo_bytes_after / 1e9:.3f} GB)",
            f"  packages: {self.exported_packages} exported, "
            f"{self.deduplicated_packages} deduplicated "
            f"({self.dedup_ratio:.0%} served from store)",
            f"  bases: {self.new_bases} stored, "
            f"{self.replaced_bases} replaced",
            f"  base selection: {stats.bases_considered} candidates "
            f"considered over {stats.calls} publishes, "
            f"{stats.compat_checks} compatibility checks "
            f"({stats.compat_cache_hits} memo hits)",
        ]
        return "\n".join(
            lines + failure_lines(self.results) + self.overlap_lines()
        )


class BatchPublisher:
    """Drives one :class:`VMIPublisher` over whole corpora."""

    def __init__(self, publisher: VMIPublisher) -> None:
        self.publisher = publisher

    def publish_many(
        self,
        vmis: Sequence[VirtualMachineImage],
        *,
        order: str = "dedup",
        progress: ProgressFn | None = None,
        on_error: str = "continue",
    ) -> BatchPublishReport:
        """Publish a batch; returns the aggregated report.

        ``order`` is ``"dedup"`` (default, :func:`dedup_aware_order`) or
        ``"given"`` (preserve the caller's sequence — Table II style
        workloads where arrival order is part of the experiment).
        ``on_error`` is ``"continue"`` (record the failure, keep going)
        or ``"raise"``.

        Raises:
            ValueError: unknown ``order`` / ``on_error`` value.
            ReproError: a failing publish, when ``on_error="raise"``.
        """
        return publish_batch(
            [self.publisher], vmis, order=order, progress=progress,
            on_error=on_error, sharded=False,
        )


def publish_batch(
    publishers: Sequence[VMIPublisher], vmis, *, order, progress, on_error,
    place=lambda vmi: (0, vmi), split=None, total_bytes=None, sharded=True,
) -> BatchPublishReport:
    """Publish ``vmis`` on the executor, shard ``i`` on ``publishers[i]``:
    ``place(vmi) -> (shard, vmi)`` routes each item (a ReproError
    rejects it), ``split`` may re-partition the routed shards, and
    ``total_bytes()`` reads the store's size (default: shard 0's)."""
    check_options(on_error, order, ("dedup", "given"))
    total_bytes = total_bytes or publishers[0].repo.total_bytes
    memos = {id(p.selection_memo): p.selection_memo for p in publishers}
    before = {key: memo.stats.snapshot() for key, memo in memos.items()}
    bytes_before = total_bytes()
    job = Job(
        repo=lambda i: publishers[i].repo,
        run=lambda i, pos, vmi: BatchItemResult(
            pos, vmi.name, report=publishers[i].publish(vmi)
        ),
        fail=lambda pos, vmi, error: BatchItemResult(
            pos, vmi.name, error=error
        ),
        write=True,
    )
    results, accounts, _ = run_batch(
        list(enumerate(vmis)), job, place=place, n_shards=len(publishers),
        split=split, key=_dedup_key if order == "dedup" else None,
        on_error=on_error, progress=progress,
    )
    return BatchPublishReport(
        results=tuple(results),
        repo_bytes_before=bytes_before,
        repo_bytes_after=total_bytes(),
        selection_stats=merge_reports(
            [memo.stats.since(before[key]) for key, memo in memos.items()]
        ),
        shards=accounts if sharded else (),
    )
