"""Batch retrieval: many VMIs, one pipeline, warm caches.

Serving a burst of retrieval requests one :meth:`~repro.core.assembler.
VMIAssembler.retrieve` call at a time charges a cold copy of the same
base image for every member of a VMI family.  :class:`BatchRetriever`
drives the :class:`~repro.core.assembly_plan.AssemblyPlanner` over the
whole batch with its warm-base cache instead:

* **Order.**  :func:`base_affine_order` sorts a batch so requests
  sharing a stored base — and, within a base, sharing a full assembly
  plan — run consecutively.  The first request of a run charges the
  cold base copy and derives the plan; every follower clones the warm
  local copy and replays the cached plan.  Output is unaffected: the
  assembled VMIs are observationally identical in every ordering, so
  ordering is purely a cost lever (``order="given"`` preserves arrival
  order for workloads where it is part of the experiment).
* **Accounting.**  :class:`BatchRetrieveReport` aggregates the Figure
  5a component stack across the batch plus the planner's work counters
  (plans derived vs replayed, cold copies vs warm clones), so the
  amortisation is measurable rather than assumed.

Failure isolation mirrors the publish pipeline: a failing item (unknown
name, incompatible composition) is recorded and the batch continues,
unless ``on_error="raise"``.  Every batch runs on
:mod:`repro.service.executor` through :func:`retrieve_batch`, which
the sharded fronts share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from repro.core.assembly_plan import (
    RETRIEVAL_COMPONENTS,
    AssemblyPlanner,
    PlannerStats,
    RetrievalReport,
    RetrievalRequest,
)
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
from repro.sim.clock import TimeBreakdown

__all__ = [
    "BatchRetrieveReport",
    "BatchRetriever",
    "RetrieveItemResult",
    "base_affine_order",
    "components_line",
]

#: progress callback: (items done, batch size, result of the last item)
ProgressFn = Callable[[int, int, "RetrieveItemResult"], None]


def components_line(breakdown: TimeBreakdown) -> str:
    """The Figure-5a component stack as one report line fragment."""
    return ", ".join(
        f"{label} {breakdown.component(label):.1f}s"
        for label in RETRIEVAL_COMPONENTS
    )


def _affine_key(request: RetrievalRequest) -> tuple:
    return (request.base_key, request.plan_key(), request.name)


def base_affine_order(
    requests: Iterable[RetrievalRequest],
) -> list[RetrievalRequest]:
    """Order a batch so the warm base and plan caches peak.

    Deterministic sort key, coarse to fine:

    1. base blob key — requests against one stored base run
       consecutively, so its warm local copy serves every follower;
    2. full plan key — within a base, identical ``(primary identity
       sequence)`` requests are adjacent, so one derived plan replays
       for the whole run;
    3. name — a total order, so batches are reproducible.

    The sort is stable, so equal-key requests keep their given order.
    """
    return sorted(requests, key=_affine_key)


@dataclass(frozen=True)
class RetrieveItemResult:
    """Outcome of one batch item: a report or a recorded failure."""

    #: index of this request in the caller's sequence (not the
    #: execution position — the batch may have been reordered)
    position: int
    name: str
    report: RetrievalReport | None = None
    error: str | None = None
    #: True when the install plan was replayed from the cache
    plan_hit: bool = False
    #: True when the base copy was served from the warm local cache
    warm_base: bool = False

    @property
    def ok(self) -> bool:
        return self.report is not None


@dataclass(frozen=True)
class BatchRetrieveReport(OverlapAccounting):
    """What one retrieval batch served, and what it cost in aggregate."""

    #: per-item outcomes in caller order (see ``position``), failures
    #: to resolve a name included
    results: tuple[RetrieveItemResult, ...]
    #: the shared planner's counter delta over the batch — planner-wide,
    #: so retrievals other threads run on the same planner meanwhile
    #: (single requests, other batches) are counted too
    planner_stats: PlannerStats
    #: the items that ran, in the order they ran (shard by shard)
    executed: tuple[RetrieveItemResult, ...]
    #: per-shard accounts of a sharded run; empty when sequential
    shards: tuple[ShardAccount, ...] = ()

    # -- outcomes -------------------------------------------------------

    @property
    def n_items(self) -> int:
        return len(self.results)

    @property
    def n_retrieved(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def n_failed(self) -> int:
        return self.n_items - self.n_retrieved

    def failures(self) -> list[RetrieveItemResult]:
        return [r for r in self.results if not r.ok]

    def reports(self) -> list[RetrievalReport]:
        return [r.report for r in self.results if r.report is not None]

    def result_for(self, name: str) -> RetrieveItemResult | None:
        """The outcome of the (first) item with this request name."""
        for r in self.results:
            if r.name == name:
                return r
        return None

    # -- aggregated cost ------------------------------------------------

    @cached_property
    def breakdown(self) -> TimeBreakdown:
        """The Figure-5a component stack summed over the batch, in the
        order the items ran (so float sums match the execution's)."""
        merged = TimeBreakdown()
        for item in self.executed:
            if item.ok:
                merged = merged.merged(item.report.breakdown)
        return merged

    @property
    def simulated_seconds(self) -> float:
        """Total simulated retrieval duration across the batch."""
        return self.breakdown.total

    def component(self, label: str) -> float:
        return self.breakdown.component(label)

    @property
    def plan_hits(self) -> int:
        return sum(1 for r in self.results if r.plan_hit)

    @property
    def warm_base_hits(self) -> int:
        return sum(1 for r in self.results if r.warm_base)

    @property
    def retrieval_rate(self) -> float:
        """Served VMIs per simulated second (batch throughput)."""
        seconds = self.simulated_seconds
        return self.n_retrieved / seconds if seconds else 0.0

    def render(self) -> str:
        """A compact operator-facing summary of the batch."""
        stats = self.planner_stats
        lines = [
            summary_line("retrieved", self.n_retrieved, self.n_items, self.simulated_seconds)
            + f" ({self.retrieval_rate:.2f} VMI/s)",
            f"  components: {components_line(self.breakdown)}",
            f"  plans: {stats.plans_derived} derived, "
            f"{stats.plan_hits} replayed from cache "
            f"({stats.plan_invalidations} invalidated)",
            f"  base copies: {stats.base_copies} cold, "
            f"{stats.base_cache_hits} served warm",
        ]
        return "\n".join(
            lines + failure_lines(self.results) + self.overlap_lines()
        )


class BatchRetriever:
    """Drives one :class:`AssemblyPlanner` over whole request batches."""

    def __init__(self, planner: AssemblyPlanner) -> None:
        self.planner = planner

    def retrieve_many(
        self,
        requests: Sequence[RetrievalRequest | str],
        *,
        order: str = "affine",
        progress: ProgressFn | None = None,
        on_error: str = "continue",
    ) -> BatchRetrieveReport:
        """Retrieve a batch; returns the aggregated report.

        Items are :class:`RetrievalRequest` objects or published VMI
        names (resolved against the repository's records).  ``order``
        is ``"affine"`` (default, :func:`base_affine_order`) or
        ``"given"`` (preserve the caller's sequence).  ``on_error`` is
        ``"continue"`` (record the failure, keep going) or ``"raise"``.

        Raises:
            ValueError: unknown ``order`` / ``on_error`` value.
            ReproError: a failing retrieval, when ``on_error="raise"``
                (including unresolvable names).
        """
        return retrieve_batch(
            [self.planner], requests, order=order, progress=progress,
            on_error=on_error, sharded=False,
        )


def resolve_request(repo, item: RetrievalRequest | str) -> RetrievalRequest:
    """A request as is, or a published name's request (one atomic record
    lookup); raises NotInRepositoryError if unknown."""
    if isinstance(item, RetrievalRequest):
        return item
    return RetrievalRequest.for_record(repo.get_vmi_record(item))


def retrieve_batch(
    planners: Sequence[AssemblyPlanner], requests, *, order, progress,
    on_error, place=None, split=None, sharded=True,
) -> BatchRetrieveReport:
    """Serve ``requests`` on the executor, shard ``i`` on ``planners[i]``:
    ``place(item) -> (shard, request)`` routes and resolves each item (a
    ReproError rejects it; default: resolve against shard 0), and
    ``split`` may re-partition the routed shards."""
    check_options(on_error, order, ("affine", "given"))
    unique = {id(p): p for p in planners}
    before = {key: p.stats.snapshot() for key, p in unique.items()}

    def run(i: int, position: int, request) -> RetrieveItemResult:
        planned = planners[i].assemble(request)
        return RetrieveItemResult(
            position,
            request.name,
            report=planned.report,
            plan_hit=planned.plan_hit,
            warm_base=planned.warm_base,
        )

    def fail(position: int, item, error: str) -> RetrieveItemResult:
        name = item if isinstance(item, str) else item.name
        return RetrieveItemResult(position, name, error=error)

    job = Job(repo=lambda i: planners[i].repo, run=run, fail=fail, write=False)
    results, accounts, executed = run_batch(
        list(enumerate(requests)), job,
        place=place or (
            lambda item: (0, resolve_request(planners[0].repo, item))
        ),
        n_shards=len(planners), split=split,
        key=_affine_key if order == "affine" else None,
        on_error=on_error, progress=progress,
    )
    return BatchRetrieveReport(
        results=tuple(results),
        planner_stats=merge_reports(
            [p.stats.since(before[key]) for key, p in unique.items()]
        ),
        executed=tuple(executed),
        shards=accounts if sharded else (),
    )
