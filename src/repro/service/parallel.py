"""Sharded batch pipelines: the ``parallelism=N`` fronts (DESIGN.md §12).

:class:`ParallelPublisher` / :class:`ParallelRetriever` run a batch on
the one batch executor (:mod:`repro.service.executor`), partitioned by
:func:`plan_shards` so that items sharing a base never split across
shards — shards own disjoint master graphs, warm-base copies and
plan-cache keys, so each shard's charged seconds are independent of
the others'.  The shards are modelled workers: they run one after
another, and the report's per-shard accounts give the overlapped
(critical-path) time.  The differential suite
(``tests/property/test_parallel_props.py``) pins down that the
reordering is invisible.
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence, TypeVar

from repro.core.assembly_plan import AssemblyPlanner, RetrievalRequest
from repro.core.publisher import VMIPublisher
from repro.model.vmi import VirtualMachineImage
from repro.service.batch import BatchPublishReport, publish_batch
from repro.service.retrieval import BatchRetrieveReport, retrieve_batch

__all__ = [
    "ParallelPublisher",
    "ParallelRetriever",
    "plan_shards",
]

T = TypeVar("T")


def plan_shards(
    items: Sequence[T],
    n_shards: int,
    affinity: Callable[[T], Hashable],
) -> list[list[T]]:
    """Partition a batch into affinity-aligned, load-balanced shards.

    Items are grouped by ``affinity(item)`` (group-internal order
    preserved), then whole groups are packed largest-first onto the
    least-loaded shard.  Guarantees: every item is assigned to exactly
    one shard, and two items with equal affinity keys always share a
    shard.  Deterministic — ties break on the group's first appearance
    in the batch and the shard index — so a batch plans identically on
    every run even when affinity keys have unstable (``id()``-based)
    reprs.

    Shards may come back empty when the batch has fewer affinity
    groups than ``n_shards``.

    Raises:
        ValueError: non-positive ``n_shards``.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    groups: dict[Hashable, list[T]] = {}
    arrival: dict[Hashable, int] = {}
    for item in items:
        key = affinity(item)
        if key not in groups:
            groups[key] = []
            arrival[key] = len(arrival)
        groups[key].append(item)
    order = sorted(groups, key=lambda k: (-len(groups[k]), arrival[k]))
    shards: list[list[T]] = [[] for _ in range(n_shards)]
    loads = [0] * n_shards
    for key in order:
        target = min(range(n_shards), key=lambda s: (loads[s], s))
        shards[target].extend(groups[key])
        loads[target] += len(groups[key])
    return shards


def _positive(parallelism: int) -> int:
    if parallelism < 1:
        raise ValueError(f"parallelism must be positive, got {parallelism}")
    return parallelism


class ParallelPublisher:
    """Drives one :class:`VMIPublisher` over family-affine shards.

    The shards run one after another on the calling thread, every
    publish under the repository's write lock; the per-shard accounts
    model them as overlapped workers and expose the critical-path time.
    The publisher's selection memo is shared by every shard.
    """

    def __init__(self, publisher: VMIPublisher, *, parallelism: int) -> None:
        self.publisher = publisher
        self.parallelism = _positive(parallelism)

    def publish_many(
        self,
        vmis: Sequence[VirtualMachineImage],
        *,
        order: str = "dedup",
        progress=None,
        on_error: str = "continue",
    ) -> BatchPublishReport:
        """Publish a batch across shards; returns the merged report.

        Same contract as :meth:`~repro.service.batch.BatchPublisher.
        publish_many`; ``order="dedup"`` applies within each shard,
        which already holds whole quadruple families.
        """
        return publish_batch(
            [self.publisher] * self.parallelism, vmis, order=order,
            progress=progress, on_error=on_error,
            split=lambda shards: plan_shards(
                shards[0], self.parallelism,
                lambda pv: pv[1].base.attrs.key(),
            ),
        )


class ParallelRetriever:
    """Drives one :class:`AssemblyPlanner` over base-affine shards, run
    one after another on the calling thread (each retrieval under the
    read lock) and accounted as overlapped workers."""

    def __init__(self, planner: AssemblyPlanner, *, parallelism: int) -> None:
        self.planner = planner
        self.parallelism = _positive(parallelism)

    def retrieve_many(
        self,
        requests: Sequence[RetrievalRequest | str],
        *,
        order: str = "affine",
        progress=None,
        on_error: str = "continue",
    ) -> BatchRetrieveReport:
        """Retrieve a batch across shards; returns the merged report.

        Same contract as :meth:`~repro.service.retrieval.BatchRetriever.
        retrieve_many`; ``order="affine"`` applies within each shard,
        which already holds all of a base's requests.
        """
        return retrieve_batch(
            [self.planner] * self.parallelism, requests, order=order,
            progress=progress, on_error=on_error,
            split=lambda shards: plan_shards(
                shards[0], self.parallelism, lambda pr: pr[1].base_key
            ),
        )
