"""The one batch executor behind every bulk pipeline (DESIGN.md §12).

Items travel as ``(caller position, payload)`` pairs.  A front picks a
partitioner — one shard when sequential, :func:`~repro.service.
parallel.plan_shards` for ``parallelism=N``, family routing for the
federation — and :func:`run_batch` alone runs the shards, one after
another on the calling thread: each item under its repository's lock,
failures isolated per item (or raised), one :class:`ShardAccount` per shard, results merged back
into caller order.  The shards are *modelled* workers: their overlap
is accounted, not executed (DESIGN.md §12).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, NamedTuple, Sequence

from repro.errors import ReproError

__all__ = [
    "Job",
    "OverlapAccounting",
    "Progress",
    "ShardAccount",
    "check_options",
    "failure_lines",
    "merge_reports",
    "route",
    "run_batch",
    "summary_line",
]


def check_options(on_error: str, order=None, orders: Sequence[str] = ()):
    """Raises ``ValueError`` for an unknown ``order`` or ``on_error``."""
    if order is not None and order not in orders:
        raise ValueError(f"unknown batch order {order!r}")
    if on_error not in ("continue", "raise"):
        raise ValueError(f"unknown error policy {on_error!r}")


def summary_line(verb: str, done: int, total: int, seconds: float) -> str:
    """The first line of every batch summary, local or remote."""
    return f"{verb} {done}/{total} VMIs in {seconds:.1f} simulated s"


def failure_lines(results) -> list[str]:
    """One summary line per failed item result."""
    return [f"  FAILED {r.name}: {r.error}" for r in results if not r.ok]


class Progress:
    """Calls ``callback(items done, batch size, last result)`` once per
    item."""

    def __init__(self, callback, total: int) -> None:
        self._callback = callback
        self._total = total
        self._done = 0

    def step(self, item) -> None:
        if self._callback is not None:
            self._done += 1
            self._callback(self._done, self._total, item)


def merge_reports(reports):
    """Merge same-type dataclass reports (per-shard GC, mining and
    re-base reports, ``SelectionStats`` deltas, ...) field-wise, in
    order: numbers sum, tuples concatenate, bools are or-ed, and
    strings must agree.

    Raises:
        ValueError: two reports disagree on a string field.
    """
    if len(reports) == 1:
        return reports[0]
    merged = {}
    for f in fields(reports[0]):
        values = [getattr(report, f.name) for report in reports]
        if isinstance(values[0], bool):
            merged[f.name] = any(values)
        elif isinstance(values[0], tuple):
            merged[f.name] = tuple(v for value in values for v in value)
        elif isinstance(values[0], str):
            if len(set(values)) > 1:
                raise ValueError(f"reports disagree on {f.name}: {values}")
            merged[f.name] = values[0]
        else:
            merged[f.name] = sum(values)
    return type(reports[0])(**merged)


@dataclass(frozen=True)
class ShardAccount:
    """What one shard of a batch did and charged."""

    shard: int
    n_items: int
    n_failed: int
    #: simulated seconds this shard's items charged (its sequential
    #: span inside the overlapped schedule)
    simulated_seconds: float


class OverlapAccounting:
    """Per-shard overlap accounting, mixed into the batch reports (which
    supply ``shards`` — empty when sequential — and the summed
    ``simulated_seconds``)."""

    @property
    def parallelism(self) -> int:
        return max(len(self.shards), 1)

    @property
    def critical_path_seconds(self) -> float:
        """Simulated elapsed time of the overlapped schedule (the
        slowest shard's span — what a wall clock would have seen)."""
        return max(
            (s.simulated_seconds for s in self.shards),
            default=self.simulated_seconds,
        )

    @property
    def overlap_speedup(self) -> float:
        """Summed work over critical path: the modelled parallel gain."""
        critical = self.critical_path_seconds
        return self.simulated_seconds / critical if critical else 1.0

    def overlap_lines(self) -> list[str]:
        """The render line of a sharded run (none when sequential)."""
        if not self.shards:
            return []
        loads = ", ".join(
            f"s{s.shard}:{s.n_items}x/{s.simulated_seconds:.0f}s"
            for s in self.shards
        )
        return [
            f"  parallel: {len(self.shards)} shard(s) [{loads}] — "
            f"critical path {self.critical_path_seconds:.1f}s of "
            f"{self.simulated_seconds:.1f}s total work "
            f"({self.overlap_speedup:.2f}x overlap)"
        ]


class Job(NamedTuple):
    """How :func:`run_batch` runs one kind of item."""

    #: shard index -> the repository its items run against
    repo: Callable[[int], Any]
    #: (shard index, caller position, payload) -> the item's result
    #: (with ``ok`` and ``report.breakdown``); raises ReproError
    run: Callable[[int, int, Any], Any]
    #: (caller position, payload, error message) -> a failure result
    fail: Callable[[int, Any, str], Any]
    #: items take the write lock (else the read lock)
    write: bool


def route(items, place, fail, n_shards: int, *, on_error, progress):
    """Partition ``(position, item)`` pairs by ``place(item) -> (shard,
    payload)``; returns the shards and the failures — items ``place``
    raised a ReproError for, recorded as ``fail(position, item,
    message)`` (or re-raised under ``on_error="raise"``)."""
    shards: list[list] = [[] for _ in range(n_shards)]
    failed = []
    for position, item in items:
        try:
            shard, payload = place(item)
        except ReproError as exc:
            if on_error == "raise":
                raise
            failed.append(fail(position, item, str(exc)))
            progress.step(failed[-1])
        else:
            shards[shard].append((position, payload))
    return shards, failed


def run_batch(
    items, job: Job, *, place, n_shards: int, split=None, key=None,
    on_error, progress,
):
    """Run ``(caller position, item)`` pairs through ``job``; returns the
    results in caller order, one account per shard, and the executed
    items in the order they ran.

    :func:`route` partitions the items by ``place`` into ``n_shards``
    shards, ``split`` may re-partition those, and ``key`` (of a
    payload) orders each shard, stably.  The shards run one after
    another on the calling thread.  A failing item is recorded through ``job.fail`` — or,
    under ``on_error="raise"``, propagates, and no later item or shard
    runs.
    """
    tracker = Progress(progress, len(items))
    shards, failed = route(
        items, place, job.fail, n_shards, on_error=on_error, progress=tracker
    )
    if split is not None:
        shards = split(shards)
    if key is not None:
        shards = [sorted(s, key=lambda pair: key(pair[1])) for s in shards]

    def run_shard(index, pairs):
        lock = job.repo(index).lock
        held = lock.write if job.write else lock.read
        results = []
        seconds = 0.0
        failures = 0
        for position, payload in pairs:
            with held():
                try:
                    item = job.run(index, position, payload)
                except ReproError as exc:
                    if on_error == "raise":
                        raise
                    failures += 1
                    item = job.fail(position, payload, str(exc))
                else:
                    seconds += item.report.breakdown.total
            results.append(item)
            tracker.step(item)
        return results, ShardAccount(index, len(pairs), failures, seconds)

    outcomes = [run_shard(i, pairs) for i, pairs in enumerate(shards)]
    ran = [item for results, _ in outcomes for item in results]
    merged = sorted([*failed, *ran], key=lambda item: item.position)
    return merged, tuple(account for _, account in outcomes), ran
