"""The one batch executor behind every bulk pipeline (DESIGN.md §12).

Items travel as ``(caller position, payload)`` pairs.  A front picks a
partitioner — one shard when sequential, :func:`~repro.service.
parallel.plan_shards` for ``parallelism=N``, family routing for the
federation — and :func:`run_batch` alone runs the shards: each item
under its repository's lock, failures isolated per item (or raised),
progress serialised, one :class:`ShardAccount` per shard, results
merged back into caller order.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields
from typing import Any, Callable, NamedTuple, Sequence

from repro.errors import ReproError

__all__ = [
    "Job",
    "OverlapAccounting",
    "Progress",
    "ShardAccount",
    "check_options",
    "merge_stats",
    "route",
    "run_batch",
    "run_shards",
]


def check_options(on_error: str, order=None, orders: Sequence[str] = ()):
    """Raises ``ValueError`` for an unknown ``order`` or ``on_error``."""
    if order is not None and order not in orders:
        raise ValueError(f"unknown batch order {order!r}")
    if on_error not in ("continue", "raise"):
        raise ValueError(f"unknown error policy {on_error!r}")


class Progress:
    """Serialises ``callback(items done, batch size, last result)``."""

    def __init__(self, callback, total: int) -> None:
        self._callback = callback
        self._total = total
        self._done = 0
        self._lock = threading.Lock()

    def step(self, item) -> None:
        if self._callback is not None:
            with self._lock:
                self._done += 1
                self._callback(self._done, self._total, item)


def merge_stats(deltas):
    """Sum stats deltas field-wise (``SelectionStats`` etc.)."""
    if len(deltas) == 1:
        return deltas[0]
    first = deltas[0]
    totals = {f.name: sum(getattr(d, f.name) for d in deltas)
              for f in fields(first)}
    return type(first)(**totals)


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


def run_shards(shards: Sequence, run_shard: Callable) -> list:
    """``run_shard(index, shard)`` for every shard, outcomes in shard
    order: inline on the calling thread when at most one shard has
    items, else on a pool with one worker per shard (the first shard
    error re-raised once all have stopped)."""
    if sum(1 for shard in shards if shard) <= 1:
        return [run_shard(i, shard) for i, shard in enumerate(shards)]
    errors: list[ReproError] = []
    outcomes = []
    with ThreadPoolExecutor(max_workers=len(shards)) as pool:
        futures = [pool.submit(run_shard, *s) for s in enumerate(shards)]
        for future in futures:
            try:
                outcomes.append(future.result())
            except ReproError as exc:
                errors.append(exc)
    if errors:
        raise errors[0]
    return outcomes


def run_batch(
    items, job: Job, *, place, n_shards: int, split=None, key=None,
    on_error, progress,
):
    """Run ``(caller position, item)`` pairs through ``job``; returns the
    results in caller order, one account per shard, and the executed
    items in the order they ran.

    :func:`route` partitions the items by ``place`` into ``n_shards``
    shards, ``split`` may re-partition those, and ``key`` (of a
    payload) orders each shard, stably.  A failing item is recorded
    through ``job.fail`` — or, under ``on_error="raise"``, stops every
    shard at its next item and propagates.  A publishing shard alone on
    its repository commits once (one ``metadata_batch()`` scope);
    shards sharing a repository commit per write, which measured faster
    (DESIGN.md §12).
    """
    tracker = Progress(progress, len(items))
    shards, failed = route(
        items, place, job.fail, n_shards, on_error=on_error, progress=tracker
    )
    if split is not None:
        shards = split(shards)
    if key is not None:
        shards = [sorted(s, key=lambda pair: key(pair[1])) for s in shards]
    repos = [job.repo(i) for i in range(len(shards))]
    busy = [repos[i] for i, shard in enumerate(shards) if shard]
    aborted = False  # set by the first failure under on_error="raise"

    def run_shard(index, pairs):
        nonlocal aborted
        repo = repos[index]
        # the lock's pair of calls, not its generator-based context
        # manager: that would double the per-item locking cost
        lock = repo.lock
        acquire = lock.acquire_write if job.write else lock.acquire_read
        release = lock.release_write if job.write else lock.release_read
        alone = pairs and sum(1 for r in busy if r is repo) == 1
        results = []
        seconds = 0.0
        failures = 0
        with repo.metadata_batch() if job.write and alone else nullcontext():
            for position, payload in pairs:
                if aborted:
                    break
                acquire()
                try:
                    item = job.run(index, position, payload)
                except ReproError as exc:
                    if on_error == "raise":
                        aborted = True
                        raise
                    failures += 1
                    item = job.fail(position, payload, str(exc))
                else:
                    seconds += item.report.breakdown.total
                finally:
                    release()
                results.append(item)
                tracker.step(item)
        return results, ShardAccount(index, len(pairs), failures, seconds)

    outcomes = run_shards(shards, run_shard)
    ran = [item for results, _ in outcomes for item in results]
    merged = sorted([*failed, *ran], key=lambda item: item.position)
    return merged, tuple(account for _, account in outcomes), ran
