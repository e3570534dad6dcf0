"""Helpers shared by the workloads: host-speed calibration, timing
statistics, reference digests, repository fingerprints and the result
record."""

from __future__ import annotations

import hashlib
import math
import os
import resource
import shutil
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: the checkout root: ``perfbench/`` sits directly below it
ROOT = Path(__file__).resolve().parent.parent
#: this run's scratch space for workspaces, removed when the run ends
WORK_ROOT = ROOT / ".bench_work" / str(os.getpid())


#: seconds one calibration sample (the slice on CALIBRATION_THREADS
#: threads at once) takes on the reference host: a 2-CPU x86-64
#: container running CPython 3.11, in a quiet period
REFERENCE_SLICE_S = 0.0137
#: threads of one calibration sample
CALIBRATION_THREADS = 4


class CorrectnessError(Exception):
    """A program output did not match its reference: the run is void."""


def nproc() -> int:
    """CPUs this process may run on (the container's, not the host's)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def work_dir(name: str) -> Path:
    """A fresh private directory for one run's files."""
    path = WORK_ROOT / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def tail(values, want: float) -> tuple[float, float]:
    """The tail percentile: ``want`` capped at the highest percentile
    that still has at least ten samples beyond it.  Returns
    ``(quantile used, value)``."""
    n = len(values)
    q = min(want, max(0.5, 1.0 - 10.0 / n)) if n else want
    return q, percentile(values, q)


def digest_of(vmi) -> str:
    """Digest of what "retrieves byte-identically" means for a VMI:
    its mounted size and the multiset of its files (the program's own
    :func:`repro.analysis.mining.vmi_digest`; file order is an artifact
    of assembly, and re-basing legitimately reorders it)."""
    from repro.analysis.mining import vmi_digest

    size, (ids, sizes) = vmi_digest(vmi)
    h = hashlib.blake2b(ids, digest_size=16)
    h.update(sizes)
    h.update(str(size).encode())
    return h.hexdigest()


def fingerprint(repo) -> dict:
    """What must survive a close/reopen: blobs, bytes by kind,
    refcounts and VMI records."""
    return {
        "blobs": sorted(
            (r.key, r.kind.value, r.size) for r in repo.blobs.records()
        ),
        "bytes": repo.bytes_by_kind(),
        "refcounts": repo.refcounts(),
        "records": sorted(
            (r.name, r.base_key, r.primary_names, r.data_label,
             r.mounted_size)
            for r in repo.vmi_records()
        ),
    }


def stored_bytes_ratio(repo) -> float:
    """Stored bytes over the mounted bytes of the live VMIs."""
    mounted = sum(r.mounted_size for r in repo.vmi_records())
    return repo.total_bytes() / mounted


def require_clean(report, where: str) -> None:
    if not report.clean:
        raise CorrectnessError(
            f"fsck not clean {where}: "
            + "; ".join(str(f) for f in report.findings[:5])
        )


def _calibration_slice() -> None:
    """Fixed pure-Python work shaped like the program's own: tuple
    keys, string formatting, dict probes and a sort."""
    table: dict = {}
    for i in range(5000):
        key = ("pkg", i % 997, str(i % 31))
        table[key] = table.get(key, 0) + 1
    sorted(table.items())


class HostSpeed:
    """How fast this host runs Python now, relative to the reference.

    The benchmark shares its machine with other tenants, and the speed
    of one fixed loop swings by up to 2x over minutes (0.227 s vs
    0.114 s medians half an hour apart, with the program's throughput
    moving in step).  Workloads take calibration samples between their
    timed phases, never inside one, and the end-to-end times are
    reported at the reference speed: divided by :meth:`slowdown`
    (rates multiplied).  The raw figures and the factor print with
    every run.

    A sample runs the slice on several threads at once.  Over 4-20 s
    windows of ingest- and churn-like loops, that tracked the program
    best: normalised window times spread 2-11% (quartile distance over
    median) against 9-19% with a single-threaded slice and 13-21% raw.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            threads = [
                threading.Thread(target=_calibration_slice)
                for _ in range(CALIBRATION_THREADS)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            self.samples.append(time.perf_counter() - start)

    def slowdown(self, recent: int | None = None) -> float:
        """Median slowdown over the last ``recent`` samples (all by
        default): timings divide by it to read at reference speed."""
        window = self.samples[-recent:] if recent else self.samples
        return statistics.median(window) / REFERENCE_SLICE_S


#: calibration samples that set the slowdown of the timings after them:
#: local, because the host's speed also drifts within one run
RECENT_SAMPLES = 4


@dataclass
class Run:
    """Everything one workload pass measured.

    Timings enter through :meth:`add_setup`, :meth:`add_publish`,
    :meth:`add_retrieve` and :meth:`add_timed`, which store them at the
    reference host speed: divided by the slowdown of the most recent
    calibration samples (see :class:`HostSpeed`).  ``wall_s`` keeps the
    raw timed seconds that decide when a run has measured long enough.
    """

    #: end-to-end operations attempted / failed in the timed phases
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    timed_s: float = 0.0
    setup_samples: list[float] = field(default_factory=list)
    publish_lat_s: list[float] = field(default_factory=list)
    retrieve_lat_s: list[float] = field(default_factory=list)
    published: int = 0
    retrieved: int = 0
    publish_call_s: float = 0.0
    retrieve_call_s: float = 0.0
    sim_publish: list[float] = field(default_factory=list)
    sim_retrieve: list[float] = field(default_factory=list)
    ratio_samples: list[float] = field(default_factory=list)
    rss_mb: float = 0.0
    #: zero-cost counters read from the program's report/stats objects
    counters: dict[str, float] = field(default_factory=dict)
    #: span summary of a traced pass recorded in another process
    trace: dict | None = None
    host: HostSpeed = field(default_factory=HostSpeed)
    notes: list[str] = field(default_factory=list)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _scaled(self, seconds: float, recent: int) -> float:
        return seconds / self.host.slowdown(recent)

    def add_setup(self, seconds: float) -> None:
        self.setup_samples.append(self._scaled(seconds, RECENT_SAMPLES))

    def add_publish(self, seconds: float, recent: int = RECENT_SAMPLES):
        """One publish call (or round trip), not yet in a timed phase."""
        scaled = self._scaled(seconds, recent)
        self.publish_lat_s.append(scaled)
        self.publish_call_s += scaled

    def add_retrieve(self, seconds: float, recent: int = RECENT_SAMPLES):
        """One retrieve call (or round trip), not yet in a timed phase."""
        scaled = self._scaled(seconds, recent)
        self.retrieve_lat_s.append(scaled)
        self.retrieve_call_s += scaled

    def add_timed(self, seconds: float, recent: int = RECENT_SAMPLES):
        """A timed phase's wall seconds."""
        self.wall_s += seconds
        self.timed_s += self._scaled(seconds, recent)

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """The end-to-end metrics: name -> (value, unit), wall-clock
        figures at the reference host speed."""
        completed = self.attempted - self.failed
        q, retrieve_tail = tail(self.retrieve_lat_s, 0.99)
        self.notes.append(
            f"host slowdown {self.host.slowdown():.4f} (median of "
            f"{len(self.host.samples)} calibration samples); raw "
            f"{completed / self.wall_s:.2f} ops/s over {self.wall_s:.2f} "
            "timed s"
        )
        self.notes.append(
            f"retrieve samples: {len(self.retrieve_lat_s)}, p{100 * q:g} "
            f"{retrieve_tail * 1e3:.4f} ms (not gated: too noisy on a "
            f"shared host); publish samples: {len(self.publish_lat_s)}"
        )
        return {
            "setup_s": (statistics.median(self.setup_samples), "s"),
            "publish_vmis_per_s": (
                self.published / self.publish_call_s, "1/s"
            ),
            "retrieve_vmis_per_s": (
                self.retrieved / self.retrieve_call_s, "1/s"
            ),
            "ops_per_s": (completed / self.timed_s, "1/s"),
            "publish_p50_ms": (
                percentile(self.publish_lat_s, 0.5) * 1e3, "ms"
            ),
            "publish_p90_ms": (
                percentile(self.publish_lat_s, 0.9) * 1e3, "ms"
            ),
            "retrieve_p50_ms": (
                percentile(self.retrieve_lat_s, 0.5) * 1e3, "ms"
            ),
            "retrieve_p90_ms": (
                percentile(self.retrieve_lat_s, 0.9) * 1e3, "ms"
            ),
            "stored_bytes_ratio": (
                statistics.median(self.ratio_samples), "ratio"
            ),
            "sim_publish_s": (statistics.fmean(self.sim_publish), "s"),
            "sim_retrieve_s": (statistics.fmean(self.sim_retrieve), "s"),
            "peak_rss_mb": (self.rss_mb, "MB"),
        }


class Stopwatch:
    """Accumulates the timed part of a phase; checks run ``paused``,
    which also keeps them out of the tracer's spans."""

    def __init__(self, tracer=None) -> None:
        self._tracer = tracer
        self._start = time.perf_counter()
        self._paused = 0.0

    @contextmanager
    def paused(self):
        start = time.perf_counter()
        if self._tracer is not None:
            self._tracer.paused = True
        try:
            yield
        finally:
            if self._tracer is not None:
                self._tracer.paused = False
            self._paused += time.perf_counter() - start

    def elapsed(self) -> float:
        return time.perf_counter() - self._start - self._paused


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)
