"""Workload ``serve-read``: a read-mostly mix against a live daemon.

The image server runs in its own process (``daemon.py``) over a
durable workspace with one worker per CPU.  The load generator opens
one connection per tenant, as many tenants as CPUs, and drives each
closed-loop: a tenant sends its next request only after the previous
reply.  Each tenant follows its own op schedule, generated from the
seed before timing: about 90% retrieve with skewed popularity (older
images are requested far more often), 8% publish of a new corpus item,
2% delete.  Tenants publish only lean-base builds, so Algorithm 2
never replaces a base and every retrieval has one right answer: the
digest a plain sequential system returns for that item.

An *epoch* starts a fresh daemon (set-up: spawn, preload each tenant,
run a warm-up slice of the schedule, checkpoint explicitly so the idle
checkpoint timer has nothing to fold later), then times the mix for
its share of the requested seconds, then checks fsck over the wire
and drains the daemon.  Three epochs run.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    CorrectnessError,
    Run,
    nproc,
    work_dir,
)

HERE = Path(__file__).resolve().parent
N_POOL = 8000
N_FAMILIES = 8
PRELOAD_PER_TENANT = 150
WARMUP_OPS = 200
EPOCHS = 3
RETRIEVE_SHARE = 0.90
PUBLISH_SHARE = 0.08
#: popularity skew: the k-th oldest live image is picked with
#: probability density ~ (k / n) ** (1 / SKEW - 1)
SKEW = 3.0
MIN_LIVE = 40
#: schedule length per tenant and timed second (far above any rate
#: seen on the reference host, so a schedule never runs dry)
OPS_PER_SECOND_CAP = 2500
START_TIMEOUT_S = 60.0


def _tenant_items(n_tenants: int, seed: int) -> list[list[int]]:
    """Each tenant's corpus items: lean-base builds only."""
    from repro.workloads.scale import scale_corpus

    corpus = scale_corpus(N_POOL, n_families=N_FAMILIES, seed=_tag(seed))
    lean = [i for i in range(N_POOL) if not corpus.spec(i).fat_base]
    return [lean[t::n_tenants] for t in range(n_tenants)]


def _tag(seed: int) -> str:
    return f"serve-{seed}"


def _schedule(items: list[int], length: int, rng: random.Random):
    """One tenant's op list: (op, item) pairs, state simulated ahead."""
    live = list(items[:PRELOAD_PER_TENANT])
    fresh = iter(items[PRELOAD_PER_TENANT:])
    ops = []
    for _ in range(length):
        x = rng.random()
        if x < RETRIEVE_SHARE:
            ops.append(("retrieve", live[int(len(live) * rng.random() ** SKEW)]))
        elif x < RETRIEVE_SHARE + PUBLISH_SHARE or len(live) <= MIN_LIVE:
            item = next(fresh)
            live.append(item)
            ops.append(("publish", item))
        else:
            ops.append(("delete", live.pop(rng.randrange(len(live)))))
    return ops


def _name(item: int) -> str:
    return f"vmi-{item:05d}"


class _Tenant:
    """One closed-loop client and what it observed."""

    def __init__(self, client, source: dict, ops) -> None:
        self.client = client
        self.source = source
        self.ops = ops
        self.position = 0
        #: (op, seconds, response or None on error, item) per request
        self.samples: list[tuple[str, float, dict | None, int]] = []
        self.errors: list[str] = []
        self.crash: BaseException | None = None

    def call(self, op: str, item: int) -> dict:
        if op == "retrieve":
            return self.client.retrieve(_name(item))
        if op == "publish":
            return self.client.publish(self.source, item)
        return self.client.delete(_name(item))

    def drive(self, stop_at: float | None, count: int | None) -> None:
        """Run the schedule until ``stop_at`` (perf_counter) or for
        ``count`` ops; every reply is awaited before the next send."""
        from repro.errors import ReproError

        end = len(self.ops) if count is None else self.position + count
        try:
            while self.position < end:
                if stop_at is not None and time.perf_counter() >= stop_at:
                    return
                op, item = self.ops[self.position]
                self.position += 1
                start = time.perf_counter()
                try:
                    response = self.call(op, item)
                except ReproError as exc:
                    elapsed = time.perf_counter() - start
                    self.errors.append(f"{op} {item}: {exc}")
                    response = None
                else:
                    elapsed = time.perf_counter() - start
                self.samples.append((op, elapsed, response, item))
            if count is None:
                raise RuntimeError("op schedule ran dry")
        except Exception as exc:  # re-raised by _drive_all
            self.crash = exc


def _drive_all(tenants, stop_at=None, count=None) -> float:
    threads = [
        threading.Thread(target=t.drive, args=(stop_at, count))
        for t in tenants
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    for tenant in tenants:
        if tenant.crash is not None:
            raise tenant.crash
    return elapsed


class _Daemon:
    """The server process of one epoch."""

    def __init__(self, root: Path, workers: int, trace: bool) -> None:
        root.mkdir(parents=True)
        self.workspace = root / "ws"
        self.port_file = root / "port"
        self.report_file = root / "report.json"
        self.log_file = root / "daemon.log"
        command = [
            sys.executable, str(HERE / "daemon.py"),
            "--workspace", str(self.workspace),
            "--workers", str(workers),
            "--port-file", str(self.port_file),
            "--report", str(self.report_file),
        ]
        if trace:
            command.append("--trace")
        with open(self.log_file, "wb") as log:
            self.proc = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT
            )

    def endpoint(self) -> tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT_S
        while not self.port_file.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    "daemon failed to start:\n" + self.log_file.read_text()
                )
            time.sleep(0.005)
        host, _, port = self.port_file.read_text().strip().rpartition(":")
        return host, int(port)

    def finish(self) -> dict:
        """Wait for the drained process; its exit report."""
        if self.proc.wait(timeout=START_TIMEOUT_S) != 0:
            raise RuntimeError(
                "daemon exited with an error:\n" + self.log_file.read_text()
            )
        return json.loads(self.report_file.read_text())

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def _reference(seed: int, items) -> dict[int, tuple[str, int]]:
    """(manifest digest, mounted size) of every item as a plain
    sequential system retrieves it."""
    from repro.core.system import Expelliarmus
    from repro.service.protocol import manifest_digest
    from repro.workloads.scale import scale_corpus

    corpus = scale_corpus(N_POOL, n_families=N_FAMILIES, seed=_tag(seed))
    system = Expelliarmus()
    for item in items:
        system.publish(corpus.build(item))
    expected = {}
    for item in items:
        vmi = system.retrieve(_name(item)).vmi
        expected[item] = (manifest_digest(vmi.full_manifest()),
                          vmi.mounted_size)
    return expected


def _epoch(root, seed, schedules, items, epoch_s, result, trace, observed):
    """One daemon lifetime; returns its peak RSS (MB) and, traced, the
    span summary of its timed window."""
    from repro.service.client import RemoteClient
    from repro.service.protocol import scale_source

    source = scale_source(N_POOL, N_FAMILIES, _tag(seed))
    workers = nproc()
    gc.collect()  # earlier debris is not collected inside the timing
    result.host.sample(4)
    start = time.perf_counter()
    daemon = _Daemon(root, workers, trace)
    clients = []
    try:
        host, port = daemon.endpoint()
        tenants = []
        for t, ops in enumerate(schedules):
            client = RemoteClient(host, port, tenant=f"tenant-{t}")
            clients.append(client)
            preload = items[t][:PRELOAD_PER_TENANT]
            for i in range(0, len(preload), 50):
                report = client.publish_many(source, preload[i:i + 50])
                if report["n_failed"]:
                    raise CorrectnessError("preload publish failed")
            tenants.append(_Tenant(client, source, ops))
        _drive_all(tenants, count=WARMUP_OPS)
        clients[0].checkpoint()
        result.add_setup(time.perf_counter() - start)
        # storage is measured at this fixed point of the schedule: the
        # content-addressed store holds the same bytes whatever the
        # tenants' interleaving, so the ratio repeats for one seed
        stats = clients[0].stats()
        mounted = sum(t["bytes_stored"] for t in stats["tenants"].values())
        result.ratio_samples.append(
            stats["repository"]["total_bytes"] / mounted
        )
        warmup = [t.samples for t in tenants]
        for tenant in tenants:
            tenant.samples = []

        gc.collect()
        clients[0].call("ping", bench="start")
        elapsed = _drive_all(
            tenants, stop_at=time.perf_counter() + epoch_s
        )
        clients[0].call("ping", bench="end")
        # the epoch's timings scale by the samples on both sides of it
        result.host.sample(4)
        result.add_timed(elapsed, recent=8)

        stats = clients[0].stats()
        fsck = clients[0].fsck()
        workspace_files = {
            p.name: p.stat().st_size for p in daemon.workspace.iterdir()
        }
        clients[0].shutdown()
        report = daemon.finish()
    finally:
        for client in clients:
            client.close()
        daemon.kill()

    if not fsck["clean"]:
        raise CorrectnessError(f"fsck over the wire not clean: {fsck}")
    rtts = []
    for tenant, warm in zip(tenants, warmup):
        if tenant.errors:
            result.notes.append(f"errors: {tenant.errors[:3]}")
        if any(response is None for _, _, response, _ in warm):
            raise CorrectnessError(f"set-up request failed: {tenant.errors}")
        for op, seconds, response, item in warm + tenant.samples:
            if response is not None and op == "retrieve":
                observed.setdefault(item, set()).add(
                    (response["manifest_digest"], response["mounted_size"])
                )
        for op, seconds, response, item in tenant.samples:
            result.attempted += 1
            rtts.append(seconds)
            if response is None:
                result.failed += 1
                continue
            if op == "retrieve":
                result.retrieved += 1
                result.add_retrieve(seconds, recent=8)
                result.sim_retrieve.append(response["simulated_seconds"])
            elif op == "publish":
                result.published += 1
                result.add_publish(seconds, recent=8)
                result.sim_publish.append(response["simulated_seconds"])
    server = stats["server"]
    result.counters["admission.peak_active"] = max(
        result.counters.get("admission.peak_active", 0),
        server["peak_active"],
    )
    result.count("admission.rejected", server["rejected"])
    result.count("oplog.records", stats["workspace"]["ops_since_checkpoint"])
    result.count("oplog.bytes", workspace_files.get("oplog.bin", 0))
    result.counters["server.owners_json_bytes"] = workspace_files[
        "owners.json"
    ]
    result.count("client.rtt_s", sum(rtts))
    result.count("client.requests", len(rtts))
    for key, value in (report["selection"] or {}).items():
        result.count(f"selection.{key}", value)
    return report["peak_rss_kb"] / 1024.0, report["trace"]


def run(seed: int, seconds: float, tracer=None) -> tuple[Run, int]:
    from spans import merge_summaries

    n_tenants = nproc()
    items = _tenant_items(n_tenants, seed)
    length = WARMUP_OPS + int(OPS_PER_SECOND_CAP * seconds / EPOCHS) + 1
    schedules = [
        _schedule(items[t], length, random.Random(f"{_tag(seed)}/{t}"))
        for t in range(n_tenants)
    ]
    root = work_dir("serve")
    result = Run()
    observed: dict[int, set] = {}
    rss, traces = [], []
    for epoch in range(EPOCHS):
        peak, trace = _epoch(
            root / f"e{epoch}", seed, schedules, items, seconds / EPOCHS,
            result, tracer is not None, observed,
        )
        rss.append(peak)
        if trace is not None:
            traces.append(trace)
    # the daemon's memory, not the load generator's
    result.rss_mb = statistics.median(rss)
    # round trips overlap across tenants: the rates are replies per
    # second of the timed phases, not per second spent inside calls
    result.publish_call_s = result.retrieve_call_s = result.timed_s
    requests = result.counters.pop("client.requests")
    result.counters["client.rtt_ms"] = (
        result.counters.pop("client.rtt_s") * 1e3 / requests
    )
    if traces:
        result.trace = merge_summaries(traces)
    reference = _reference(seed, sorted(observed))
    for item, seen in observed.items():
        if seen != {reference[item]}:
            raise CorrectnessError(
                f"{_name(item)} retrieved over the wire as {sorted(seen)} "
                f"does not match the sequential reference {reference[item]}"
            )
    result.notes.append(
        f"{EPOCHS} epochs, {n_tenants} tenant(s) closed-loop against "
        f"{nproc()} worker(s); {len(observed)} distinct images checked"
    )
    return result, 1
