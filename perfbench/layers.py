"""Which public functions count as which layer, and the per-layer table.

``install(tracer)`` wraps every layer boundary listed in
:data:`BOUNDARIES`; ``per_layer_metrics`` turns the tracer's span
totals plus the zero-cost counters a workload read from the program's
public report and stats objects into the named per-layer metrics of
``BENCHMARK.json``.  Timings are self time in ms per end-to-end
operation unless the metric's description in ``workloads.json`` says
otherwise.  A layer a workload does not load reads 0.
"""

from __future__ import annotations

import importlib

__all__ = [
    "BOUNDARIES",
    "IDLE_SPANS",
    "install",
    "per_layer_metrics",
    "span_table",
    "unit_of",
]

_DATABASE_CALLS = (
    "insert_base_image", "delete_base_image", "base_images",
    "base_images_with_attrs", "base_image_count", "insert_package",
    "has_package", "packages_named", "all_packages", "package_count",
    "insert_vmi", "update_vmi_base", "get_vmi", "vmis", "vmis_for_base",
    "delete_vmi", "delete_package", "vmi_package_keys",
    "all_vmi_package_keys", "replace_vmi_packages",
)

#: (module, class or None for a module attribute, attribute, span name)
BOUNDARIES: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.core.analyzer", "SemanticAnalyzer", "analyze",
     "analyzer.analyze"),
    # Algorithm 2 is called through the publisher module's own binding
    ("repro.core.publisher", None, "select_base_image",
     "base_selection.select"),
    ("repro.core.publisher", "VMIPublisher", "publish",
     "publisher.publish"),
    ("repro.repository.master_graphs", "MasterGraph",
     "add_primary_subgraph", "master_graphs.add_primary"),
    ("repro.repository.master_graphs", "MasterGraph",
     "extract_primary_subgraph", "master_graphs.extract"),
    *(("repro.repository.database", "MetadataDatabase", call,
       "database.call") for call in _DATABASE_CALLS),
    *(("repro.repository.repo", "Repository", call, "repo.store")
      for call in ("store_package", "store_user_data",
                   "store_base_image", "record_vmi")),
    *(("repro.repository.repo", "Repository", call, "repo.delete")
      for call in ("delete_vmi_record", "remove_package",
                   "remove_user_data", "remove_base_image")),
    ("repro.core.assembly_plan", "AssemblyPlanner", "assemble",
     "assembly_plan.assemble"),
    ("repro.core.assembler", "VMIAssembler", "retrieve",
     "assembler.retrieve"),
    ("repro.service.parallel", "ParallelPublisher", "publish_many",
     "executor.batch"),
    ("repro.service.parallel", "ParallelRetriever", "retrieve_many",
     "executor.batch"),
    ("repro.service.batch", "BatchPublisher", "publish_many",
     "executor.batch"),
    ("repro.service.retrieval", "BatchRetriever", "retrieve_many",
     "executor.batch"),
    ("repro.service.protocol", None, "encode_frame", "protocol.encode"),
    ("repro.service.protocol", None, "_recv_exact", "protocol.recv_wait"),
    # the server binds recv_message by name; its self time excludes
    # the socket wait above, leaving header + JSON decode
    ("repro.service.server", None, "recv_message", "protocol.decode"),
    ("repro.service.server", "ImageServer", "handle_message",
     "server.handle"),
    ("repro.repository.locking", "RepositoryLock", "acquire_read",
     "locking.read_wait"),
    ("repro.repository.locking", "RepositoryLock", "acquire_write",
     "locking.write_wait"),
    ("repro.image.builder", "ImageBuilder", "build", "builder.build"),
    ("repro.repository.oplog", "OpLog", "append", "oplog.append"),
    ("repro.repository.workspace", "Workspace", "load",
     "workspace.load"),
    ("repro.repository.workspace", "Workspace", "checkpoint",
     "workspace.checkpoint"),
    ("repro.repository.gc", "GarbageCollector", "collect", "gc.collect"),
    ("repro.analysis.mining", "BaseMiner", "mine", "mining.mine"),
    ("repro.service.rebase", "RebaseService", "run", "rebase.run"),
)

#: spans that wait for the next request rather than serve one
IDLE_SPANS = frozenset({"protocol.recv_wait"})

#: spans whose result size is recorded (bytes of the encoded frame)
_MEASURED = {"protocol.encode": len}


def install(tracer) -> None:
    """Wrap every boundary; undo with ``tracer.uninstall()``."""
    for module_name, class_name, attr, span in BOUNDARIES:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(
            module, class_name
        )
        tracer.wrap(owner, attr, span, _MEASURED.get(span))


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if name.endswith("_ms") or name.endswith("ms_per_op"):
        return "ms"
    if "bytes" in name:
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("per_op") or name == "assembly_plan.invalidations":
        return "1/op"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    summary: dict, counters: dict, n_ops: int, parallelism: int
) -> dict[str, float]:
    """The named per-layer metrics of one traced pass.

    ``summary`` is :meth:`spans.Tracer.summary` over the timed phases,
    ``counters`` the zero-cost counters the workload collected (keys
    as in ``workloads.json``), ``n_ops`` the end-to-end operations the
    timed phases completed and ``parallelism`` the worker count of the
    batch executor (1 when it runs sequentially).
    """
    spans = summary["spans"]

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0.0)

    def self_ms(name: str) -> float:
        return _ratio(span(name, "self_s") * 1e3, n_ops)

    def total_ms(name: str) -> float:
        return _ratio(span(name, "total_s") * 1e3, n_ops)

    c = counters.get
    item_s = span("publisher.publish", "total_s") + span(
        "assembly_plan.assemble", "total_s"
    )
    batch_s = span("executor.batch", "total_s")
    overhead_s = (
        max(batch_s - item_s / max(parallelism, 1), 0.0)
        if batch_s else 0.0
    )
    handle_ms = total_ms("server.handle")
    return {
        "analyzer.analyze_ms": self_ms("analyzer.analyze"),
        "base_selection.select_ms": self_ms("base_selection.select"),
        "base_selection.candidates_per_call": _ratio(
            c("selection.candidates", 0), c("selection.calls", 0)
        ),
        "base_selection.compat_hit_ratio": _ratio(
            c("selection.compat_cache_hits", 0),
            c("selection.compat_checks", 0),
        ),
        "publisher.publish_self_ms": self_ms("publisher.publish"),
        "master_graphs.add_primary_ms": self_ms(
            "master_graphs.add_primary"
        ),
        "master_graphs.extract_ms": self_ms("master_graphs.extract"),
        "database.calls_per_op": _ratio(
            span("database.call", "calls"), n_ops
        ),
        "database.ms_per_op": self_ms("database.call"),
        "repo.store_ms": self_ms("repo.store"),
        "repo.delete_ms": self_ms("repo.delete"),
        "assembly_plan.assemble_ms": self_ms("assembly_plan.assemble"),
        "assembly_plan.plan_hit_ratio": _ratio(
            c("planner.plan_hits", 0), c("planner.requests", 0)
        ),
        "assembly_plan.warm_base_hit_ratio": _ratio(
            c("planner.base_cache_hits", 0),
            c("planner.base_cache_hits", 0) + c("planner.base_copies", 0),
        ),
        "assembly_plan.invalidations": _ratio(
            c("planner.plan_invalidations", 0), n_ops
        ),
        "assembler.retrieve_ms": self_ms("assembler.retrieve"),
        "executor.batch_overhead_ms": _ratio(overhead_s * 1e3, n_ops),
        "protocol.encode_ms": self_ms("protocol.encode"),
        "protocol.decode_ms": self_ms("protocol.decode"),
        "protocol.response_bytes": _ratio(
            span("protocol.encode", "amount"),
            span("protocol.encode", "calls"),
        ),
        "server.handle_ms": handle_ms,
        "server.wire_ms": (
            max(c("client.rtt_ms", 0.0) - handle_ms, 0.0)
            if handle_ms else 0.0
        ),
        "server.owners_json_bytes": c("server.owners_json_bytes", 0),
        "admission.peak_active": c("admission.peak_active", 0),
        "admission.rejected": c("admission.rejected", 0),
        "locking.read_wait_ms": total_ms("locking.read_wait"),
        "locking.write_wait_ms": total_ms("locking.write_wait"),
        "builder.build_ms": self_ms("builder.build"),
        "oplog.append_ms": self_ms("oplog.append"),
        "oplog.records_per_op": _ratio(c("oplog.records", 0), n_ops),
        "oplog.bytes_per_op": _ratio(c("oplog.bytes", 0), n_ops),
        "workspace.load_ms": self_ms("workspace.load"),
        "workspace.replay_ops": _ratio(
            c("workspace.replayed_ops", 0), c("workspace.reopens", 0)
        ),
        "workspace.checkpoint_ms": self_ms("workspace.checkpoint"),
        "workspace.snapshot_bytes": _ratio(
            c("workspace.snapshot_bytes", 0), c("workspace.checkpoints", 0)
        ),
        "gc.collect_ms": self_ms("gc.collect"),
        "gc.records_scanned": _ratio(
            c("gc.records_scanned", 0), c("gc.passes", 0)
        ),
        "gc.graph_rebuilds": _ratio(
            c("gc.graph_rebuilds", 0), c("gc.passes", 0)
        ),
        "gc.reclaimed_bytes": _ratio(
            c("gc.reclaimed_bytes", 0), c("gc.passes", 0)
        ),
        "mining.mine_ms": self_ms("mining.mine"),
        "mining.candidates": _ratio(
            c("mining.candidates", 0), c("mining.passes", 0)
        ),
        "rebase.run_ms": self_ms("rebase.run"),
        "rebase.bytes_saved": _ratio(
            c("rebase.bytes_saved", 0), c("rebase.passes", 0)
        ),
    }


def span_table(summary: dict, n_ops: int) -> list[str]:
    """Human-readable span table: calls, self ms/op, share of busy."""
    busy = summary["busy_s"]
    rows = sorted(
        summary["spans"].items(),
        key=lambda kv: kv[1]["self_s"],
        reverse=True,
    )
    lines = [
        f"  {'span':<28} {'calls':>9} {'self ms/op':>11} "
        f"{'total ms/op':>12} {'busy %':>7}"
    ]
    for name, s in rows:
        lines.append(
            f"  {name:<28} {s['calls']:>9} "
            f"{_ratio(s['self_s'] * 1e3, n_ops):>11.4f} "
            f"{_ratio(s['total_s'] * 1e3, n_ops):>12.4f} "
            f"{100 * _ratio(s['self_s'], busy):>7.2f}"
        )
    lines.append(
        f"  busy: {busy:.3f} s over {summary['threads']} thread(s)"
    )
    return lines
