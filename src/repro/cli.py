"""Command-line interface: ``expelliarmus`` / ``python -m repro``.

Subcommands:

* ``experiments [ids...]`` — run the paper's tables/figures (default:
  all) and print measured-vs-paper rows;
* ``publish <names...>`` — publish corpus images into a repository
  and report per-image publish statistics;
* ``publish-many [names...]`` — batch-publish a corpus through the
  scale-out pipeline (dedup-aware ordering, aggregated accounting);
  ``--scale N`` publishes an N-VMI generated multi-family corpus;
  ``--parallel N`` splits it into N family-affine shards, run one after
  another and accounted as N overlapped workers (critical path);
* ``retrieve-many [names...]`` — batch-retrieve published VMIs through
  the plan-caching pipeline (base-affine ordering, per-component
  accounting); ``--cold`` serves each request through the sequential
  cache-less assembler for comparison; ``--parallel N`` splits it into
  N base-affine shards, accounted as N overlapped workers;
* ``delete`` — batch-delete VMIs through the maintenance pipeline
  (``--gc-threshold-gb`` interleaves incremental GC passes scheduled
  by the reclaimable-bytes estimate);
* ``gc`` — run one garbage-collection pass (incremental by default,
  ``--full`` for the stop-the-world verification mode), reporting
  reclaimed bytes and the pass's work;
* ``fsck`` — run every repository consistency check and exit non-zero
  on findings — the integrity gate CI and operators script against;
* ``snapshot`` — checkpoint a workspace (snapshot + op-log truncate);
* ``compact`` — garbage-collect a workspace, then checkpoint it;
* ``corpus`` — list the evaluation images and their characteristics;
* ``stats`` — attribute repository storage;
* ``serve`` — run the long-running multi-tenant image server over a
  workspace (or an in-memory store); drains gracefully on SIGTERM;
* ``shutdown`` — ask a remote server to drain and exit.

**Workspaces.**  ``--workspace PATH`` (global, or after any repository
subcommand) makes the command operate on one *durable* store instead
of a throwaway in-process repository: the first command initialises
the directory, every state-changing operation is journaled to its
write-ahead op-log before it applies, and later invocations — other
processes included — reopen the same repository via snapshot + replay.
``publish`` into a workspace in one process, ``retrieve-many`` /
``gc`` / ``fsck`` it in the next.  Without ``--workspace``, the
repository-facing subcommands synthesize a corpus in memory and exit,
exactly as before; with it, corpus synthesis happens only for the
publishing subcommands (``retrieve-many``, ``delete``, ``gc``,
``fsck`` and ``stats`` operate on what the workspace already holds,
and their corpus/churn flags are ignored).

**Remote mode.**  ``--remote HOST:PORT`` points a repository
subcommand at a running ``expelliarmus serve`` daemon instead of a
local store: the same publish / retrieve-many / delete / gc / fsck /
stats / snapshot verbs travel over the image-service protocol, inside
the namespace of ``--tenant`` (default ``default``).  VMIs are named
by corpus reference (the server builds them), admission rejections and
quota errors come back as machine-readable codes, and ``shutdown``
drains the daemon gracefully.  ``--remote`` excludes ``--workspace``
and the local-only execution flags (``--parallel``, ``--cold``,
``--scan``) — the server owns those decisions.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.experiments.runner import ALL_EXPERIMENTS
from repro.units import GB, fmt_gb, fmt_seconds

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expelliarmus",
        description=(
            "Semantics-aware VMI management (IPDPS 2019 reproduction)"
        ),
    )
    parser.add_argument(
        "--workspace",
        metavar="PATH",
        default=None,
        help=(
            "operate on a durable repository at PATH (snapshot + "
            "write-ahead op-log) instead of a throwaway in-memory one"
        ),
    )
    parser.add_argument(
        "--remote",
        metavar="HOST:PORT",
        default=None,
        help=(
            "run the subcommand against a running 'expelliarmus "
            "serve' daemon instead of a local store"
        ),
    )
    parser.add_argument(
        "--shards",
        type=int,
        metavar="N",
        default=None,
        help=(
            "scale the store out to N federated shard repositories "
            "(with --workspace: PATH becomes the federation root "
            "holding shard-NN workspaces; a federation root reopens "
            "with its persisted shard count)"
        ),
    )
    parser.add_argument(
        "--tenant",
        metavar="NAME",
        default="default",
        help="tenant namespace for --remote requests (default: default)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    #: the same flag after the subcommand; SUPPRESS keeps a value
    #: parsed at the top level from being clobbered by this default
    workspace_flags = argparse.ArgumentParser(add_help=False)
    workspace_flags.add_argument(
        "--workspace",
        metavar="PATH",
        default=argparse.SUPPRESS,
        help="durable repository directory (same as the global flag)",
    )
    workspace_flags.add_argument(
        "--shards",
        type=int,
        metavar="N",
        default=argparse.SUPPRESS,
        help="shard-count for a federated store (same as the global flag)",
    )

    #: the remote-mode flags after the subcommand, same SUPPRESS trick
    remote_flags = argparse.ArgumentParser(add_help=False)
    remote_flags.add_argument(
        "--remote",
        metavar="HOST:PORT",
        default=argparse.SUPPRESS,
        help="image-server endpoint (same as the global flag)",
    )
    remote_flags.add_argument(
        "--tenant",
        metavar="NAME",
        default=argparse.SUPPRESS,
        help="tenant namespace (same as the global flag)",
    )

    #: checkpoint policy for the write-path subcommands
    checkpoint_flags = argparse.ArgumentParser(add_help=False)
    checkpoint_flags.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="OPS",
        default=None,
        help=(
            "with --workspace: write a snapshot checkpoint whenever "
            "the op-log exceeds OPS entries (bounds reopen replay "
            "cost; default: journal only)"
        ),
    )

    exp = sub.add_parser(
        "experiments", help="run the paper's tables and figures"
    )
    exp.add_argument(
        "ids",
        nargs="*",
        choices=[*ALL_EXPERIMENTS, []],
        help=f"subset to run (default: all of {', '.join(ALL_EXPERIMENTS)})",
    )
    exp.add_argument(
        "--figures",
        action="store_true",
        help="also render ASCII charts for figure-style results",
    )

    pub = sub.add_parser(
        "publish",
        help="publish corpus images into a repository",
        parents=[workspace_flags, checkpoint_flags, remote_flags],
    )
    pub.add_argument("names", nargs="+", help="corpus image names")

    #: corpus-selection flags shared by the batch subcommands
    corpus_flags = argparse.ArgumentParser(add_help=False)
    corpus_flags.add_argument(
        "names",
        nargs="*",
        help="Table II image names (default: all 19; ignored with --scale)",
    )
    corpus_flags.add_argument(
        "--scale",
        type=int,
        metavar="N",
        help="use an N-VMI generated corpus across --families",
    )
    corpus_flags.add_argument(
        "--families",
        type=int,
        default=8,
        help="OS families of the generated corpus (with --scale)",
    )
    corpus_flags.add_argument(
        "--seed", default="scale", help="generator seed (with --scale)"
    )
    corpus_flags.add_argument(
        "--split-pct",
        type=int,
        default=0,
        metavar="PCT",
        help=(
            "with --scale: put PCT percent of builds on the "
            "generation-B base template, the rest on generation A "
            "(the two-generation regime base mining targets; "
            "implies a fat-free corpus)"
        ),
    )

    many = sub.add_parser(
        "publish-many",
        help="batch-publish a corpus through the scale-out pipeline",
        parents=[
            corpus_flags,
            workspace_flags,
            checkpoint_flags,
            remote_flags,
        ],
    )
    many.add_argument(
        "--order",
        choices=["dedup", "given"],
        default="dedup",
        help="batch ordering (default: dedup-aware)",
    )
    many.add_argument(
        "--scan",
        action="store_true",
        help="paper-literal full-scan base selection (no index)",
    )
    many.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help=(
            "publish through N family-affine shards, modelled as N "
            "overlapped workers (default: sequential pipeline)"
        ),
    )
    many.add_argument(
        "--progress",
        action="store_true",
        help="print one line per published image",
    )

    ret = sub.add_parser(
        "retrieve-many",
        help="batch-retrieve a published corpus with warm plan caches",
        parents=[corpus_flags, workspace_flags, remote_flags],
    )
    ret.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="R",
        help="retrieve every published VMI R times (default: 1)",
    )
    ret.add_argument(
        "--order",
        choices=["affine", "given"],
        default="affine",
        help="batch ordering (default: base-affine)",
    )
    ret.add_argument(
        "--cold",
        action="store_true",
        help="sequential cache-less retrieval (Algorithm 3 per request)",
    )
    ret.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help=(
            "retrieve through N base-affine shards, modelled as N "
            "overlapped workers (default: sequential pipeline)"
        ),
    )
    ret.add_argument(
        "--progress",
        action="store_true",
        help="print one line per retrieved image",
    )

    delete = sub.add_parser(
        "delete",
        help="batch-delete published VMIs (a churn fraction, or "
        "named ones from a workspace)",
        parents=[
            corpus_flags,
            workspace_flags,
            checkpoint_flags,
            remote_flags,
        ],
    )
    delete.add_argument(
        "--churn",
        type=int,
        default=10,
        metavar="PCT",
        help="percent of published VMIs to delete (default: 10)",
    )
    delete.add_argument(
        "--gc-threshold-gb",
        type=float,
        metavar="GB",
        help=(
            "interleave incremental GC whenever reclaimable bytes "
            "cross this threshold (default: defer collection)"
        ),
    )
    delete.add_argument(
        "--progress",
        action="store_true",
        help="print one line per deleted image",
    )
    delete.add_argument(
        "--legacy",
        action="store_true",
        help=(
            "delete the split regime's version-pinned legacy builds "
            "(needs --scale and --split-pct) — the churn that leaves "
            "mergeable generation pairs for 'mine'"
        ),
    )

    gc = sub.add_parser(
        "gc",
        help="run one GC pass (on a workspace, or a churned corpus)",
        parents=[corpus_flags, workspace_flags, remote_flags],
    )
    gc.add_argument(
        "--churn",
        type=int,
        default=10,
        metavar="PCT",
        help="percent of published VMIs to delete first (default: 10)",
    )
    gc.add_argument(
        "--full",
        action="store_true",
        help="stop-the-world verification pass instead of incremental",
    )

    fsck = sub.add_parser(
        "fsck",
        help="run repository consistency checks (non-zero on findings)",
        parents=[corpus_flags, workspace_flags, remote_flags],
    )
    fsck.add_argument(
        "--churn",
        type=int,
        default=0,
        metavar="PCT",
        help=(
            "percent of published VMIs to delete (and GC) before "
            "checking, to exercise the lifecycle (default: 0)"
        ),
    )

    mine = sub.add_parser(
        "mine",
        help="propose mergeable base-image sets (read-only analysis)",
        parents=[corpus_flags, workspace_flags, remote_flags],
    )
    mine.add_argument(
        "--keep-legacy",
        action="store_true",
        help=(
            "fresh-corpus mode: keep the split regime's version-pinned "
            "legacy builds (default: delete them first, the churn that "
            "makes the generation pairs mergeable)"
        ),
    )

    rebase = sub.add_parser(
        "rebase",
        help=(
            "mine and apply base merges as a journaled, "
            "crash-recoverable maintenance operation"
        ),
        parents=[corpus_flags, workspace_flags, remote_flags],
    )
    rebase.add_argument(
        "--keep-legacy",
        action="store_true",
        help=(
            "fresh-corpus mode: keep the version-pinned legacy builds "
            "instead of deleting them before the re-base"
        ),
    )

    sub.add_parser("corpus", help="list the evaluation corpus")

    stats = sub.add_parser(
        "stats",
        help="attribute repository storage (a workspace's, or a "
        "freshly published corpus)",
        parents=[workspace_flags, remote_flags],
    )
    stats.add_argument(
        "names", nargs="*", help="corpus images (default: all 19)"
    )

    sub.add_parser(
        "snapshot",
        help="checkpoint a workspace: write a snapshot, truncate "
        "the op-log",
        parents=[workspace_flags, remote_flags],
    )

    compact = sub.add_parser(
        "compact",
        help="garbage-collect a workspace, then checkpoint it",
        parents=[workspace_flags],
    )
    compact.add_argument(
        "--full",
        action="store_true",
        help="stop-the-world verification GC instead of incremental",
    )

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant image server (drains on SIGTERM)",
        parents=[workspace_flags],
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port (default: 0 = ephemeral; see --port-file)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="request handler threads (default: 4)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        metavar="N",
        help=(
            "admitted requests beyond the executing ones before "
            "'overloaded' rejections start (default: 16)"
        ),
    )
    serve.add_argument(
        "--quota-gb",
        type=float,
        default=None,
        metavar="GB",
        help=(
            "per-tenant logical stored-bytes quota (default: "
            "unlimited)"
        ),
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help=(
            "per-tenant concurrent in-flight request ceiling "
            "(default: unlimited)"
        ),
    )
    serve.add_argument(
        "--checkpoint-idle",
        type=float,
        default=1.0,
        metavar="S",
        help=(
            "with --workspace: checkpoint after S quiet seconds "
            "(default: 1.0; negative disables)"
        ),
    )
    serve.add_argument(
        "--port-file",
        metavar="PATH",
        default=None,
        help="write the bound HOST:PORT to PATH once listening",
    )

    sub.add_parser(
        "shutdown",
        help="drain a remote image server gracefully",
        parents=[remote_flags],
    )
    return parser


def _cmd_experiments(ids: Sequence[str], figures: bool = False) -> int:
    chosen = list(ids) or list(ALL_EXPERIMENTS)
    for key in chosen:
        result = ALL_EXPERIMENTS[key]()
        print(result.render())
        if figures and result.series:
            print()
            print(result.render_figure())
        print()
    return 0


def _make_system(args, **kwargs):
    """An Expelliarmus over the ``--workspace`` store, or a fresh one.

    Opening a workspace replays its write-ahead op-log on top of the
    last snapshot; a fresh directory comes up empty and durable.
    ``--shards N`` swaps in a
    :class:`~repro.repository.federation.FederatedRepository` (same
    facade surface); a workspace that is already a federation root is
    reopened as one even without the flag.
    """
    from pathlib import Path

    from repro.core.system import Expelliarmus

    path = getattr(args, "workspace", None)
    shards = getattr(args, "shards", None)
    if shards is None and path is not None:
        from repro.repository.federation import MANIFEST_NAME

        if (Path(path) / MANIFEST_NAME).exists():
            shards = 0  # sentinel: reopen with the persisted count
    if shards is not None:
        from repro.repository.federation import FederatedRepository

        shards = shards or None
        if path is None:
            return FederatedRepository(shards=shards, **kwargs)
        return FederatedRepository.open(path, shards=shards, **kwargs)
    if path is None:
        return Expelliarmus(**kwargs)
    return Expelliarmus.open(path, **kwargs)


def _finish(system, args) -> None:
    """Honour the checkpoint policy, then detach from the workspace."""
    if system.workspace is not None:
        system.checkpoint_if_due(getattr(args, "checkpoint_every", None))
        system.close()


def _cmd_publish(args) -> int:
    from repro.errors import ReproError
    from repro.workloads.generator import standard_corpus

    corpus = standard_corpus()
    system = _make_system(args)
    try:
        for name in args.names:
            try:
                report = system.publish(corpus.build(name))
            except ReproError as exc:
                print(f"error: {name}: {exc}", file=sys.stderr)
                return 1
            print(
                f"{name}: published in "
                f"{fmt_seconds(report.publish_time)}, "
                f"similarity {report.similarity:.2f}, "
                f"exported {len(report.exported_packages)} packages, "
                f"deduplicated {len(report.deduplicated_packages)}, "
                f"repository now {fmt_gb(system.repository_size)}"
            )
        return 0
    finally:
        _finish(system, args)


def _resolve_corpus(args):
    """The VMIs the shared corpus flags select, or an exit code.

    ``--scale N`` builds an N-VMI generated corpus; otherwise the named
    (default: all) Table II images.  Errors print to stderr and return
    ``2``, the bad-arguments exit code.
    """
    from repro.workloads.generator import scale_corpus, standard_corpus
    from repro.workloads.vmi_specs import TABLE_II_ORDER

    if args.scale is not None:
        overrides = {}
        if getattr(args, "split_pct", 0):
            # the split regime needs the fat flavour off: a fat base
            # conflicts with neither generation and would absorb both
            overrides = {
                "split_base_pct": args.split_pct,
                "fat_base_pct": 0,
            }
        try:
            corpus = scale_corpus(
                args.scale,
                n_families=args.families,
                seed=args.seed,
                **overrides,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return list(corpus.build_all())
    table_corpus = standard_corpus()
    names = args.names or list(TABLE_II_ORDER)
    unknown = [n for n in names if n not in TABLE_II_ORDER]
    if unknown:
        print(
            f"error: unknown corpus image(s): {', '.join(unknown)} "
            f"(see 'expelliarmus corpus')",
            file=sys.stderr,
        )
        return 2
    return [table_corpus.build(name) for name in names]


def _cmd_publish_many(args) -> int:
    if args.parallel is not None and args.parallel < 1:
        print("error: --parallel must be positive", file=sys.stderr)
        return 2
    vmis = _resolve_corpus(args)
    if isinstance(vmis, int):
        return vmis

    system = _make_system(args, indexed_selection=not args.scan)

    def echo_progress(done, total, item):
        status = (
            f"{item.report.publish_time:7.2f}s"
            if item.ok
            else f"FAILED ({item.error})"
        )
        print(f"[{done:>4}/{total}] {item.name:<16} {status}")

    try:
        report = system.publish_many(
            vmis,
            order=args.order,
            progress=echo_progress if args.progress else None,
            parallelism=args.parallel,
        )
        print(report.render())
        return 1 if report.n_failed else 0
    finally:
        _finish(system, args)


def _cmd_retrieve_many(args) -> int:
    if args.repeat < 1:
        print("error: --repeat must be positive", file=sys.stderr)
        return 2
    if args.parallel is not None and args.parallel < 1:
        print("error: --parallel must be positive", file=sys.stderr)
        return 2
    if args.cold and args.parallel is not None:
        print(
            "error: --cold is the sequential cache-less reference; "
            "drop --parallel",
            file=sys.stderr,
        )
        return 2

    if getattr(args, "workspace", None) is not None:
        # retrieve what the workspace already holds — published by an
        # earlier invocation, possibly by another process
        system = _make_system(args)
        published = system.published_names()
        if args.names:
            unknown = [n for n in args.names if n not in published]
            if unknown:
                print(
                    f"error: not published in this workspace: "
                    f"{', '.join(unknown)}",
                    file=sys.stderr,
                )
                _finish(system, args)
                return 2
            targets = list(args.names)
        else:
            targets = published
        if not targets:
            print(
                "error: workspace holds no published VMIs",
                file=sys.stderr,
            )
            _finish(system, args)
            return 2
        print(
            f"workspace holds {len(published)} VMIs "
            f"({system.repository_size / 1e9:.3f} GB); retrieving "
            f"{len(targets)} x{args.repeat}"
        )
        requests = [n for _ in range(args.repeat) for n in targets]
    else:
        vmis = _resolve_corpus(args)
        if isinstance(vmis, int):
            return vmis
        system = _make_system(args)
        published = system.publish_many(vmis)
        if published.n_failed:
            print(published.render(), file=sys.stderr)
            return 1
        print(
            f"published {published.n_published} VMIs "
            f"({system.repository_size / 1e9:.3f} GB); retrieving "
            f"x{args.repeat}"
        )
        requests = [
            r.name
            for _ in range(args.repeat)
            for r in system.repo.vmi_records()
        ]

    try:
        return _run_retrieval(system, requests, args)
    finally:
        _finish(system, args)


def _run_retrieval(system, requests, args) -> int:
    """The shared retrieval body: cold sequential or warm batch."""
    if args.cold:
        from repro.errors import ReproError
        from repro.service.retrieval import components_line
        from repro.sim.clock import TimeBreakdown

        total = TimeBreakdown()
        failed = 0
        for done, name in enumerate(requests, start=1):
            try:
                report = system.retrieve(name)
            except ReproError as exc:
                failed += 1
                if args.progress:
                    print(
                        f"[{done:>4}/{len(requests)}] {name:<16} "
                        f"FAILED ({exc})"
                    )
                continue
            total = total.merged(report.breakdown)
            if args.progress:
                print(
                    f"[{done:>4}/{len(requests)}] {name:<16} "
                    f"{report.retrieval_time:7.2f}s"
                )
        print(
            f"retrieved {len(requests) - failed}/{len(requests)} VMIs "
            f"in {total.total:.1f} simulated s (cold, sequential)"
        )
        print(f"  components: {components_line(total)}")
        return 1 if failed else 0

    def echo_progress(done, total, item):
        status = (
            f"{item.report.retrieval_time:7.2f}s"
            f"{' warm' if item.warm_base else ''}"
            f"{' plan-hit' if item.plan_hit else ''}"
            if item.ok
            else f"FAILED ({item.error})"
        )
        print(f"[{done:>4}/{total}] {item.name:<16} {status}")

    report = system.retrieve_many(
        requests,
        order=args.order,
        progress=echo_progress if args.progress else None,
        parallelism=args.parallel,
    )
    print(report.render())
    return 1 if report.n_failed else 0


def _published_system(args):
    """Publish the selected corpus into a fresh system.

    Returns ``(system, published names)`` or an exit code on failure.
    """
    from repro.core.system import Expelliarmus

    vmis = _resolve_corpus(args)
    if isinstance(vmis, int):
        return vmis
    system = Expelliarmus()
    published = system.publish_many(vmis)
    if published.n_failed:
        print(published.render(), file=sys.stderr)
        return 1
    return system, system.published_names()


def _churn_victims(names, pct: int, seed: str) -> list[str]:
    """A deterministic ``pct``-percent subset of published names."""
    from repro.ids import content_id

    if pct <= 0:
        return []
    quota = max(1, (len(names) * pct + 99) // 100)
    ranked = sorted(
        names, key=lambda n: content_id(f"{seed}/churn/{n}")
    )
    return sorted(ranked[:quota])


def _cmd_delete(args) -> int:
    if getattr(args, "workspace", None) is not None:
        system = _make_system(args)
        names = system.published_names()
        if args.legacy:
            victims = _legacy_victims(args)
            if isinstance(victims, int):
                _finish(system, args)
                return victims
        elif args.names:
            # explicit victims; unknown names surface as per-item
            # failures through the pipeline's isolation
            victims = list(args.names)
        else:
            if not 0 < args.churn <= 100:
                print(
                    "error: --churn must be in (0, 100]",
                    file=sys.stderr,
                )
                _finish(system, args)
                return 2
            victims = _churn_victims(names, args.churn, args.seed)
        print(
            f"workspace holds {len(names)} VMIs "
            f"({system.repository_size / 1e9:.3f} GB); deleting "
            f"{len(victims)}"
        )
    else:
        if not 0 < args.churn <= 100:
            print("error: --churn must be in (0, 100]", file=sys.stderr)
            return 2
        prepared = _published_system(args)
        if isinstance(prepared, int):
            return prepared
        system, names = prepared
        if args.legacy:
            victims = _legacy_victims(args)
            if isinstance(victims, int):
                _finish(system, args)
                return victims
        else:
            victims = _churn_victims(names, args.churn, args.seed)
        print(
            f"published {len(names)} VMIs "
            f"({system.repository_size / 1e9:.3f} GB); deleting "
            f"{len(victims)}"
        )

    def echo_progress(done, total, item):
        status = "deleted" if item.ok else f"FAILED ({item.error})"
        print(f"[{done:>4}/{total}] {item.name:<16} {status}")

    threshold = (
        int(args.gc_threshold_gb * 1e9)
        if args.gc_threshold_gb is not None
        else None
    )
    try:
        report = system.delete_many(
            victims,
            progress=echo_progress if args.progress else None,
            gc_threshold_bytes=threshold,
            checkpoint_every_ops=getattr(args, "checkpoint_every", None),
        )
        print(report.render())
        return 1 if report.n_failed else 0
    finally:
        _finish(system, args)


def _print_gc_report(report) -> None:
    print(
        f"gc ({report.mode}): reclaimed "
        f"{report.reclaimed_bytes / 1e9:.3f} GB — "
        f"{report.removed_packages} packages, "
        f"{report.removed_user_data} user data, "
        f"{report.removed_bases} bases"
    )
    print(
        f"  work: {report.graph_rebuilds} master graphs rebuilt, "
        f"{report.records_scanned} records scanned, "
        f"{report.gc_seconds:.2f} simulated s"
    )


def _cmd_gc(args) -> int:
    if getattr(args, "workspace", None) is not None:
        # collect the workspace's pending garbage — churned by earlier
        # delete invocations, possibly in other processes
        system = _make_system(args)
        try:
            reclaimable = system.repo.reclaimable_bytes()
            print(
                f"workspace holds "
                f"{len(system.published_names())} VMIs; "
                f"{reclaimable / 1e9:.3f} GB reclaimable"
            )
            _print_gc_report(system.garbage_collect(full=args.full))
            return 0
        finally:
            _finish(system, args)

    if not 0 < args.churn <= 100:
        print("error: --churn must be in (0, 100]", file=sys.stderr)
        return 2
    prepared = _published_system(args)
    if isinstance(prepared, int):
        return prepared
    system, names = prepared
    victims = _churn_victims(names, args.churn, args.seed)
    deleted = system.delete_many(victims)
    if deleted.n_failed:
        print(deleted.render(), file=sys.stderr)
        return 1
    reclaimable = system.repo.reclaimable_bytes()
    print(
        f"published {len(names)} VMIs, deleted {len(victims)}; "
        f"{reclaimable / 1e9:.3f} GB reclaimable"
    )
    _print_gc_report(system.garbage_collect(full=args.full))
    return 0


def _cmd_fsck(args) -> int:
    if getattr(args, "workspace", None) is not None:
        # the cross-process integrity gate: check the store exactly as
        # the last invocation left it
        system = _make_system(args)
        try:
            return _print_fsck_report(system.fsck())
        finally:
            _finish(system, args)

    if not 0 <= args.churn <= 100:
        print("error: --churn must be in [0, 100]", file=sys.stderr)
        return 2
    prepared = _published_system(args)
    if isinstance(prepared, int):
        return prepared
    system, names = prepared
    if args.churn:
        victims = _churn_victims(names, args.churn, args.seed)
        system.delete_many(victims)
        system.garbage_collect()
    return _print_fsck_report(system.fsck())


def _print_fsck_report(report) -> int:
    if report.clean:
        print(
            f"repository clean: {report.checked_blobs} blobs, "
            f"{report.checked_vmis} VMIs checked"
        )
        return 0
    print(
        f"{len(report.findings)} inconsistencies found:",
        file=sys.stderr,
    )
    for finding in report.findings:
        print(f"  {finding}", file=sys.stderr)
    return 1


def _legacy_victims(args):
    """The split regime's version-pinned legacy builds, or exit 2."""
    from repro.workloads.generator import scale_corpus

    if args.scale is None or not getattr(args, "split_pct", 0):
        print(
            "error: --legacy selects the generated corpus's "
            "version-pinned builds; it needs --scale and --split-pct",
            file=sys.stderr,
        )
        return 2
    corpus = scale_corpus(
        args.scale,
        n_families=args.families,
        seed=args.seed,
        split_base_pct=args.split_pct,
        fat_base_pct=0,
    )
    return list(corpus.legacy_names())


def _maintenance_system(args):
    """The system mine/rebase operates on, or an exit code.

    Workspace mode opens the existing store exactly as earlier
    invocations left it.  Otherwise the selected corpus is published
    fresh and, in the split regime, its version-pinned legacy builds
    are deleted first — the churn that strands mergeable generation
    pairs for the miner to find.
    """
    if getattr(args, "workspace", None) is not None:
        return _make_system(args)
    prepared = _published_system(args)
    if isinstance(prepared, int):
        return prepared
    system, names = prepared
    if (
        args.scale is not None
        and getattr(args, "split_pct", 0)
        and not args.keep_legacy
    ):
        victims = _legacy_victims(args)
        assert not isinstance(victims, int)
        deleted = system.delete_many(victims)
        print(
            f"published {len(names)} VMIs, deleted "
            f"{deleted.n_deleted} legacy build(s)"
        )
    return system


def _cmd_mine(args) -> int:
    prepared = _maintenance_system(args)
    if isinstance(prepared, int):
        return prepared
    system = prepared
    try:
        print(system.mine_bases().render())
        return 0
    finally:
        _finish(system, args)


def _cmd_rebase(args) -> int:
    prepared = _maintenance_system(args)
    if isinstance(prepared, int):
        return prepared
    system = prepared
    try:
        print(system.rebase().render())
        return 0
    finally:
        _finish(system, args)


def _cmd_corpus() -> int:
    from repro.workloads.generator import standard_corpus
    from repro.workloads.vmi_specs import TABLE_II_ORDER

    corpus = standard_corpus()
    print(f"{'name':<15} {'primaries':>9} {'mounted':>9} {'files':>8}")
    for name in TABLE_II_ORDER:
        vmi = corpus.build(name)
        spec = corpus.spec(name)
        print(
            f"{name:<15} {len(spec.primaries):>9} "
            f"{vmi.mounted_size / GB:>8.3f}G {vmi.n_files:>8}"
        )
    return 0


def _cmd_stats(args) -> int:
    from repro.analysis.storage_report import storage_report
    from repro.workloads.generator import standard_corpus
    from repro.workloads.vmi_specs import TABLE_II_ORDER

    system = _make_system(args)
    try:
        if getattr(args, "workspace", None) is None:
            corpus = standard_corpus()
            for name in args.names or TABLE_II_ORDER:
                system.publish(corpus.build(name))
        from repro.repository.federation import FederatedRepository

        if isinstance(system, FederatedRepository):
            _print_federation_stats(system)
        else:
            report = storage_report(system.repo)
            _print_stats(report)
        return 0
    finally:
        _finish(system, args)


def _print_federation_stats(fed) -> None:
    print(
        f"federation: {fed.n_shards} shard(s), "
        f"{len(fed.published_names())} published VMIs, "
        f"{fmt_gb(fed.total_bytes())} logical "
        f"({fmt_gb(fed.physical_bytes())} across shard disks)"
    )
    for index, size in enumerate(fed.shard_bytes()):
        n_vmis = len(fed.systems[index].repo.vmi_records())
        print(
            f"  shard-{index:02d}: {fmt_gb(size)}, {n_vmis} VMI(s)"
        )
    print("\nbase-image index (family -> home shard):")
    for family, shard in sorted(fed.base_index.items()):
        print(f"  {family[0]}/{family[1]:<24} shard-{shard:02d}")


def _print_stats(report) -> None:
    print(f"repository: {fmt_gb(report.total_bytes)} across "
          f"{report.n_vmis} published VMIs")
    print(f"  base images : {fmt_gb(report.base_bytes)}")
    print(f"  packages    : {fmt_gb(report.package_bytes)} "
          f"({len(report.packages)} stored, sharing factor "
          f"{report.sharing_factor:.2f})")
    print(f"  user data   : {fmt_gb(report.data_bytes)}")
    print("\nlargest stored packages:")
    for pkg in report.top_packages(8):
        print(f"  {pkg.name:<28} {pkg.deb_size / 1e6:8.1f} MB  "
              f"referenced by {pkg.ref_count} VMI(s)")
    print("\nmost shared packages:")
    for pkg in report.most_shared(8):
        print(f"  {pkg.name:<28} x{pkg.ref_count:<3} "
              f"amortized {pkg.amortized_size / 1e6:.1f} MB/VMI")


def _is_federation_root(path) -> bool:
    from pathlib import Path

    from repro.repository.federation import MANIFEST_NAME

    return (Path(path) / MANIFEST_NAME).exists()


def _require_workspace(args) -> str | None:
    path = getattr(args, "workspace", None)
    if path is None:
        print(
            f"error: {args.command} requires --workspace",
            file=sys.stderr,
        )
    return path


def _cmd_snapshot(args) -> int:
    if _require_workspace(args) is None:
        return 2
    system = _make_system(args)
    try:
        ops = system.workspace.ops_since_checkpoint
        size = system.save()
        print(
            f"checkpoint written: {size / 1e6:.2f} MB snapshot, "
            f"{ops} journaled op(s) folded in; next reopen replays 0"
        )
        return 0
    finally:
        _finish(system, args)


def _cmd_compact(args) -> int:
    if _require_workspace(args) is None:
        return 2
    system = _make_system(args)
    try:
        _print_gc_report(system.garbage_collect(full=args.full))
        size = system.save()
        print(
            f"checkpoint written: {size / 1e6:.2f} MB snapshot, "
            f"op-log truncated"
        )
        return 0
    finally:
        _finish(system, args)


def _cmd_serve(args) -> int:
    """Run the image server until a drain (SIGTERM / remote shutdown).

    A second daemon pointed at the same workspace fails fast with the
    holder's pid on stderr (the workspace's advisory lock), exit 1 —
    never a traceback.
    """
    import signal

    from repro.service.server import ImageServer, ServerConfig
    from repro.service.tenancy import TenantQuota

    if args.workers < 1:
        print("error: --workers must be positive", file=sys.stderr)
        return 2
    if args.queue_limit < 0:
        print(
            "error: --queue-limit must be non-negative",
            file=sys.stderr,
        )
        return 2
    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        default_quota=TenantQuota(
            max_bytes=(
                int(args.quota_gb * 1e9)
                if args.quota_gb is not None
                else None
            ),
            max_inflight=args.max_inflight,
        ),
        checkpoint_idle_s=(
            None
            if args.checkpoint_idle < 0
            else args.checkpoint_idle
        ),
    )
    path = getattr(args, "workspace", None)
    shards = getattr(args, "shards", None)
    if shards is not None or (
        path is not None and _is_federation_root(path)
    ):
        # the daemon fronts a federation: same protocol, N shards
        server = ImageServer(_make_system(args), config)
    elif path is not None:
        server = ImageServer.for_workspace(path, config)
    else:
        from repro.core.system import Expelliarmus

        server = ImageServer(Expelliarmus(), config)
    host, port = server.start()
    print(f"listening on {host}:{port}", flush=True)
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8") as fh:
            fh.write(f"{host}:{port}\n")

    def _on_signal(signum, frame):
        server.request_shutdown()

    try:
        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)
    except ValueError:
        # not the main thread (in-process tests drive the lifecycle
        # through the protocol's shutdown op instead)
        pass
    server.wait()
    server.stop()
    print(
        f"drained: {server.requests_served} request(s) served",
        flush=True,
    )
    return 0


# ---------------------------------------------------------------------------
# remote mode: the same verbs against a running daemon
# ---------------------------------------------------------------------------


def _remote_source_items(args):
    """(source descriptor, item list) from the corpus flags, or ``2``.

    Remote publishes ship corpus *references*; the daemon builds the
    images (the corpora are pure functions of their configuration).
    """
    from repro.service.protocol import scale_source, table2_source
    from repro.workloads.vmi_specs import TABLE_II_ORDER

    if getattr(args, "scale", None) is not None:
        if args.scale < 1:
            print("error: --scale must be positive", file=sys.stderr)
            return 2
        return (
            scale_source(
                args.scale,
                n_families=args.families,
                seed=args.seed,
            ),
            list(range(args.scale)),
        )
    names = list(getattr(args, "names", None) or TABLE_II_ORDER)
    unknown = [n for n in names if n not in TABLE_II_ORDER]
    if unknown:
        print(
            f"error: unknown corpus image(s): {', '.join(unknown)} "
            f"(see 'expelliarmus corpus')",
            file=sys.stderr,
        )
        return 2
    return table2_source(), names


def _remote_publish(client, args) -> int:
    from repro.service.protocol import table2_source

    for name in args.names:
        result = client.publish(table2_source(), name)
        print(
            f"{name}: published as {result['name']} in "
            f"{fmt_seconds(result['simulated_seconds'])}, "
            f"similarity {result['similarity']:.2f}, "
            f"exported {result['exported_packages']} packages, "
            f"deduplicated {result['deduplicated_packages']}"
        )
    return 0


def _remote_publish_many(client, args) -> int:
    prepared = _remote_source_items(args)
    if isinstance(prepared, int):
        return prepared
    source, items = prepared
    result = client.publish_many(source, items)
    for row in result["results"]:
        if "error" in row:
            print(
                f"  {row['item']}: FAILED "
                f"({row['error']['code']}: "
                f"{row['error']['message']})",
                file=sys.stderr,
            )
        elif args.progress:
            print(
                f"  {row['item']}: {row['name']} "
                f"{row['simulated_seconds']:7.2f}s"
            )
    print(
        f"published {result['n_published']}/{result['n_items']} "
        f"VMIs in {result['simulated_seconds']:.1f} simulated s "
        f"(remote, tenant {client.tenant!r})"
    )
    return 1 if result["n_failed"] else 0


def _remote_retrieve_many(client, args) -> int:
    if args.repeat < 1:
        print("error: --repeat must be positive", file=sys.stderr)
        return 2
    names = list(args.names) if args.names else None
    retrieved = failed = 0
    simulated = 0.0
    for _ in range(args.repeat):
        result = client.retrieve_many(names)
        retrieved += result["n_retrieved"]
        failed += result["n_failed"]
        simulated += result["simulated_seconds"]
        for row in result["results"]:
            if "error" in row:
                print(
                    f"  {row['name']}: FAILED "
                    f"({row['error']['code']}: "
                    f"{row['error']['message']})",
                    file=sys.stderr,
                )
            elif args.progress:
                print(
                    f"  {row['name']}: "
                    f"{row['simulated_seconds']:7.2f}s "
                    f"digest {row['manifest_digest'][:12]}"
                )
    print(
        f"retrieved {retrieved}/{retrieved + failed} VMIs in "
        f"{simulated:.1f} simulated s (remote, tenant "
        f"{client.tenant!r})"
    )
    return 1 if failed else 0


def _remote_delete(client, args) -> int:
    if not args.names:
        print(
            "error: remote delete needs explicit image names "
            "(churn selection is a local-store feature)",
            file=sys.stderr,
        )
        return 2
    result = client.delete_many(list(args.names))
    for row in result["results"]:
        if "error" in row:
            print(
                f"  {row['name']}: FAILED "
                f"({row['error']['code']}: "
                f"{row['error']['message']})",
                file=sys.stderr,
            )
        elif args.progress:
            print(f"  {row['name']}: deleted")
    print(
        f"deleted {result['n_deleted']}/{result['n_items']} VMIs "
        f"(remote, tenant {client.tenant!r})"
    )
    return 1 if result["n_failed"] else 0


def _remote_gc(client, args) -> int:
    result = client.gc(full=args.full)
    print(
        f"gc ({result['mode']}): reclaimed "
        f"{result['reclaimed_bytes'] / 1e9:.3f} GB — "
        f"{result['removed_packages']} packages, "
        f"{result['removed_user_data']} user data, "
        f"{result['removed_bases']} bases"
    )
    print(
        f"  work: {result['graph_rebuilds']} master graphs rebuilt, "
        f"{result['records_scanned']} records scanned, "
        f"{result['simulated_seconds']:.2f} simulated s"
    )
    return 0


def _remote_fsck(client, args) -> int:
    result = client.fsck()
    if result["clean"]:
        print(
            f"repository clean: {result['checked_blobs']} blobs, "
            f"{result['checked_vmis']} VMIs checked"
        )
        return 0
    print(
        f"{len(result['findings'])} inconsistencies found:",
        file=sys.stderr,
    )
    for finding in result["findings"]:
        print(f"  {finding}", file=sys.stderr)
    return 1


def _remote_stats(client, args) -> int:
    result = client.stats()
    repo = result["repository"]
    print(
        f"repository: {fmt_gb(repo['total_bytes'])} across "
        f"{repo['n_vmis']} published VMIs"
    )
    for kind, n_bytes in sorted(repo["bytes_by_kind"].items()):
        print(f"  {kind:<12}: {fmt_gb(n_bytes)}")
    print("\ntenants:")
    for name, usage in sorted(result["tenants"].items()):
        limit = (
            fmt_gb(usage["max_bytes"])
            if usage["max_bytes"] is not None
            else "unlimited"
        )
        print(
            f"  {name:<16} {fmt_gb(usage['bytes_stored'])} of "
            f"{limit}, {usage['published']} image(s), "
            f"{usage['requests']} request(s), "
            f"{usage['quota_rejections'] + usage['busy_rejections']}"
            f" rejection(s)"
        )
    server = result["server"]
    print(
        f"\nserver: {server['admitted']} admitted, "
        f"{server['rejected']} rejected (overload), peak "
        f"{server['peak_active']}/{server['workers']}+"
        f"{server['queue_limit']} in flight, "
        f"{server['idle_checkpoints']} idle checkpoint(s)"
    )
    return 0


def _remote_snapshot(client, args) -> int:
    result = client.checkpoint()
    if not result["checkpointed"]:
        print(
            f"error: server did not checkpoint "
            f"({result['reason']})",
            file=sys.stderr,
        )
        return 1
    print(
        f"checkpoint written: "
        f"{result['snapshot_bytes'] / 1e6:.2f} MB snapshot, "
        f"{result['ops_folded']} journaled op(s) folded in"
    )
    return 0


def _remote_shutdown(client, args) -> int:
    client.shutdown()
    print(f"server at {client.host}:{client.port} is draining")
    return 0


_REMOTE_DISPATCH = {
    "publish": _remote_publish,
    "publish-many": _remote_publish_many,
    "retrieve-many": _remote_retrieve_many,
    "delete": _remote_delete,
    "gc": _remote_gc,
    "fsck": _remote_fsck,
    "stats": _remote_stats,
    "snapshot": _remote_snapshot,
    "shutdown": _remote_shutdown,
}


def _dispatch_remote(args) -> int:
    """Route one CLI invocation to a remote daemon.

    Typed service errors come back as machine-readable one-liners
    (``error [code]: message``) with exit 1; flag combinations that
    only make sense against a local store exit 2.
    """
    from repro.errors import ReproError
    from repro.service.client import RemoteClient

    if getattr(args, "workspace", None) is not None:
        print(
            "error: --remote and --workspace are exclusive (the "
            "daemon owns the store)",
            file=sys.stderr,
        )
        return 2
    for flag in ("parallel", "cold", "scan", "shards", "split_pct"):
        if getattr(args, flag, None):
            print(
                f"error: --{flag.replace('_', '-')} is a "
                "local-execution flag; the server decides its own "
                "execution strategy",
                file=sys.stderr,
            )
            return 2
    handler = _REMOTE_DISPATCH.get(args.command)
    if handler is None:
        print(
            f"error: {args.command!r} cannot run remotely",
            file=sys.stderr,
        )
        return 2
    try:
        client = RemoteClient.connect(args.remote, tenant=args.tenant)
    except (OSError, ReproError) as exc:
        print(
            f"error: cannot reach image server at {args.remote!r}: "
            f"{exc}",
            file=sys.stderr,
        )
        return 1
    try:
        with client:
            return handler(client, args)
    except ReproError as exc:
        code = getattr(exc, "code", None)
        label = f"error [{code}]" if code else "error"
        print(f"{label}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(
            f"error: connection to {args.remote} failed: {exc}",
            file=sys.stderr,
        )
        return 1


def main(argv: Sequence[str] | None = None) -> int:
    from repro.errors import WorkspaceError

    args = build_parser().parse_args(argv)
    shards = getattr(args, "shards", None)
    if shards is not None and shards < 1:
        print("error: --shards must be positive", file=sys.stderr)
        return 2
    dispatch = {
        "publish": _cmd_publish,
        "publish-many": _cmd_publish_many,
        "retrieve-many": _cmd_retrieve_many,
        "delete": _cmd_delete,
        "gc": _cmd_gc,
        "fsck": _cmd_fsck,
        "mine": _cmd_mine,
        "rebase": _cmd_rebase,
        "stats": _cmd_stats,
        "snapshot": _cmd_snapshot,
        "compact": _cmd_compact,
        "serve": _cmd_serve,
    }
    if getattr(args, "remote", None) is not None:
        return _dispatch_remote(args)
    if args.command == "shutdown":
        print(
            "error: shutdown requires --remote HOST:PORT",
            file=sys.stderr,
        )
        return 2
    try:
        if args.command == "experiments":
            return _cmd_experiments(args.ids, figures=args.figures)
        if args.command == "corpus":
            return _cmd_corpus()
        if args.command in dispatch:
            return dispatch[args.command](args)
    except WorkspaceError as exc:
        # a broken, mismatched or (for serve) already-locked durable
        # store is an operator error, not a crash: one line on stderr
        # — a WorkspaceLockedError's line names the holding pid
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
