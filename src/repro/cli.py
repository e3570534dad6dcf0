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
local store: the same publish / publish-many / retrieve-many / delete
/ gc / fsck / stats / snapshot verbs travel over the image-service
protocol, inside the namespace of ``--tenant`` (default ``default``).
Each verb is one ``_cmd_*`` function for both modes: the corpus flags
select one ``(source, items)`` reference that a local run builds and a
remote run ships (the server builds the images), and a local report
and a remote reply print through the same printer.  Admission
rejections and quota errors come back as machine-readable codes, and
``shutdown`` drains the daemon gracefully.  One rule guards against
silently ignored flags: ``--remote`` excludes ``--workspace``, and any
argument set away from its default that the remote verb does not send
(``--parallel``, ``--order``, ``--churn``, ``--checkpoint-every``, a
corpus flag of a verb that ships none, ...) exits 2 as a
local-execution flag — the server owns those decisions.  ``mine``,
``rebase``, ``compact`` and ``serve`` run locally only.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
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

    #: the remote-mode flags after the subcommand, same SUPPRESS trick;
    #: a verb runs remotely iff its parser takes them
    remote_flags = argparse.ArgumentParser(add_help=False)
    remote_flags.set_defaults(remote_verb=True)
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
        parents=[corpus_flags, workspace_flags],
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
        parents=[corpus_flags, workspace_flags],
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


class _CommandError(Exception):
    """An operator error: one line on stderr, then exit ``code`` (2 for
    bad arguments, 1 for a failed operation) — never a traceback."""

    def __init__(
        self, message: str, code: int = 2, label: str = "error"
    ) -> None:
        super().__init__(message)
        self.code = code
        self.label = label


def _positive(value, flag: str) -> None:
    if value is not None and value < 1:
        raise _CommandError(f"{flag} must be positive")


def _cmd_experiments(args) -> int:
    for key in args.ids or ALL_EXPERIMENTS:
        result = ALL_EXPERIMENTS[key]()
        print(result.render())
        if args.figures and result.series:
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

    path = args.workspace
    shards = args.shards
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


@contextmanager
def _session(args, **kwargs):
    """The verb's system (:func:`_make_system`); on leaving, the
    checkpoint policy runs and the workspace is released."""
    system = _make_system(args, **kwargs)
    try:
        yield system
    finally:
        if system.workspace is not None:
            system.checkpoint_if_due(getattr(args, "checkpoint_every", None))
            system.close()


def _require_workspace(args) -> None:
    if args.workspace is None:
        raise _CommandError(f"{args.command} requires --workspace")


# ---------------------------------------------------------------------------
# corpus selection: one (source, items) reference, local or remote
# ---------------------------------------------------------------------------


def _corpus_reference(args) -> tuple[dict, list]:
    """The ``(source, items)`` reference the corpus flags select: what
    a remote publish ships, and what a local command builds.  Verbs
    without the corpus flags (``publish``, ``stats``) name Table II
    images."""
    from repro.errors import ProtocolError
    from repro.service.protocol import select_corpus

    try:
        if getattr(args, "scale", None) is None:
            return select_corpus(args.names)
        return select_corpus(
            args.names,
            args.scale,
            n_families=args.families,
            seed=args.seed,
            split_pct=args.split_pct,
        )
    except ProtocolError as exc:
        raise _CommandError(str(exc)) from exc


def _corpus_vmis(args) -> list:
    """Build the VMIs the corpus flags select, in this process."""
    from repro.service.protocol import build_item, open_corpus, source_config

    source, items = _corpus_reference(args)
    corpus = open_corpus(source_config(source))
    return [build_item(corpus, item) for item in items]


@contextmanager
def _local_system(args):
    """The system a local verb runs on, the names it holds, and a
    phrase saying what it holds: the ``--workspace`` store exactly as
    earlier invocations left it, or else the selected corpus, freshly
    published into a throwaway store."""
    with _session(args) as system:
        held = "workspace holds"
        if args.workspace is None:
            published = system.publish_many(_corpus_vmis(args))
            if published.n_failed:
                raise _CommandError(
                    "the corpus did not publish cleanly\n"
                    f"{published.render()}",
                    1,
                )
            held = "published"
        names = system.published_names()
        yield system, names, (
            f"{held} {len(names)} VMIs "
            f"({system.repository_size / 1e9:.3f} GB)"
        )


def _check_churn(args, *, allow_zero: bool = False) -> None:
    if not (0 if allow_zero else 1) <= args.churn <= 100:
        interval = "[0, 100]" if allow_zero else "(0, 100]"
        raise _CommandError(f"--churn must be in {interval}")


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


def _legacy_victims(args) -> list[str]:
    """The split regime's version-pinned legacy builds."""
    from repro.service.protocol import open_corpus, source_config

    if args.scale is None or not args.split_pct:
        raise _CommandError(
            "--legacy selects the generated corpus's version-pinned "
            "builds; it needs --scale and --split-pct"
        )
    source, _ = _corpus_reference(args)
    return list(open_corpus(source_config(source)).legacy_names())


# ---------------------------------------------------------------------------
# remote mode: the same verbs against a running daemon
# ---------------------------------------------------------------------------


def _unsent_arg(args, sent) -> str | None:
    """The first argument set away from its parser default that the
    remote verb does not send, or None."""
    argv = [args.command, *(args.names if "names" in sent else ())]
    defaults = vars(build_parser().parse_args(argv))
    for dest, value in vars(args).items():
        if dest not in sent and value != defaults[dest]:
            return dest
    return None


@contextmanager
def _remote(args, *sent):
    """A client connected to ``--remote`` for a verb that sends the
    arguments ``sent``.

    ``--workspace``, and any argument set away from its default that
    the verb does not send, exit 2: the server owns those decisions.
    Typed service errors exit 1 as ``error [code]: message``.
    """
    from repro.errors import ReproError
    from repro.service.client import RemoteClient

    if args.workspace is not None:
        raise _CommandError(
            "--remote and --workspace are exclusive (the daemon owns "
            "the store)"
        )
    unsent = _unsent_arg(
        args, {"command", "remote", "tenant", "workspace", *sent}
    )
    if unsent == "names":
        raise _CommandError(f"remote {args.command} takes no image names")
    if unsent is not None:
        raise _CommandError(
            f"--{unsent.replace('_', '-')} is a local-execution flag; "
            f"remote {args.command} does not send it — the server "
            "decides its own execution strategy"
        )
    try:
        client = RemoteClient.connect(args.remote, tenant=args.tenant)
    except (OSError, ReproError) as exc:
        raise _CommandError(
            f"cannot reach image server at {args.remote!r}: {exc}", 1
        ) from exc
    try:
        with client:
            yield client
    except ReproError as exc:
        code = getattr(exc, "code", None)
        label = f"error [{code}]" if code else "error"
        raise _CommandError(str(exc), 1, label) from exc
    except OSError as exc:
        raise _CommandError(
            f"connection to {args.remote} failed: {exc}", 1
        ) from exc


# ---------------------------------------------------------------------------
# printers: one per result, local or remote
# ---------------------------------------------------------------------------


def _print_item(done, total, name, seconds=None, note="", *, error=None):
    """One batch item's row, for every batch verb, local or remote: a
    progress line, or a failure on stderr."""
    if error is not None:
        print(
            f"[{done:>4}/{total}] {name!s:<16} FAILED ({error})",
            file=sys.stderr,
        )
        return
    timing = "" if seconds is None else f"{seconds:7.2f}s"
    print(f"[{done:>4}/{total}] {name!s:<16} {timing}{note}")


def _echo(args, status):
    """A local pipeline's progress callback (None without
    ``--progress``); ``status(item)`` gives a finished item's
    ``(seconds, note)``."""
    if not args.progress:
        return None

    def echo(done, total, item):
        if item.ok:
            _print_item(done, total, item.name, *status(item))
        else:
            _print_item(done, total, item.name, error=item.error)

    return echo


def _print_remote_batch(args, verb, replies, status) -> int:
    """The rows and summary line of remote batch replies: failed rows
    always, the others with ``--progress``; ``status(row)`` gives a
    finished row's ``(seconds, note)``."""
    from repro.service.executor import summary_line

    rows = [row for reply in replies for row in reply["results"]]
    done = [row for row in rows if "error" not in row]
    for position, row in enumerate(rows, start=1):
        # a publish row names its corpus item, and its image once built
        name = row.get("name", row.get("item"))
        error = row.get("error")
        if error is not None:
            _print_item(
                position,
                len(rows),
                name,
                error=f"{error['code']}: {error['message']}",
            )
        elif args.progress:
            _print_item(position, len(rows), name, *status(row))
    seconds = sum((row["simulated_seconds"] for row in done), 0.0)
    print(
        f"{summary_line(verb, len(done), len(rows), seconds)} "
        f"(remote, tenant {args.tenant!r})"
    )
    return 1 if len(done) < len(rows) else 0


def _print_published(label, result, repository_bytes=None) -> None:
    stored = result.get("stored_name", result["name"])
    line = (
        f"{label}: published{'' if stored == label else ' as ' + stored} "
        f"in {fmt_seconds(result['simulated_seconds'])}, "
        f"similarity {result['similarity']:.2f}, "
        f"exported {result['exported_packages']} packages, "
        f"deduplicated {result['deduplicated_packages']}"
    )
    if repository_bytes is not None:
        line += f", repository now {fmt_gb(repository_bytes)}"
    print(line)


def _print_gc(result) -> int:
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


def _print_fsck(result) -> int:
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


def _print_checkpoint(result) -> int:
    if not result["checkpointed"]:
        raise _CommandError(
            f"server did not checkpoint ({result['reason']})", 1
        )
    print(
        f"checkpoint written: {result['snapshot_bytes'] / 1e6:.2f} MB "
        f"snapshot, {result['ops_folded']} journaled op(s) folded in, "
        "op-log truncated"
    )
    return 0


def _print_repository(total_bytes: int, n_vmis: int) -> None:
    print(f"repository: {fmt_gb(total_bytes)} across {n_vmis} published VMIs")


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------


def _cmd_publish(args) -> int:
    from repro.errors import ReproError
    from repro.service.protocol import publish_reply

    if args.remote is not None:
        source, items = _corpus_reference(args)
        with _remote(args, "names") as client:
            for item in items:
                _print_published(item, client.publish(source, item))
        return 0
    vmis = _corpus_vmis(args)
    with _session(args) as system:
        for name, vmi in zip(args.names, vmis):
            charge = vmi.mounted_size
            try:
                report = system.publish(vmi)
            except ReproError as exc:
                raise _CommandError(f"{name}: {exc}", 1) from exc
            _print_published(
                name,
                publish_reply(report, charge),
                system.repository_size,
            )
    return 0


def _cmd_publish_many(args) -> int:
    _positive(args.parallel, "--parallel")
    if args.remote is not None:
        source, items = _corpus_reference(args)
        sent = ("names", "scale", "families", "seed", "split_pct", "progress")
        with _remote(args, *sent) as client:
            reply = client.publish_many(source, items)
        return _print_remote_batch(
            args,
            "published",
            [reply],
            lambda row: (row["simulated_seconds"], ""),
        )
    vmis = _corpus_vmis(args)
    with _session(args, indexed_selection=not args.scan) as system:
        report = system.publish_many(
            vmis,
            order=args.order,
            progress=_echo(args, lambda item: (item.report.publish_time, "")),
            parallelism=args.parallel,
        )
    print(report.render())
    return 1 if report.n_failed else 0


def _cmd_retrieve_many(args) -> int:
    _positive(args.repeat, "--repeat")
    _positive(args.parallel, "--parallel")
    if args.remote is not None:
        with _remote(args, "names", "repeat", "progress") as client:
            replies = [
                client.retrieve_many(args.names or None)
                for _ in range(args.repeat)
            ]
        return _print_remote_batch(
            args,
            "retrieved",
            replies,
            lambda row: (
                row["simulated_seconds"],
                f" digest {row['manifest_digest'][:12]}",
            ),
        )
    if args.cold and args.parallel is not None:
        raise _CommandError(
            "--cold is the sequential cache-less reference; drop "
            "--parallel"
        )
    with _local_system(args) as (system, names, held):
        targets = names
        if args.workspace is not None:
            # retrieve what the workspace already holds — published by
            # an earlier invocation, possibly by another process
            unknown = [n for n in args.names if n not in names]
            if unknown:
                raise _CommandError(
                    "not published in this workspace: "
                    f"{', '.join(unknown)}"
                )
            targets = list(args.names) or names
        if not targets:
            raise _CommandError("workspace holds no published VMIs")
        print(f"{held}; retrieving {len(targets)} x{args.repeat}")
        requests = [n for _ in range(args.repeat) for n in targets]
        return _run_retrieval(system, requests, args)


def _run_retrieval(system, requests, args) -> int:
    """The local retrieval body: cold sequential or warm batch."""
    if not args.cold:
        report = system.retrieve_many(
            requests,
            order=args.order,
            progress=_echo(
                args,
                lambda item: (
                    item.report.retrieval_time,
                    f"{' warm' if item.warm_base else ''}"
                    f"{' plan-hit' if item.plan_hit else ''}",
                ),
            ),
            parallelism=args.parallel,
        )
        print(report.render())
        return 1 if report.n_failed else 0

    from repro.errors import ReproError
    from repro.service.executor import summary_line
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
                _print_item(done, len(requests), name, error=exc)
            continue
        total = total.merged(report.breakdown)
        if args.progress:
            _print_item(done, len(requests), name, report.retrieval_time)
    n_served = len(requests) - failed
    print(
        f"{summary_line('retrieved', n_served, len(requests), total.total)}"
        " (cold, sequential)"
    )
    print(f"  components: {components_line(total)}")
    return 1 if failed else 0


def _cmd_delete(args) -> int:
    if args.remote is not None:
        if not args.names:
            raise _CommandError(
                "remote delete needs explicit image names (churn "
                "selection is a local-store feature)"
            )
        with _remote(args, "names", "progress") as client:
            reply = client.delete_many(args.names)
        return _print_remote_batch(
            args, "deleted", [reply], lambda row: (None, "deleted")
        )
    # explicit victims from a workspace; unknown names surface as
    # per-item failures through the pipeline's isolation
    explicit = args.workspace is not None and bool(args.names)
    victims = _legacy_victims(args) if args.legacy else None
    if victims is None and not explicit:
        _check_churn(args)
    with _local_system(args) as (system, names, held):
        if victims is None:
            victims = (
                list(args.names)
                if explicit
                else _churn_victims(names, args.churn, args.seed)
            )
        print(f"{held}; deleting {len(victims)}")
        report = system.delete_many(
            victims,
            progress=_echo(args, lambda item: (None, "deleted")),
            gc_threshold_bytes=(
                None
                if args.gc_threshold_gb is None
                else int(args.gc_threshold_gb * 1e9)
            ),
            checkpoint_every_ops=args.checkpoint_every,
        )
    print(report.render())
    return 1 if report.n_failed else 0


def _cmd_gc(args) -> int:
    from repro.service.protocol import gc_reply

    if args.remote is not None:
        with _remote(args, "full") as client:
            return _print_gc(client.gc(full=args.full))
    if args.workspace is None:
        _check_churn(args)
    with _local_system(args) as (system, names, held):
        if args.workspace is None:
            victims = _churn_victims(names, args.churn, args.seed)
            deleted = system.delete_many(victims)
            if deleted.n_failed:
                raise _CommandError(
                    f"the churn did not delete cleanly\n{deleted.render()}",
                    1,
                )
            held += f", deleted {len(victims)}"
        # in a workspace: the pending garbage of earlier deletes,
        # possibly made by other processes
        print(
            f"{held}; {system.repo.reclaimable_bytes() / 1e9:.3f} GB "
            "reclaimable"
        )
        return _print_gc(gc_reply(system.garbage_collect(full=args.full)))


def _cmd_fsck(args) -> int:
    from repro.service.protocol import fsck_reply

    if args.remote is not None:
        with _remote(args) as client:
            return _print_fsck(client.fsck())
    if args.workspace is None:
        _check_churn(args, allow_zero=True)
    # in a workspace, the cross-process integrity gate: the store is
    # checked exactly as the last invocation left it
    with _local_system(args) as (system, names, _):
        if args.workspace is None and args.churn:
            system.delete_many(_churn_victims(names, args.churn, args.seed))
            system.garbage_collect()
        return _print_fsck(fsck_reply(system.fsck()))


@contextmanager
def _maintenance_system(args):
    """The system mine/rebase operates on (:func:`_local_system`); a
    fresh split-regime corpus has its version-pinned legacy builds
    deleted first — the churn that strands mergeable generation pairs
    for the miner to find."""
    with _local_system(args) as (system, _, held):
        if (
            args.workspace is None
            and args.scale is not None
            and args.split_pct
            and not args.keep_legacy
        ):
            deleted = system.delete_many(_legacy_victims(args))
            print(f"{held}, deleted {deleted.n_deleted} legacy build(s)")
        yield system


def _cmd_mine(args) -> int:
    with _maintenance_system(args) as system:
        print(system.mine_bases().render())
    return 0


def _cmd_rebase(args) -> int:
    with _maintenance_system(args) as system:
        print(system.rebase().render())
    return 0


def _cmd_corpus(args) -> int:
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
    if args.remote is not None:
        with _remote(args) as client:
            _print_server_stats(client.stats())
        return 0
    from repro.analysis.storage_report import storage_report
    from repro.repository.federation import FederatedRepository

    with _local_system(args) as (system, _, _):
        if isinstance(system, FederatedRepository):
            _print_federation_stats(system)
        else:
            _print_stats(storage_report(system.repo))
    return 0


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
    _print_repository(report.total_bytes, report.n_vmis)
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


def _print_server_stats(result) -> None:
    repo = result["repository"]
    _print_repository(repo["total_bytes"], repo["n_vmis"])
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


def _cmd_snapshot(args) -> int:
    from repro.service.protocol import checkpoint_reply

    if args.remote is not None:
        with _remote(args) as client:
            return _print_checkpoint(client.checkpoint())
    _require_workspace(args)
    with _session(args) as system:
        return _print_checkpoint(checkpoint_reply(system))


def _cmd_compact(args) -> int:
    from repro.service.protocol import checkpoint_reply, gc_reply

    _require_workspace(args)
    with _session(args) as system:
        _print_gc(gc_reply(system.garbage_collect(full=args.full)))
        return _print_checkpoint(checkpoint_reply(system))


def _cmd_shutdown(args) -> int:
    if args.remote is None:
        raise _CommandError("shutdown requires --remote HOST:PORT")
    with _remote(args) as client:
        client.shutdown()
    print(f"server at {client.host}:{client.port} is draining")
    return 0


def _cmd_serve(args) -> int:
    """Run the image server until a drain (SIGTERM / remote shutdown).

    A second daemon pointed at the same workspace fails fast with the
    holder's pid on stderr (the workspace's advisory lock), exit 1 —
    never a traceback.
    """
    import signal

    from repro.service.server import ImageServer, ServerConfig
    from repro.service.tenancy import TenantQuota

    _positive(args.workers, "--workers")
    if args.queue_limit < 0:
        raise _CommandError("--queue-limit must be non-negative")
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
    # a workspace, a federation (same protocol, N shards) or memory
    server = ImageServer(_make_system(args), config)
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


_VERBS = {
    "experiments": _cmd_experiments,
    "publish": _cmd_publish,
    "publish-many": _cmd_publish_many,
    "retrieve-many": _cmd_retrieve_many,
    "delete": _cmd_delete,
    "gc": _cmd_gc,
    "fsck": _cmd_fsck,
    "mine": _cmd_mine,
    "rebase": _cmd_rebase,
    "corpus": _cmd_corpus,
    "stats": _cmd_stats,
    "snapshot": _cmd_snapshot,
    "compact": _cmd_compact,
    "serve": _cmd_serve,
    "shutdown": _cmd_shutdown,
}


def main(argv: Sequence[str] | None = None) -> int:
    from repro.errors import WorkspaceError

    args = build_parser().parse_args(argv)
    try:
        _positive(args.shards, "--shards")
        # a verb runs remotely iff its parser takes the remote flags
        if args.remote is not None and not getattr(args, "remote_verb", False):
            raise _CommandError(f"{args.command!r} cannot run remotely")
        return _VERBS[args.command](args)
    except _CommandError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.code
    except WorkspaceError as exc:
        # a broken, mismatched or (for serve) already-locked durable
        # store is an operator error, not a crash: one line on stderr
        # — a WorkspaceLockedError's line names the holding pid
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
