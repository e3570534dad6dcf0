"""The repository write-ahead op-log.

A snapshot alone makes durability *expensive*: every publish would have
to re-serialise the whole repository to survive a crash.  The op-log
makes it cheap — the repository journals each state-changing primitive
(store/remove/record/delete/reassign/repoint/master-put/master-member/
dirty marks) *before* applying it, and reopening a workspace is

    last snapshot  +  replay of the ops appended since,

so reopen cost is O(ops since checkpoint), not O(repository).

Master graphs are journaled two ways, both by reference
(:class:`~repro.model.graph.GraphRefs`): each vertex payload is the
blob key of a package the repository stores or the master's base owns
at that point of the log, so replay reads it back from the repository
it is rebuilding (:meth:`Repository.package_resolver`), and a payload
neither holds is written by value.  A publish into a stored master
appends ``add_master_member``: the upload's primary subgraph, its name
and the master's resulting revision, so the record's size follows the
upload.  Whole-master rewrites (a new master, base replacement, GC
rebuilds, rebase, federation rebalance) append ``put_master_graph``
with the master's :class:`~repro.repository.master_graphs.MasterRefs`.
The ``store_*`` records carry their new content by value: until the
next checkpoint writes it to the content file
(:mod:`repro.repository.persistence`), the record is its only copy.

Format versions.  This build writes header version 2.  It reads
version 1 logs too, whose master records hold package graphs by value,
and it continues appending to such a log (in the records above) until
the next checkpoint starts a version 2 log; replay tells the two record
forms apart by type.  A build that predates version 2 refuses a version
2 header, and a record naming ``GraphRefs`` or ``MasterRefs`` as an
unloadable record, with ``WorkspaceError`` before changing any file.
Packages pickle as calls of ``repro.model.package._unpickle_package``
and file manifests as calls of
``repro.image.manifest._unpickle_sized_manifest`` (see DESIGN.md §11);
older records holding packages as dicts, manifests as three numpy
arrays, or manifests as calls of ``_unpickle_manifest`` (no total)
replay unchanged.

A replayed record unpickles its payload on its own, so a replayed VMI
record is pointed at the strings the repository already holds
(:class:`HeldPayloads`): its name at its master's member entry, its
primary identities at the held packages', its data label at the held
user data's — so the next checkpoint pickles each once.

Log layout: one header record naming the op-log format version and the
``mutations`` counter of the snapshot this log continues from (so a
mismatched snapshot/op-log pair is detected instead of replayed), then
one pickled ``(op, args)`` record per journaled primitive.  Ops are the
repository's own public method names with their call arguments, so
replay is a dispatch loop over the same primitives that produced the
state — there is no second implementation of the mutation semantics to
drift.

Crash consistency: records are flushed per append and applied to the
repository only after the append returns, so the log always describes
at least the state the repository reached.  A crash mid-append leaves a
*torn tail* — a final, partially written record.  Readers stop at the
last complete record and report the torn bytes; reopening for append
truncates them, which is exactly the classic WAL recovery contract:
an operation whose journal record never became durable never happened.
A checkpoint replaces the snapshot before it starts a fresh log
(:meth:`OpLog.create`, itself atomic), so a crash between the two
leaves a log whose header names an older ``mutations`` count than the
snapshot's: it is subsumed, and reopening starts a fresh one.  The
content its ``store_*`` records carried is in the content file by then,
since the checkpoint appends it before it replaces the snapshot.

Like snapshots, the log is pickle-based and must only be read from
trusted sources (it is produced and consumed by the same application).
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.errors import WorkspaceError
from repro.model.graph import GraphRefs, SemanticGraph
from repro.repository.master_graphs import (
    MasterRefs,
    master_from_refs,
    master_from_state,
)
from repro.repository.persistence import replace_atomically
from repro.repository.repo import Repository, VMIRecord

__all__ = [
    "HeldPayloads",
    "OpLog",
    "OpLogRecord",
    "ReplayReport",
    "UNLOADABLE",
    "replay_ops",
    "unloadable_error",
]

_OPLOG_VERSION = 2
#: header versions this build replays (1: master records by value)
_READABLE_VERSIONS = (1, 2)

#: what unpickling a *complete* record raises when it names a module or
#: class this process cannot import.  Pickle's length-prefixed strings
#: make a torn record fail with ``EOFError``/``UnpicklingError`` instead,
#: so these are never mistaken for a torn tail.
UNLOADABLE = (ImportError, AttributeError)


def unloadable_error(where: object, exc: BaseException) -> WorkspaceError:
    """The error for a stored record naming a class this process lacks.

    Loading must stop there and leave the files as they are: a record
    that cannot be read now may be readable by a process that has the
    class, so it is neither torn nor disposable.
    """
    hint = ""
    if isinstance(exc, ImportError) and (exc.name or "").startswith(
        "networkx"
    ):
        hint = (
            "; it was written while semantic graphs wrapped networkx:"
            " install networkx to open it once, and its next"
            " checkpoint rewrites it without"
        )
    return WorkspaceError(
        f"{where} holds a record this process cannot load ({exc}){hint}"
    )

#: the primitives the replayer understands — exactly the journaled
#: surface of :class:`~repro.repository.repo.Repository`
_REPLAYABLE_OPS = frozenset({
    "store_package",
    "store_user_data",
    "store_base_image",
    "remove_package",
    "remove_user_data",
    "remove_base_image",
    "record_vmi",
    "delete_vmi_record",
    "reassign_vmi_packages",
    "repoint_vmis",
    "put_master_graph",
    "add_master_member",
    "mark_base_dirty",
    "clear_base_dirty",
})


@dataclass(frozen=True)
class OpLogRecord:
    """One journaled primitive: the op name and its call arguments."""

    op: str
    args: tuple


@dataclass(frozen=True)
class ReplayReport:
    """What reading (and replaying) one op-log found."""

    #: ``mutations`` counter of the snapshot the log continues from
    snapshot_mutations: int
    #: complete records read, in append order
    ops: tuple[OpLogRecord, ...]
    #: bytes of a torn tail record (crash mid-append); 0 when clean
    torn_bytes: int

    @property
    def n_ops(self) -> int:
        return len(self.ops)


class HeldPayloads:
    """What a replay points unpickled VMI records at: the masters'
    member names, the held packages' identity tuples and the held user
    data's labels.

    Each op-log record unpickles on its own, so a replayed record's
    strings are copies; pointing them at the held ones keeps the
    sharing a live session has, and the next checkpoint pickles each
    once.  The identity index is built on first use, and grows by the
    identities the replay meets.
    """

    def __init__(self, repo: Repository) -> None:
        self._repo = repo
        self._identities: dict[tuple, tuple] | None = None
        self._strings: dict[str, str] = {}

    def _identity(self, identity: tuple) -> tuple:
        """The held identity tuple equal to ``identity``; one not held
        yet joins the index over held strings, so later records of the
        same replay share it."""
        held = self._identities.get(identity)
        if held is None:
            strings = self._strings
            held = tuple(strings.setdefault(text, text) for text in identity)
            self._identities[held] = held
        return held

    def record(self, rec: VMIRecord) -> VMIRecord:
        """``rec`` over held strings: its name the entry of its
        master's members, its primary identities (and names) the held
        packages' identity tuples, its data label the held user
        data's."""
        if self._identities is None:
            self._identities = {}
            for pkg in self._repo.packages():
                self._identities.setdefault(pkg.identity, pkg.identity)
                for text in pkg.identity:
                    self._strings.setdefault(text, text)
        identities = tuple(map(self._identity, rec.primary_identities))
        names = {i[0]: i[0] for i in identities}
        name = rec.name
        master = self._repo.find_master_graph(rec.base_key)
        if master is not None:
            name = next(
                (n for n in reversed(master.member_vmis) if n == name), name
            )
        label = rec.data_label
        if label is not None and self._repo.has_user_data(label):
            label = self._repo.get_user_data(label).label
        return dataclasses.replace(
            rec,
            name=name,
            primary_names=tuple(names.get(n, n) for n in rec.primary_names),
            data_label=label,
            primary_identities=identities,
        )


def apply_op(
    repo: Repository,
    record: OpLogRecord,
    held: HeldPayloads | None = None,
) -> None:
    """Apply one journaled primitive to a repository.

    ``held`` lets a run of records share one :class:`HeldPayloads`
    (built here when omitted).

    Raises:
        WorkspaceError: an op name outside the journaled surface.
    """
    if record.op not in _REPLAYABLE_OPS:
        raise WorkspaceError(f"unknown op-log operation {record.op!r}")
    if record.op == "put_master_graph":
        (state,) = record.args
        if isinstance(state, MasterRefs):
            master = master_from_refs(
                repo.get_base_image(state.base_key),
                state,
                repo.package_resolver(state.base_key),
            )
        else:  # a version 1 record: the graph by value
            master = master_from_state(
                repo.get_base_image(state["base_key"]), state
            )
        repo.put_master_graph(master)
        return
    if record.op == "add_master_member":
        base_key, subgraph, *rest = record.args
        if isinstance(subgraph, GraphRefs):
            subgraph = SemanticGraph.from_refs(
                subgraph, repo.package_resolver(base_key)
            )
        repo.add_master_member(base_key, subgraph, *rest)
        return
    if record.op == "record_vmi":
        rec, package_keys = record.args
        if held is None:
            held = HeldPayloads(repo)
        repo.record_vmi(held.record(rec), package_keys)
        return
    getattr(repo, record.op)(*record.args)


def replay_ops(repo: Repository, ops) -> int:
    """Apply journaled ops in order; returns how many were applied.

    The repository must not have a journal attached (replay would
    re-journal every op); callers attach afterwards.
    """
    held = HeldPayloads(repo)
    n = 0
    for record in ops:
        apply_op(repo, record, held)
        n += 1
    return n


class OpLog:
    """Append-only write-ahead journal over one log file.

    Use :meth:`create` to start a fresh log paired with a snapshot,
    :meth:`read` to scan one without touching it, and :meth:`open` to
    continue appending (recovering from a torn tail first).  ``append``
    serialises eagerly and flushes before returning — the repository's
    journal contract.
    """

    def __init__(self, path: str | Path, file, op_count: int) -> None:
        self.path = Path(path)
        self._file = file
        self._op_count = op_count
        #: appends serialise internally; ordering across *operations*
        #: is the repository write lock's job (DESIGN.md §12)
        self._append_lock = threading.Lock()

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls, path: str | Path, *, snapshot_mutations: int
    ) -> "OpLog":
        """Start a fresh (truncated) log continuing a snapshot.

        The header lands atomically (temp + rename): at no instant
        does ``path`` hold a headerless file, so a crash anywhere in
        log creation leaves either the previous log or a complete new
        one — never an unopenable workspace.
        """
        path = Path(path)
        header = {
            "oplog": _OPLOG_VERSION,
            "snapshot_mutations": snapshot_mutations,
        }
        replace_atomically(
            path,
            lambda file: pickle.dump(
                header, file, protocol=pickle.HIGHEST_PROTOCOL
            ),
        )
        return cls(path, open(path, "ab"), op_count=0)

    @classmethod
    def _load_header(cls, file, path) -> dict:
        try:
            header = pickle.load(file)
        except Exception as exc:
            raise WorkspaceError(
                f"op-log {path} has no readable header: {exc}"
            ) from exc
        if (
            not isinstance(header, dict)
            or header.get("oplog") not in _READABLE_VERSIONS
        ):
            raise WorkspaceError(
                f"op-log {path} has unsupported header {header!r}"
            )
        return header

    @classmethod
    def read_header(cls, path: str | Path) -> int:
        """Just the header's snapshot pairing token, no record scan.

        Lets a reopen decide whether the log matches the snapshot
        before paying the full replay read.

        Raises:
            WorkspaceError: unreadable or version-mismatched header.
            FileNotFoundError: missing log file.
        """
        with open(path, "rb") as file:
            return cls._load_header(file, path)["snapshot_mutations"]

    @classmethod
    def read(cls, path: str | Path) -> ReplayReport:
        """Scan a log: header + complete records + torn-tail size.

        Raises:
            WorkspaceError: unreadable or version-mismatched header, or
                a complete record naming a class this process cannot
                import (see :func:`unloadable_error`).
            FileNotFoundError: missing log file.
        """
        with open(path, "rb") as file:
            header = cls._load_header(file, path)
            ops: list[OpLogRecord] = []
            good_end = file.tell()
            file_size = os.fstat(file.fileno()).st_size
            while True:
                try:
                    op, args = pickle.load(file)
                except EOFError:
                    break
                except UNLOADABLE as exc:
                    # a complete record: truncating here would drop it
                    # and every record after it
                    raise unloadable_error(
                        f"op-log {path} (record {len(ops) + 1})", exc
                    ) from exc
                except Exception:
                    # torn tail: a crash interrupted the last append —
                    # everything before it is intact and replayable
                    break
                ops.append(OpLogRecord(op=op, args=tuple(args)))
                good_end = file.tell()
        return ReplayReport(
            snapshot_mutations=header["snapshot_mutations"],
            ops=tuple(ops),
            torn_bytes=file_size - good_end,
        )

    @classmethod
    def open(cls, path: str | Path) -> tuple["OpLog", ReplayReport]:
        """Open an existing log for append, recovering a torn tail.

        Returns the appendable log plus the scan of what it already
        held — the ops a reopen must replay on top of the snapshot.
        """
        report = cls.read(path)
        if report.torn_bytes:
            # WAL recovery: an append that never completed never
            # happened — drop the torn bytes so new records stay
            # readable
            size = os.path.getsize(path)
            with open(path, "rb+") as file:
                file.truncate(size - report.torn_bytes)
        file = open(path, "ab")
        return cls(path, file, op_count=report.n_ops), report

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------

    @property
    def op_count(self) -> int:
        """Ops this log holds — the replay work a reopen would pay."""
        return self._op_count

    def append(self, op: str, args: tuple) -> None:
        """Journal one primitive (the Repository journal hook).

        Pickles immediately — the args may reference live mutable
        state — and flushes before returning, so the record is handed
        to the OS before the repository applies the mutation.
        """
        with self._append_lock:
            if self._file.closed:  # pragma: no cover - guards misuse
                raise WorkspaceError(f"op-log {self.path} is closed")
            pickle.dump(
                (op, tuple(args)),
                self._file,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            self._file.flush()
            self._op_count += 1

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<OpLog {self.path} ops={self._op_count}>"
