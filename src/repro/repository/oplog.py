"""The repository write-ahead op-log.

A snapshot alone makes durability *expensive*: every publish would have
to re-serialise the whole repository to survive a crash.  The op-log
makes it cheap — the repository journals each state-changing primitive
(store/remove/record/delete/reassign/repoint/master-put/master-member/
dirty marks) *before* applying it, and reopening a workspace is

    last snapshot  +  replay of the ops appended since,

so reopen cost is O(ops since checkpoint), not O(repository).

Master graphs are journaled two ways.  A publish into a stored master
appends ``add_master_member``: the upload's primary subgraph, its name
and the master's resulting revision, so the record's size follows the
upload.  Whole-master rewrites (a new master, base replacement, GC
rebuilds, rebase, federation rebalance) append ``put_master_graph``
with the master's full content.  Logs written before
``add_master_member`` existed replay unchanged; a build without it
refuses such a log as an unknown op (``WorkspaceError``) before
changing any file, so the header version stays 1.  Likewise, records
pickle each package as a call of ``repro.model.package._unpickle_package``,
and each file manifest (user data, base skeletons) as a call of
``repro.image.manifest._unpickle_manifest`` with its record count and
one little-endian buffer of its content ids, sizes and gzip ratios, so
no numpy global appears in a record; a build without either function
reads such a record as unloadable and refuses the log, changing no
file.  Older records holding packages as dicts and manifests as three
numpy arrays replay unchanged.

Each record unpickles on its own, so a replayed payload shares no
object with what the repository already holds.  Replay points it at
the held objects (:class:`HeldPayloads`): packages by blob key, a
base's attributes and skeleton, the strings of replayed packages, the
masters' vertex keys, and a VMI record's name, primary identities and
data label — so the next checkpoint pickles each once, as a snapshot
load would have kept them.

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
from repro.model.package import Package, share_strings
from repro.model.vmi import BaseImage
from repro.repository.master_graphs import master_from_state
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

_OPLOG_VERSION = 1

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
    """What a replay points unpickled payloads at: the package objects
    the repository holds by blob key (the package store's, else a
    stored base's own), one stored base per attribute quadruple, the
    masters' vertex keys and member names, the held packages' identity
    tuples and the held user data's labels.

    Each op-log record unpickles on its own, so a replayed payload
    shares nothing with the objects already held; pointing it at them
    keeps the sharing a live session has, and the next checkpoint
    pickles each object once (as :meth:`MasterGraph.share_payloads`
    does for master vertices).  The indexes are built on first use, so
    a replay pays only for the kinds of record it holds.
    """

    def __init__(self, repo: Repository) -> None:
        self._repo = repo
        #: packages the replay added that no stored object held
        self._added: dict[int, Package] = {}
        #: the strings of those packages
        self._strings: dict[str, str] = {}
        self._base_packages: dict[str, list[Package]] | None = None
        self._bases: dict[tuple, BaseImage] | None = None
        self._keys: dict[str, str] | None = None
        self._identities: dict[tuple, tuple] | None = None

    def _in_bases(self, pkg: Package, key: int) -> Package | None:
        """A stored base's own package with blob key ``key``."""
        if self._base_packages is None:
            self._base_packages = {}
            for base in self._repo.base_images():
                for own in base.packages:
                    self._base_packages.setdefault(own.name, []).append(own)
        for own in self._base_packages.get(pkg.name, ()):
            if own.blob_key() == key:
                return own
        return None

    def package(self, pkg: Package) -> Package:
        """The held package with ``pkg``'s blob key, else ``pkg``, its
        strings pointed at those of the packages added before it."""
        key = pkg.blob_key()
        held = (
            self._repo.find_package(key)
            or self._added.get(key)
            or self._in_bases(pkg, key)
        )
        if held is None:
            share_strings(pkg, self._strings)
            self._added[key] = held = pkg
            if self._identities is not None:
                self._identities.setdefault(pkg.identity, pkg.identity)
        return held

    def base(self, base: BaseImage) -> BaseImage:
        """``base`` over held packages, and over the attributes and
        skeleton of a held base with the same quadruple when equal."""
        if self._bases is None:
            self._bases = {
                held.attrs.key(): held for held in self._repo.base_images()
            }
        packages = tuple(self.package(pkg) for pkg in base.packages)
        attrs, skeleton = base.attrs, base.skeleton
        twin = self._bases.setdefault(attrs.key(), base)
        if twin is not base and twin.attrs == attrs:
            attrs = twin.attrs
            if twin.skeleton == skeleton:
                skeleton = twin.skeleton
        if (
            attrs is not base.attrs
            or skeleton is not base.skeleton
            or any(a is not b for a, b in zip(packages, base.packages))
        ):
            base = BaseImage(attrs=attrs, packages=packages, skeleton=skeleton)
        return base

    def record(self, rec: VMIRecord) -> VMIRecord:
        """``rec`` over held strings: its name the entry of its
        master's members, its primary identities (and names) the held
        packages' identity tuples, its data label the held user
        data's."""
        if self._identities is None:
            self._identities = {}
            for pkg in self._repo.packages():
                self._identities.setdefault(pkg.identity, pkg.identity)
        identities = tuple(
            self._identities.get(i, i) for i in rec.primary_identities
        )
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

    def vertex_keys(self) -> dict[str, str]:
        """The vertex keys of every master's package graph, ``{k: k}``
        (the first master's object where two hold equal keys); kept
        current by :meth:`SemanticGraph.share_keys` on each replayed
        graph."""
        if self._keys is None:
            self._keys = {}
            for master in self._repo.master_graphs():
                for key in master.package_graph.node_keys():
                    self._keys.setdefault(key, key)
        return self._keys


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
    # a record's payload unpickles as fresh copies: it is pointed at
    # what the repository already holds before it joins, so later
    # checkpoints pickle each object once
    if held is None:
        held = HeldPayloads(repo)
    if record.op == "put_master_graph":
        (state,) = record.args
        base = repo.get_base_image(state["base_key"])
        state["package_graph"].share_keys(held.vertex_keys())
        repo.put_master_graph(
            master_from_state(base, state, repo.find_package)
        )
        return
    if record.op == "add_master_member":
        base_key, subgraph = record.args[:2]
        master = repo.get_master_graph(base_key)
        master.share_payloads(subgraph, repo.find_package)
        subgraph.share_keys(held.vertex_keys())
    elif record.op == "store_package":
        (pkg,) = record.args
        repo.store_package(held.package(pkg))
        return
    elif record.op == "store_base_image":
        (base,) = record.args
        repo.store_base_image(held.base(base))
        return
    elif record.op == "record_vmi":
        rec, package_keys = record.args
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
            or header.get("oplog") != _OPLOG_VERSION
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
