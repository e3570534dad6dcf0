"""Reference metadata index for tests: the SQLite engine it replaced.

:class:`repro.repository.database.MetadataDatabase` answers from dict
indexes.  Its result orders are the contract that Algorithm 2's
candidate order, GC's base basis and the snapshot bytes rest on, and
they are the orders this in-memory SQLite schema produced
(``blob_key INTEGER PRIMARY KEY`` is the rowid, so bases and packages
come back in signed 64-bit key order).  The differential property
suite drives both classes through the same operations and compares
every answer and every raised error.  The class body is kept as it
was when it served the repository.
"""

from __future__ import annotations

import sqlite3
import threading
from contextlib import contextmanager
from typing import Iterator

from repro.errors import DuplicateEntryError, NotInRepositoryError
from repro.repository.database import BaseImageRow, PackageRow, VMIRow

__all__ = ["SQLiteMetadataDatabase"]

_SCHEMA = """
CREATE TABLE base_images (
    blob_key   INTEGER PRIMARY KEY,
    os_type    TEXT NOT NULL,
    distro     TEXT NOT NULL,
    version    TEXT NOT NULL,
    arch       TEXT NOT NULL,
    size       INTEGER NOT NULL,
    n_packages INTEGER NOT NULL
);
CREATE TABLE packages (
    blob_key  INTEGER PRIMARY KEY,
    name      TEXT NOT NULL,
    version   TEXT NOT NULL,
    arch      TEXT NOT NULL,
    deb_size  INTEGER NOT NULL,
    installed_size INTEGER NOT NULL
);
CREATE INDEX idx_packages_name ON packages (name);
CREATE INDEX idx_base_images_attrs
    ON base_images (os_type, distro, version, arch);
CREATE TABLE vmis (
    name       TEXT PRIMARY KEY,
    base_key   INTEGER NOT NULL,
    data_label TEXT,
    seq        INTEGER NOT NULL
);
CREATE INDEX idx_vmis_base ON vmis (base_key);
CREATE TABLE vmi_packages (
    vmi_name TEXT NOT NULL,
    pkg_key  INTEGER NOT NULL,
    PRIMARY KEY (vmi_name, pkg_key)
);
"""


class SQLiteMetadataDatabase:
    """Thin typed layer over the SQLite schema above."""

    def __init__(self, path: str = ":memory:") -> None:
        # check_same_thread=False: the daemon's connection threads
        # reach this connection, always serialized by the repository
        # lock (writes exclusive, reads against a quiescent
        # writer side) — the cross-thread handoff SQLite's default
        # check exists to catch cannot interleave statements here
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.execute("PRAGMA foreign_keys = ON")
        self._conn.executescript(_SCHEMA)
        self._seq = 0
        #: open :meth:`batch` scopes; while > 0, per-statement commits
        #: are deferred to the outermost scope exit.  Guarded by its own
        #: mutex because callers on several threads may nest batches
        #: (statements themselves stay serialized by the repository
        #: lock).
        self._batch_depth = 0
        self._batch_mutex = threading.Lock()

    def close(self) -> None:
        self._conn.close()

    # ------------------------------------------------------------------
    # transaction batching
    # ------------------------------------------------------------------

    def _commit(self) -> None:
        """Commit now, unless a batch scope is deferring commits."""
        with self._batch_mutex:
            if self._batch_depth > 0:
                return
        self._conn.commit()

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Defer per-statement commits to one commit at scope exit.

        Batch publish otherwise pays one SQLite transaction round-trip
        per inserted row; under a batch scope the implicit transaction
        sqlite3 opens on the first DML statement stays open across the
        whole pipeline and commits once.  Scopes nest (and may overlap
        across threads): the last scope to close performs the commit.
        Durability is unaffected — the metadata database is an index
        rebuilt from the write-ahead op-log, never the recovery source.
        """
        with self._batch_mutex:
            self._batch_depth += 1
        try:
            yield
        finally:
            with self._batch_mutex:
                self._batch_depth -= 1
                outermost = self._batch_depth == 0
            if outermost:
                self._conn.commit()

    # ------------------------------------------------------------------
    # base images
    # ------------------------------------------------------------------

    def insert_base_image(self, row: BaseImageRow) -> None:
        try:
            self._conn.execute(
                "INSERT INTO base_images VALUES (?,?,?,?,?,?,?)",
                (
                    _signed(row.blob_key),
                    row.os_type,
                    row.distro,
                    row.version,
                    row.arch,
                    row.size,
                    row.n_packages,
                ),
            )
        except sqlite3.IntegrityError:
            raise DuplicateEntryError(
                f"base image {row.blob_key:#x} already indexed"
            ) from None
        self._commit()

    def delete_base_image(self, blob_key: int) -> None:
        cur = self._conn.execute(
            "DELETE FROM base_images WHERE blob_key = ?",
            (_signed(blob_key),),
        )
        if cur.rowcount == 0:
            raise NotInRepositoryError("base image", blob_key)
        self._commit()

    def base_images(self) -> list[BaseImageRow]:
        rows = self._conn.execute(
            "SELECT blob_key, os_type, distro, version, arch, size,"
            " n_packages FROM base_images ORDER BY rowid"
        ).fetchall()
        return [BaseImageRow(_unsigned(r[0]), *r[1:]) for r in rows]

    def base_images_with_attrs(
        self,
        os_type: str,
        distro: str,
        version: str | None = None,
        arch: str | None = None,
    ) -> list[BaseImageRow]:
        """Stored bases matching an attribute quadruple prefix, exactly.

        Served by ``idx_base_images_attrs``, so candidate generation
        touches only the matching rows instead of the full table.
        ``version`` / ``arch`` narrow the prefix when given.  Matching
        here is exact string equality; the graded ``simBI = 1`` classes
        (portable ``"all"`` arch, equivalent release spellings) are the
        repository facade's concern.
        """
        sql = (
            "SELECT blob_key, os_type, distro, version, arch, size,"
            " n_packages FROM base_images WHERE os_type = ? AND distro = ?"
        )
        args: list[object] = [os_type, distro]
        if version is not None:
            sql += " AND version = ?"
            args.append(version)
        if arch is not None:
            sql += " AND arch = ?"
            args.append(arch)
        sql += " ORDER BY rowid"
        rows = self._conn.execute(sql, args).fetchall()
        return [BaseImageRow(_unsigned(r[0]), *r[1:]) for r in rows]

    def base_image_count(self) -> int:
        return self._conn.execute(
            "SELECT COUNT(*) FROM base_images"
        ).fetchone()[0]

    # ------------------------------------------------------------------
    # packages
    # ------------------------------------------------------------------

    def insert_package(self, row: PackageRow) -> None:
        try:
            self._conn.execute(
                "INSERT INTO packages VALUES (?,?,?,?,?,?)",
                (
                    _signed(row.blob_key),
                    row.name,
                    row.version,
                    row.arch,
                    row.deb_size,
                    row.installed_size,
                ),
            )
        except sqlite3.IntegrityError:
            raise DuplicateEntryError(
                f"package {row.name} {row.version} already indexed"
            ) from None
        self._commit()

    def has_package(self, blob_key: int) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM packages WHERE blob_key = ?",
            (_signed(blob_key),),
        ).fetchone()
        return row is not None

    def packages_named(self, name: str) -> list[PackageRow]:
        rows = self._conn.execute(
            "SELECT blob_key, name, version, arch, deb_size,"
            " installed_size FROM packages WHERE name = ?",
            (name,),
        ).fetchall()
        return [PackageRow(_unsigned(r[0]), *r[1:]) for r in rows]

    def all_packages(self) -> list[PackageRow]:
        rows = self._conn.execute(
            "SELECT blob_key, name, version, arch, deb_size,"
            " installed_size FROM packages"
        ).fetchall()
        return [PackageRow(_unsigned(r[0]), *r[1:]) for r in rows]

    def package_count(self) -> int:
        return self._conn.execute(
            "SELECT COUNT(*) FROM packages"
        ).fetchone()[0]

    # ------------------------------------------------------------------
    # VMIs
    # ------------------------------------------------------------------

    def insert_vmi(
        self, name: str, base_key: int, data_label: str | None,
        package_keys: list[int],
    ) -> VMIRow:
        self._seq += 1
        try:
            self._conn.execute(
                "INSERT INTO vmis VALUES (?,?,?,?)",
                (name, _signed(base_key), data_label, self._seq),
            )
        except sqlite3.IntegrityError:
            raise DuplicateEntryError(
                f"VMI {name!r} already published"
            ) from None
        self._conn.executemany(
            "INSERT OR IGNORE INTO vmi_packages VALUES (?,?)",
            [(name, _signed(k)) for k in package_keys],
        )
        self._commit()
        return VMIRow(name, base_key, data_label, self._seq)

    def update_vmi_base(self, name: str, base_key: int) -> None:
        """Re-point a VMI at a replacement base image (Algorithm 2)."""
        cur = self._conn.execute(
            "UPDATE vmis SET base_key = ? WHERE name = ?",
            (_signed(base_key), name),
        )
        if cur.rowcount == 0:
            raise NotInRepositoryError("VMI", name)
        self._commit()

    def get_vmi(self, name: str) -> VMIRow:
        row = self._conn.execute(
            "SELECT name, base_key, data_label, seq FROM vmis"
            " WHERE name = ?",
            (name,),
        ).fetchone()
        if row is None:
            raise NotInRepositoryError("VMI", name)
        return VMIRow(row[0], _unsigned(row[1]), row[2], row[3])

    def vmis(self) -> list[VMIRow]:
        rows = self._conn.execute(
            "SELECT name, base_key, data_label, seq FROM vmis ORDER BY seq"
        ).fetchall()
        return [VMIRow(r[0], _unsigned(r[1]), r[2], r[3]) for r in rows]

    def vmis_for_base(self, base_key: int) -> list[VMIRow]:
        """Published VMIs on one base, record order (``idx_vmis_base``).

        The incremental GC's per-base record lookup: work scales with
        the base's own family, not with the repository.
        """
        rows = self._conn.execute(
            "SELECT name, base_key, data_label, seq FROM vmis"
            " WHERE base_key = ? ORDER BY seq",
            (_signed(base_key),),
        ).fetchall()
        return [VMIRow(r[0], _unsigned(r[1]), r[2], r[3]) for r in rows]

    def delete_vmi(self, name: str) -> None:
        cur = self._conn.execute(
            "DELETE FROM vmis WHERE name = ?", (name,)
        )
        if cur.rowcount == 0:
            raise NotInRepositoryError("VMI", name)
        self._conn.execute(
            "DELETE FROM vmi_packages WHERE vmi_name = ?", (name,)
        )
        self._commit()

    def delete_package(self, blob_key: int) -> None:
        cur = self._conn.execute(
            "DELETE FROM packages WHERE blob_key = ?",
            (_signed(blob_key),),
        )
        if cur.rowcount == 0:
            raise NotInRepositoryError("package", blob_key)
        self._commit()

    def vmi_package_keys(self, name: str) -> list[int]:
        rows = self._conn.execute(
            "SELECT pkg_key FROM vmi_packages WHERE vmi_name = ?",
            (name,),
        ).fetchall()
        return [_unsigned(r[0]) for r in rows]

    def all_vmi_package_keys(self) -> dict[str, list[int]]:
        """Every VMI's join rows in one query (refcount rebuilds).

        One table scan instead of one indexed query per record — the
        full-GC verification anchor and fsck call this over the whole
        store.
        """
        rows = self._conn.execute(
            "SELECT vmi_name, pkg_key FROM vmi_packages"
        ).fetchall()
        grouped: dict[str, list[int]] = {}
        for name, key in rows:
            grouped.setdefault(name, []).append(_unsigned(key))
        return grouped

    def replace_vmi_packages(self, name: str, package_keys: list[int]) -> None:
        """Overwrite a VMI's package join rows (GC re-derivation)."""
        self._conn.execute(
            "DELETE FROM vmi_packages WHERE vmi_name = ?", (name,)
        )
        self._conn.executemany(
            "INSERT OR IGNORE INTO vmi_packages VALUES (?,?)",
            [(name, _signed(k)) for k in package_keys],
        )
        self._commit()


def _signed(key: int) -> int:
    """Map a uint64 content id into SQLite's signed 64-bit space."""
    return key - (1 << 64) if key >= (1 << 63) else key


def _unsigned(key: int) -> int:
    return key + (1 << 64) if key < 0 else key
