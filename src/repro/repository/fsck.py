"""Repository consistency checking (fsck).

The repository holds three coupled views of the same state: the blob
store (payload bytes), the metadata index (the tables the algorithms
query by name), and the in-memory object caches plus master graphs.  This
module verifies they agree and that the semantic invariants hold —
the check an operator runs after a crash, a restore, or a suspected
bug, and what the failure-injection tests use to assert that damage
is *detected* rather than silently served.

Checks performed:

* every indexed package/base row has a blob and a cached object,
  and every blob of that kind has an index row (no orphans);
* blob sizes match the package/base metadata they claim to carry;
* every published VMI's base exists, has a master graph, and the
  master graph contains every recorded primary;
* every published VMI is *retrievable*: every package Algorithm 3
  would import for it — each recorded primary plus its dependency
  closure in the master graph, minus what the base provides — resolves
  to a stored package blob;
* every recorded user-data label resolves;
* every master graph satisfies the Section III-H compatibility
  invariant and belongs to a stored base;
* the eagerly maintained liveness refcounts (packages, user data,
  bases — DESIGN.md §10) agree with a from-scratch recomputation over
  the records and join rows (``refcount-drift``), so incremental GC
  can trust them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GraphModelError, NotInRepositoryError
from repro.repository.blobstore import BlobKind
from repro.repository.repo import Repository, base_image_qcow2

__all__ = ["Inconsistency", "FsckReport", "check_repository"]


@dataclass(frozen=True)
class Inconsistency:
    """One detected problem."""

    #: machine-readable category ("orphan-blob", "missing-master", ...)
    kind: str
    #: what the problem is about (name, key, label)
    subject: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"[{self.kind}] {self.subject}: {self.detail}"


@dataclass(frozen=True)
class FsckReport:
    """Outcome of one consistency pass."""

    findings: tuple[Inconsistency, ...]
    checked_blobs: int
    checked_vmis: int

    @property
    def clean(self) -> bool:
        return not self.findings

    def by_kind(self, kind: str) -> list[Inconsistency]:
        return [f for f in self.findings if f.kind == kind]


def check_repository(repo: Repository) -> FsckReport:
    """Run every consistency check; never mutates the repository."""
    findings: list[Inconsistency] = []

    # -- packages: db rows <-> blobs <-> cache --------------------------
    indexed_pkg_keys = set()
    for row in repo.db.all_packages():
        indexed_pkg_keys.add(row.blob_key)
        if not repo.blobs.contains(row.blob_key):
            findings.append(Inconsistency(
                "missing-blob", row.name,
                f"package indexed but blob {row.blob_key:#x} absent",
            ))
            continue
        blob = repo.blobs.get(row.blob_key)
        if blob.size != row.deb_size:
            findings.append(Inconsistency(
                "size-mismatch", row.name,
                f"blob holds {blob.size} B, index claims "
                f"{row.deb_size} B",
            ))
        try:
            repo.get_package(row.blob_key)
        except NotInRepositoryError:
            findings.append(Inconsistency(
                "missing-object", row.name,
                "package blob present but object cache lost it",
            ))
    for blob in repo.blobs.records(BlobKind.PACKAGE):
        if blob.key not in indexed_pkg_keys:
            findings.append(Inconsistency(
                "orphan-blob", blob.label,
                "package blob has no index row",
            ))

    # -- base images -------------------------------------------------------
    indexed_base_keys = set()
    for row in repo.db.base_images():
        indexed_base_keys.add(row.blob_key)
        if not repo.blobs.contains(row.blob_key):
            findings.append(Inconsistency(
                "missing-blob", f"base {row.blob_key:#x}",
                "base image indexed but blob absent",
            ))
            continue
        try:
            base = repo.get_base_image(row.blob_key)
        except NotInRepositoryError:
            base = None
        if base is None:
            findings.append(Inconsistency(
                "missing-object", f"base {row.blob_key:#x}",
                "base blob present but object cache lost it",
            ))
        else:
            expected = base_image_qcow2(base).size
            if repo.blobs.get(row.blob_key).size != expected:
                findings.append(Inconsistency(
                    "size-mismatch", str(base.attrs),
                    "stored qcow2 size disagrees with base content",
                ))
    for blob in repo.blobs.records(BlobKind.BASE_IMAGE):
        if blob.key not in indexed_base_keys:
            findings.append(Inconsistency(
                "orphan-blob", blob.label,
                "base-image blob has no index row",
            ))

    # -- VMI records ----------------------------------------------------------
    records = repo.vmi_records()
    #: (base_key, primary, version) -> packages its closure imports —
    #: records of one family share compositions, extract each once
    closure_memo: dict[tuple, tuple] = {}
    for record in records:
        if record.base_key not in indexed_base_keys:
            findings.append(Inconsistency(
                "dangling-base", record.name,
                f"record points at unknown base {record.base_key:#x}",
            ))
            continue
        if not repo.has_master_graph(record.base_key):
            findings.append(Inconsistency(
                "missing-master", record.name,
                "record's base has no master graph",
            ))
            continue
        master = repo.get_master_graph(record.base_key)
        base_names = master.base.package_names()
        #: missing blobs already reported for this record — primaries
        #: of one VMI often share dependencies, one finding each
        reported_missing: set[int] = set()
        for primary in record.primary_names:
            if not master.has_package(primary):
                findings.append(Inconsistency(
                    "missing-primary", record.name,
                    f"primary {primary!r} absent from master graph",
                ))
                continue
            # retrievability: Algorithm 3 imports the primary plus its
            # dependency closure, except what the base image provides —
            # every one of those packages must have a stored blob
            version = record.primary_version(primary)
            memo_key = (record.base_key, primary, version)
            imports = closure_memo.get(memo_key)
            if imports is None:
                try:
                    subgraph = master.extract_primary_subgraph(
                        primary, version
                    )
                except GraphModelError as exc:
                    findings.append(Inconsistency(
                        "missing-primary", record.name,
                        f"recorded version of {primary!r} not "
                        f"extractable: {exc}",
                    ))
                    continue
                imports = tuple(
                    pkg for pkg in subgraph.packages()
                    if pkg.name not in base_names
                )
                closure_memo[memo_key] = imports
            for pkg in imports:
                key = pkg.blob_key()
                if key in reported_missing or repo.blobs.contains(key):
                    continue
                reported_missing.add(key)
                findings.append(Inconsistency(
                    "unretrievable-package", record.name,
                    f"retrieval needs {pkg} but its package blob "
                    "is not stored",
                ))
        if record.data_label is not None:
            if not repo.has_user_data(record.data_label):
                findings.append(Inconsistency(
                    "missing-data", record.name,
                    f"user data {record.data_label!r} not stored",
                ))

    # -- liveness refcounts ------------------------------------------------
    expected_pkg = {key: 0 for key in indexed_pkg_keys}
    expected_data = {label: 0 for label in repo.user_data_labels()}
    expected_base = {key: 0 for key in indexed_base_keys}
    for record in records:
        if record.base_key in expected_base:
            expected_base[record.base_key] += 1
        if record.data_label in expected_data:
            expected_data[record.data_label] += 1
        for key in set(repo.db.vmi_package_keys(record.name)):
            if key in expected_pkg:
                expected_pkg[key] += 1
    maintained = repo.refcounts()
    for kind, expected, actual in (
        ("package", expected_pkg, maintained["packages"]),
        ("user data", expected_data, maintained["data"]),
        ("base", expected_base, maintained["bases"]),
    ):
        for subject, want in expected.items():
            have = actual.get(subject, 0)
            if have != want:
                findings.append(Inconsistency(
                    "refcount-drift", f"{kind} {subject}",
                    f"maintained refcount {have}, recomputation "
                    f"says {want}",
                ))

    # -- master graphs ------------------------------------------------------------
    for master in repo.master_graphs():
        if master.base_key not in indexed_base_keys:
            findings.append(Inconsistency(
                "orphan-master", str(master.attrs),
                "master graph's base is not stored",
            ))
        if not master.check_invariant():
            findings.append(Inconsistency(
                "invariant-violation", str(master.attrs),
                "a member primary subgraph is incompatible with the "
                "base (Section III-H invariant broken)",
            ))

    return FsckReport(
        findings=tuple(findings),
        checked_blobs=len(repo.blobs),
        checked_vmis=len(records),
    )
