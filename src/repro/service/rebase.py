"""Journaled re-base: publish mined bases, migrate VMIs onto them.

:class:`~repro.analysis.mining.BaseMiner` proposes merges; this module
*applies* them.  One applied candidate is a maintenance operation over
live metadata:

1. resolve (and, for synthetic candidates, store) the merged base;
2. build the merged master graph — the union base's master absorbs
   every donor master's primary subgraphs and memberships — and
   publish it *before* any record moves, so a record never points at a
   base whose master cannot explain its primaries;
3. per donor: repoint its records at the merged base, then rewrite
   every record's package contribution against the new base (packages
   the union bakes in stop being imports; refcounts move with them);
4. remove each drained donor base, dropping its master and telling the
   publisher's selection memo to forget the blob;
5. mark the merged base dirty so the next GC pass re-derives and tidies
   membership bookkeeping.

Crash safety follows the federation's ``rebalance.json`` pattern: on a
durable workspace the full candidate plan is written to a
``rebase.json`` intent file *before* the first mutation and unlinked
after the last.  Every step above is either an already-journaled
repository primitive or idempotent re-resolution, so recovery —
performed by the next :meth:`RebaseService.run` — simply re-executes
the plan: stores are no-ops when present, repoints of drained donors
move zero records, reassignments of correct contributions change
nothing, and removals skip missing donors.  The repository passes fsck
at *every* intermediate journal state (see
``tests/property/test_rebase_props.py`` for the exhaustive crash
matrix).

Retrieved bytes are invariant through all of this: the mining
condition guarantees each migrated VMI's manifest is preserved as a
file multiset, and the benchmark gate
(``benchmarks/bench_mining.py``) re-retrieves every migrated VMI and
compares digests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from repro.analysis.mining import BaseMiner, MiningCandidate, MiningReport
from repro.errors import NotInRepositoryError
from repro.model.attributes import BaseImageAttrs
from repro.model.package import Package
from repro.model.vmi import BaseImage
from repro.repository.master_graphs import MasterGraph
from repro.repository.persistence import replace_atomically
from repro.repository.repo import Repository, base_image_qcow2
from repro.sim.clock import SimulatedClock
from repro.sim.costmodel import CostModel
from repro.similarity.compatibility import is_compatible

__all__ = ["INTENT_NAME", "RebaseReport", "RebaseService"]

#: re-base intent journal — present only while a re-base is in flight
INTENT_NAME = "rebase.json"


@dataclass(frozen=True)
class RebaseReport:
    """What one re-base pass changed."""

    #: mining candidates actually applied (stale ones are skipped)
    candidates_applied: int
    #: synthetic merged bases newly stored
    bases_published: int
    #: donor bases removed after draining
    bases_removed: int
    #: VMI records migrated onto a merged base
    migrated_vmis: int
    migrated_names: tuple[str, ...]
    #: physical stored bytes around the pass
    bytes_before: int
    bytes_after: int
    #: bytes one GC pass would additionally free (freed package blobs)
    reclaimable_after: int
    #: True when this run first completed a crashed predecessor's plan
    recovered: bool
    #: simulated seconds charged (mining included when run() mined)
    rebase_seconds: float

    @property
    def reclaimed_bytes(self) -> int:
        return self.bytes_before - self.bytes_after

    def render(self) -> str:
        return (
            f"rebase: {self.candidates_applied} candidate(s) applied"
            f"{' (recovered)' if self.recovered else ''} — "
            f"{self.migrated_vmis} VMI(s) migrated, "
            f"{self.bases_published} base(s) published, "
            f"{self.bases_removed} removed; "
            f"{self.reclaimed_bytes / 1e9:.3f} GB freed now, "
            f"{self.reclaimable_after / 1e9:.3f} GB more at next GC "
            f"({self.rebase_seconds:.2f} simulated s)"
        )


class RebaseService:
    """Apply mining candidates as a crash-recoverable maintenance op.

    ``workspace`` (when durable) hosts the intent journal;
    ``selection_memo`` is the publisher's Algorithm 2 cache, which must
    forget removed donor blobs; ``checkpoint_hook`` is a test seam
    called with a named checkpoint after every journal-visible step —
    fault injection raises there to simulate a crash.
    """

    def __init__(
        self,
        repo: Repository,
        clock: SimulatedClock | None = None,
        cost: CostModel | None = None,
        *,
        workspace=None,
        selection_memo=None,
        checkpoint_hook: Callable[[str], None] | None = None,
    ) -> None:
        self.repo = repo
        self.clock = clock or SimulatedClock()
        self.cost = cost or CostModel()
        self.workspace = workspace
        self.selection_memo = selection_memo
        self.checkpoint_hook = checkpoint_hook

    # -- public entry point ------------------------------------------------

    def run(self, mining: MiningReport | None = None) -> RebaseReport:
        """Recover any crashed plan, then mine (if needed) and apply.

        A leftover ``rebase.json`` is always completed first — its
        plan predates whatever ``mining`` proposes now.
        """
        bytes_before = self.repo.total_bytes()
        stats = _RunStats()
        with self.clock.measure() as breakdown:
            recovered = self._recover(stats)
            if mining is None:
                mining = BaseMiner(
                    self.repo, self.clock, self.cost
                ).mine()
            if mining.candidates:
                self._execute_plan(list(mining.candidates), stats)
        return RebaseReport(
            candidates_applied=stats.applied,
            bases_published=stats.published,
            bases_removed=stats.removed,
            migrated_vmis=len(stats.migrated),
            migrated_names=tuple(stats.migrated),
            bytes_before=bytes_before,
            bytes_after=self.repo.total_bytes(),
            reclaimable_after=self.repo.reclaimable_bytes(),
            recovered=recovered,
            rebase_seconds=breakdown.total,
        )

    # -- intent journal ----------------------------------------------------

    def _hook(self, checkpoint: str) -> None:
        if self.checkpoint_hook is not None:
            self.checkpoint_hook(checkpoint)

    def _intent_path(self):
        if self.workspace is None:
            return None
        return self.workspace.path / INTENT_NAME

    def _write_intent(self, plan: list[MiningCandidate]) -> None:
        intent = self._intent_path()
        if intent is None:
            return
        payload = {
            "version": 1,
            "candidates": [
                {
                    "attrs": [
                        c.attrs.os_type,
                        c.attrs.distro,
                        c.attrs.version,
                        c.attrs.arch,
                    ],
                    "winner": c.winner_key,
                    "merged": c.merged_key,
                    "packages": list(c.package_names),
                    "donors": list(c.donor_keys),
                    "reuses_winner": c.reuses_winner,
                }
                for c in plan
            ],
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        replace_atomically(intent, lambda file: file.write(text.encode()))

    def _clear_intent(self) -> None:
        intent = self._intent_path()
        if intent is not None:
            intent.unlink(missing_ok=True)

    def _load_intent(self) -> list[MiningCandidate] | None:
        intent = self._intent_path()
        if intent is None or not intent.exists():
            return None
        data = json.loads(intent.read_text())
        return [
            MiningCandidate(
                attrs=BaseImageAttrs(*entry["attrs"]),
                winner_key=int(entry["winner"]),
                merged_key=int(entry["merged"]),
                package_names=tuple(entry["packages"]),
                donor_keys=tuple(
                    int(k) for k in entry["donors"]
                ),
                n_vmis=0,  # informational only; not needed to apply
                est_saved_bytes=0,
                reuses_winner=bool(entry["reuses_winner"]),
            )
            for entry in data["candidates"]
        ]

    def _recover(self, stats: "_RunStats") -> bool:
        plan = self._load_intent()
        if plan is None:
            return False
        self._execute_plan(plan, stats, rewrite_intent=False)
        return True

    # -- execution ---------------------------------------------------------

    def _execute_plan(
        self,
        plan: list[MiningCandidate],
        stats: "_RunStats",
        rewrite_intent: bool = True,
    ) -> None:
        if rewrite_intent:
            self._write_intent(plan)
            self._hook("intent-written")
        for candidate in plan:
            self._apply(candidate, stats)
            self._hook("candidate-done")
        self._clear_intent()
        self._hook("intent-cleared")

    def _apply(
        self, candidate: MiningCandidate, stats: "_RunStats"
    ) -> None:
        new_base = self._resolve_base(candidate)
        if new_base is None:
            return  # stale candidate: its world changed under it
        new_key = new_base.blob_key()
        if self.repo.store_base_image(new_base):
            stats.published += 1
            self._charge(
                self.cost.write_bytes(base_image_qcow2(new_base).size)
            )
        self._hook("base-stored")

        merged = self._merged_master(candidate, new_base)
        self.repo.put_master_graph(merged)
        self._charge(
            self.cost.master_rebuild(len(merged.primary_packages()))
        )
        self._hook("master-merged")

        for donor_key in candidate.donor_keys:
            if donor_key == new_key:
                continue
            names = [
                r.name
                for r in self.repo.vmi_records_for_base(donor_key)
            ]
            moved = self.repo.repoint_vmis(donor_key, new_key)
            if moved:
                self._charge(self.cost.metadata_update() * moved)
                stats.migrated.extend(names)
            self._hook(f"repointed:{donor_key}")

        # every record now on the merged base gets an exact
        # contribution; pre-existing members re-derive to a no-op
        base_names = new_base.package_names()
        for record in self.repo.vmi_records_for_base(new_key):
            contribution: set[int] = set()
            for pname in record.primary_names:
                if not merged.has_package(pname):
                    continue
                subgraph = merged.extract_primary_subgraph(
                    pname, record.primary_version(pname)
                )
                contribution.update(
                    p.blob_key()
                    for p in subgraph.packages()
                    if p.name not in base_names
                    and self.repo.blobs.contains(p.blob_key())
                )
            if self.repo.reassign_vmi_packages(
                record.name, sorted(contribution)
            ):
                self._charge(self.cost.metadata_update())
            self._hook(f"reassigned:{record.name}")

        for donor_key in candidate.donor_keys:
            if donor_key == new_key:
                continue
            if (
                self._stored_base(donor_key) is not None
                and self.repo.base_refs(donor_key) == 0
            ):
                self.repo.remove_base_image(donor_key)
                self._charge(self.cost.unlink_blob())
                stats.removed += 1
                if self.selection_memo is not None:
                    self.selection_memo.forget_base(donor_key)
            self._hook(f"donor-removed:{donor_key}")

        self.repo.mark_base_dirty(new_key)
        stats.applied += 1

    def _stored_base(self, key: int) -> BaseImage | None:
        try:
            return self.repo.get_base_image(key)
        except NotInRepositoryError:
            return None

    def _resolve_base(
        self, candidate: MiningCandidate
    ) -> BaseImage | None:
        """The merged base to migrate onto, or None when stale.

        An already-stored union (the winner, or recovery after the
        store step) resolves by its content key.  Otherwise the union
        is rebuilt from the surviving donors' packages — always
        possible, because donors are only removed after the union is
        stored — and must hash to exactly the mined ``merged_key``.
        """
        stored = self._stored_base(candidate.merged_key)
        if stored is not None:
            return stored
        if candidate.reuses_winner:
            return None  # winner vanished: stale candidate
        by_name: dict[str, Package] = {}
        skeleton = None
        for key in (candidate.winner_key, *candidate.donor_keys):
            donor = self._stored_base(key)
            if donor is None:
                continue
            if skeleton is None:
                skeleton = donor.skeleton
            for pkg in donor.packages:
                by_name.setdefault(pkg.name, pkg)
        if skeleton is None or set(by_name) != set(
            candidate.package_names
        ):
            return None  # donors gone and union never stored: stale
        union = BaseImage(
            attrs=candidate.attrs,
            packages=tuple(
                sorted(by_name.values(), key=lambda p: p.name)
            ),
            skeleton=skeleton,
        )
        if union.blob_key() != candidate.merged_key:
            return None  # a donor changed identity under the plan
        return union

    def _merged_master(
        self, candidate: MiningCandidate, new_base: BaseImage
    ) -> MasterGraph:
        """The union base's master, absorbing every donor master.

        Absorption is selective, not a blanket ``merge_from``: master
        graphs never drop vertices, so a donor can still hold primary
        subgraphs of long-deleted members whose package identities
        conflict with the union base (the mining coverage condition
        only vouches for *live* records).  Those stale subgraphs serve
        no record and are skipped; every live member's subgraph passes
        the compatibility test by construction.
        """
        new_key = new_base.blob_key()
        if self.repo.has_master_graph(new_key):
            merged = self.repo.get_master_graph(new_key)
        else:
            merged = MasterGraph.for_base(new_base)
        for donor_key in candidate.donor_keys:
            if donor_key == new_key:
                continue
            if not self.repo.has_master_graph(donor_key):
                continue
            donor = self.repo.get_master_graph(donor_key)
            for pkg in donor.primary_packages():
                sub = donor.extract_primary_subgraph(
                    pkg.name, str(pkg.version)
                )
                if is_compatible(merged.base_subgraph, sub):
                    merged.add_primary_subgraph(sub)
            for name in donor.member_vmis:
                if name not in merged.member_vmis:
                    merged.member_vmis.append(name)
        return merged

    def _charge(self, seconds: float) -> None:
        self.clock.advance(seconds, "rebase")


class _RunStats:
    """Mutable counters one run() accumulates across recovery + plan."""

    def __init__(self) -> None:
        self.applied = 0
        self.published = 0
        self.removed = 0
        self.migrated: list[str] = []
