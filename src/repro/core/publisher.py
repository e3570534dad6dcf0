"""VMI publishing — Algorithm 1 of the paper.

Decomposes an uploaded VMI into non-redundant software packages, user
data and a base image; stores only what the repository lacks; merges
the upload's primary subgraph into the right master graph; and executes
any base-image replacement Algorithm 2 decides on.

Time accounting matches the paper's definition of publish time: "time
to create a guestfs handle for VMI access, export semantically
non-redundant software packages, remove the unused software packages,
and select the compatible base image" — each charged under its own
label so the experiment modules can break publishing down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.analyzer import AnalysisResult, SemanticAnalyzer
from repro.core.base_selection import (
    BaseSelection,
    SelectionMemo,
    select_base_image,
)
from repro.errors import AlreadyPublishedError
from repro.image.guestfs import GuestfsHandle
from repro.model.vmi import VirtualMachineImage
from repro.repository.master_graphs import MasterGraph
from repro.repository.repo import Repository, VMIRecord, base_image_qcow2
from repro.sim.clock import SimulatedClock, TimeBreakdown
from repro.sim.costmodel import CostModel

__all__ = ["PublishReport", "VMIPublisher"]


@dataclass(frozen=True)
class PublishReport:
    """What one publish did, and what it cost."""

    vmi_name: str
    #: SimG against the master graph before this upload merged in
    similarity: float
    #: packages actually exported + stored (the non-redundant set)
    exported_packages: tuple[str, ...]
    #: packages of GI[PS] skipped because the repository had them
    deduplicated_packages: tuple[str, ...]
    #: True when the decomposed base image had to be stored
    stored_new_base: bool
    #: stored bases deleted because the selected base replaced them
    replaced_bases: int
    #: repository bytes before -> after
    repo_bytes_before: int
    repo_bytes_after: int
    breakdown: TimeBreakdown = field(default_factory=TimeBreakdown)

    @property
    def publish_time(self) -> float:
        """Total simulated publish duration (Table II column 6)."""
        return self.breakdown.total

    @property
    def bytes_added(self) -> int:
        return self.repo_bytes_after - self.repo_bytes_before


class VMIPublisher:
    """Executes Algorithm 1 against a repository."""

    def __init__(
        self,
        repo: Repository,
        clock: SimulatedClock,
        cost: CostModel,
        analyzer: SemanticAnalyzer | None = None,
        *,
        dedup_packages: bool = True,
        indexed_selection: bool = True,
    ) -> None:
        """``dedup_packages=False`` yields the paper's *semantic
        decomposition* variant (Figure 4b): every required package is
        exported even when the repository already has it — storage ends
        up identical (the blob store is content-addressed) but the
        publish pays the full export cost.

        ``indexed_selection=False`` makes Algorithm 2 generate base
        candidates with the paper-literal full repository scan instead
        of the attribute-quadruple index; selections are identical
        either way (the index is a pure accelerator)."""
        self.repo = repo
        self.clock = clock
        self.cost = cost
        self.analyzer = analyzer or SemanticAnalyzer(clock, cost)
        self.dedup_packages = dedup_packages
        self.indexed_selection = indexed_selection
        #: content-keyed Algorithm 2 caches, shared across this
        #: publisher's publishes (one memo per repository)
        self.selection_memo = SelectionMemo()

    # ------------------------------------------------------------------

    def publish(self, vmi: VirtualMachineImage) -> PublishReport:
        """Run Algorithm 1 on one uploaded VMI.

        Raises:
            AlreadyPublishedError: when the VMI name was already
                published (names identify uploads in the repository
                index).
        """
        if self.repo.has_vmi(vmi.name):
            raise AlreadyPublishedError(vmi.name)

        bytes_before = self.repo.total_bytes()
        with self.clock.measure() as breakdown:
            report = self._publish_inner(vmi)
        return PublishReport(
            vmi_name=vmi.name,
            similarity=report["similarity"],
            exported_packages=tuple(report["exported"]),
            deduplicated_packages=tuple(report["dedup"]),
            stored_new_base=report["stored_new_base"],
            replaced_bases=report["replaced"],
            repo_bytes_before=bytes_before,
            repo_bytes_after=self.repo.total_bytes(),
            breakdown=breakdown,
        )

    # ------------------------------------------------------------------

    def _publish_inner(self, vmi: VirtualMachineImage) -> dict:
        # upload footprint, recorded before decomposition strips the VMI
        upload_mounted_size = vmi.mounted_size
        upload_n_files = vmi.n_files

        # -- guestfs access (Section VI-C: handle creation is charged) --
        handle = GuestfsHandle(self.clock, self.cost, label="handle")
        handle.launch()
        handle.mount(vmi)

        # -- step 2: semantic analysis ----------------------------------
        analysis: AnalysisResult = self.analyzer.analyze(vmi, self.repo)
        gi_ps = analysis.primary_subgraph

        # -- lines 1-5: store non-redundant packages of GI[PS] -----------
        base_names = vmi.base.package_names()
        exported: list[str] = []
        dedup: list[str] = []
        for pkg in gi_ps.packages():
            if pkg.name in base_names:
                # provided by the stored base image itself; never shipped
                continue
            if self.repo.has_package(pkg):
                if self.dedup_packages:
                    dedup.append(pkg.name)
                    continue
                # semantic-decomposition variant: export anyway (the
                # content-addressed store still keeps one copy)
                self.clock.advance(
                    self.cost.export_package(pkg), "export"
                )
                dedup.append(pkg.name)
                continue
            self.clock.advance(self.cost.export_package(pkg), "export")
            self.repo.store_package(pkg)
            exported.append(pkg.name)

        # -- line 6: store the user data ---------------------------------
        data = vmi.user_data
        if data is not None:
            if self.repo.store_user_data(data):
                self.clock.advance(
                    self.cost.write_bytes(data.size), "export"
                )

        # -- lines 7-11: strip the VMI down to its base --------------------
        for name in list(vmi.primary_names()):
            pkg = vmi.remove_package(name)
            self.clock.advance(self.cost.remove_package(pkg), "remove")
        for name in vmi.remove_unused_dependencies():
            # packages were already dropped; charge the purge work
            pkg = gi_ps.find_package(name)
            if pkg is not None:
                self.clock.advance(
                    self.cost.remove_package(pkg), "remove"
                )
        vmi.detach_user_data()
        residue_bytes = vmi.clear_residue()
        if residue_bytes:
            # Section V-3: "cleaning up the cached repository files"
            self.clock.advance(
                self.cost.cleanup_residue(residue_bytes), "remove"
            )

        # -- lines 12-13: the remaining base image --------------------------
        base_image = vmi.to_base_image()
        gi_bi = analysis.base_subgraph

        # -- line 14: Algorithm 2 --------------------------------------------
        selection: BaseSelection = select_base_image(
            base_image,
            gi_bi,
            gi_ps,
            self.repo,
            memo=self.selection_memo,
            use_index=self.indexed_selection,
        )
        self.clock.advance(self.cost.metadata_update(), "select-base")

        selected_base_names = selection.base.package_names()

        # -- lines 15-20: store base / fetch master ----------------------------
        base_key = selection.base.blob_key()
        stored_new_base = False
        if selection.is_new:
            # a genuinely new base: store its qcow2 and open a master
            master = MasterGraph.for_base(selection.base)
            qcow = base_image_qcow2(selection.base)
            self.repo.store_base_image(selection.base)
            self.clock.advance(
                self.cost.write_bytes(qcow.size), "store-base"
            )
            stored_new_base = True
        elif self.repo.has_master_graph(base_key):
            master = self.repo.get_master_graph(base_key)
        else:
            # base blob exists but carries no master yet (first member)
            master = MasterGraph.for_base(selection.base)
        # an upload joining a stored master with nothing replaced is
        # journaled as its own subgraph (add_master_member, line 29),
        # not as the whole merged master
        joins_stored_master = (
            not selection.replace
            and self.repo.find_master_graph(base_key) is master
        )

        # -- line 21: merge the upload's primary subgraph ------------------------
        # (a stored master merges at line 29: until then nothing below
        # reads it — no replacement, and the top-up walks gi_ps only)
        if not joins_stored_master:
            master.add_primary_subgraph(gi_ps, vmi.name)

        # -- lines 22-28: execute base replacement ---------------------------------
        replaced = 0
        migrated: list = []
        for obsolete in selection.replace:
            key = obsolete.blob_key()
            if self.repo.has_master_graph(key):
                master.merge_from(self.repo.get_master_graph(key))
            migrated.extend(self.repo.vmi_records_for_base(key))
            self.repo.repoint_vmis(key, base_key)
            self.repo.remove_base_image(key)
            self.selection_memo.forget_base(key)
            self.clock.advance(self.cost.metadata_update(), "select-base")
            replaced += 1
        if replaced:
            # the merged master may have absorbed members whose deletion
            # is still awaiting GC; the next pass must re-derive this
            # base to prune them
            self.repo.mark_base_dirty(base_key)

        # -- provision top-up: the selected base may provide fewer
        # packages than the upload's own base, or than a base it just
        # replaced.  Any member-closure package the selected base does
        # not provide must be stored, or the affected VMIs could never
        # be reassembled (fsck: "unretrievable-package").  Without a
        # replacement only the upload's own closure can need topping
        # up — existing members already satisfied this (immutable) base
        # — so the full-master scan is reserved for replacements.
        topup_packages = (
            master.package_graph.packages()
            if replaced
            else gi_ps.packages()
        )
        for pkg in topup_packages:
            if pkg.name in selected_base_names:
                continue
            if not self.repo.has_package(pkg):
                self.clock.advance(
                    self.cost.export_package(pkg), "export"
                )
                self.repo.store_package(pkg)
                exported.append(pkg.name)

        # migrated records' contributions were derived against the base
        # they were published on; re-derive them against the selected
        # base now, so the refcounts and join rows stay exact between
        # GC passes (reclaimable_bytes stays an exact estimate)
        for record in migrated:
            contribution: set[int] = set()
            for pname in record.primary_names:
                if not master.has_package(pname):
                    continue
                subgraph = master.extract_primary_subgraph(
                    pname, record.primary_version(pname)
                )
                contribution |= {
                    p.blob_key()
                    for p in subgraph.packages()
                    if p.name not in selected_base_names
                    and self.repo.has_package(p)
                }
            self.repo.reassign_vmi_packages(
                record.name, sorted(contribution)
            )

        # -- line 29: persist the master graph + the VMI record ---------------------
        if joins_stored_master:
            self.repo.add_master_member(base_key, gi_ps, vmi.name)
        else:
            self.repo.put_master_graph(master)
        self.clock.advance(self.cost.metadata_update(), "metadata")
        primaries = gi_ps.primary_packages()
        # the record's contribution: exactly the stored blobs Algorithm 3
        # imports for it — the primary closure minus what the *selected*
        # base provides.  The repository's liveness refcounts count these.
        self.repo.record_vmi(
            VMIRecord(
                name=vmi.name,
                base_key=base_key,
                primary_names=tuple(p.name for p in primaries),
                data_label=data.label if data is not None else None,
                mounted_size=upload_mounted_size,
                n_files=upload_n_files,
                primary_identities=tuple(p.identity for p in primaries),
            ),
            package_keys=[
                p.blob_key()
                for p in gi_ps.packages()
                if p.name not in selected_base_names
                and self.repo.has_package(p)
            ],
        )
        handle.shutdown()

        return {
            "similarity": analysis.similarity,
            "exported": exported,
            "dedup": dedup,
            "stored_new_base": stored_new_base,
            "replaced": replaced,
        }
