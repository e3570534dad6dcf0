"""Base image selection — Algorithm 2 of the paper.

Given the base image ``BI`` left over after decomposition, its subgraph
``GI[BI]`` and the upload's primary subgraph ``GI[PS]``, choose which
base image the repository should keep: ``BI`` itself, or an
already-stored, semantically similar base that is compatible with the
upload's primaries — and compute the *replace list* of stored bases the
chosen one makes obsolete.

Candidate generation (paper lines 1-12): the candidate set is ``BI``
plus every stored base whose attribute quadruple matches
(``simBI = 1``), each paired with the primary subgraphs its master
graph carries.

Replaceability (paper lines 13-19): base ``X`` can replace base ``Y``
when ``X ≠ Y`` and ``X`` is semantically compatible with the primary
subgraphs associated with ``Y``.  The paper's listing tests pairwise
triples; we require compatibility with *all* of ``Y``'s primary
subgraphs, since replacing ``Y`` migrates every one of its member VMIs
(a base compatible with only some members would break the others).
This is the evident intent; the difference only shows on bases with
heterogeneous members.  (Line 16 of the listing also has a ``← i`` /
``← j`` typo which we fix — see DESIGN.md.)

Ranking (paper line 27): quadruples sort by (1) longer replace list,
(2) smaller total base-subgraph package size, (3) base already stored
in the repository (no unnecessary storage).

Equality between base images is *content* equality (same attribute
quadruple and same package population — i.e. the same stored blob), so
re-uploading a VMI built on an already-stored base selects the stored
copy instead of storing bytes twice.

Scaling (DESIGN.md, "Indexed base selection"): candidate generation
defaults to the repository's base-attribute index
(:meth:`~repro.repository.repo.Repository.base_images_matching`), which
touches only bases sharing the upload's quadruple family instead of
scanning the whole store; ``use_index=False`` keeps the paper-literal
full scan, and both paths return identical selections.  A
:class:`SelectionMemo` carried across publishes caches base subgraphs,
base-package footprints, precomputed base score vectors (name→package
maps), per-homonym similarity verdicts and whole-pair compatibility
verdicts, all keyed by content (blob keys, master-graph revisions) so
hits are always sound.

Replaceability against a *stored* base is answered from its master
graph's package-population fingerprint
(:meth:`~repro.repository.master_graphs.MasterGraph.package_population`)
instead of extracting every member's primary subgraph: the two
predicates are provably equal (see :meth:`SelectionMemo.can_replace`),
and the fingerprint path costs O(shared package names) per pair.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass

from repro.model.graph import SemanticGraph
from repro.model.package import Package
from repro.model.vmi import BaseImage
from repro.repository.master_graphs import base_subgraph_of
from repro.repository.repo import Repository
from repro.similarity.base import same_base_attrs
from repro.similarity.compatibility import is_compatible
from repro.similarity.package import package_similarity

__all__ = [
    "BaseSelection",
    "SelectionMemo",
    "SelectionStats",
    "select_base_image",
]


@dataclass(frozen=True)
class _Candidate:
    """One base image under consideration, with its member population."""

    base: BaseImage
    base_subgraph: SemanticGraph
    #: the primary subgraphs this base must keep serving — populated
    #: only for the upload's own candidate (its single GI[PS]); stored
    #: candidates carry their aggregate ``population`` instead
    primary_subgraphs: tuple[SemanticGraph, ...]
    #: True when this is the freshly decomposed (not yet stored) base
    is_new: bool
    #: revision of the master graph the subgraphs came from; None for
    #: the upload's own candidate, whose primaries are not cacheable by
    #: blob key (same base blob, different upload, different primaries)
    member_revision: int | None = None
    #: package-population fingerprint of the candidate's master graph
    #: (name → member package vertices); ``None`` when the candidate has
    #: no master — the upload's own candidate and first-member stored
    #: bases fall back to the subgraph compatibility path
    population: dict[str, list[Package]] | None = None

    @property
    def key(self) -> int:
        return self.base.blob_key()


@dataclass(frozen=True)
class BaseSelection:
    """Result of Algorithm 2."""

    #: the base image to keep (may be ``BI`` itself or a stored one)
    base: BaseImage
    #: stored bases made obsolete by the selection (to merge + delete)
    replace: tuple[BaseImage, ...] = ()
    #: True when ``base`` is the freshly decomposed image (must be stored)
    is_new: bool = True

    def replaced_keys(self) -> list[int]:
        return [b.blob_key() for b in self.replace]


@dataclass
class SelectionStats:
    """Per-publish work counters for Algorithm 2 (benchmark probes)."""

    #: select_base_image invocations recorded into this memo
    calls: int = 0
    #: stored bases examined during candidate generation (the full
    #: repository on the scan path; the matching slice on the indexed)
    bases_considered: int = 0
    #: attribute-matching candidates that entered the quadruple loop
    candidates: int = 0
    #: candidate-pair replaceability decisions requested
    compat_checks: int = 0
    #: of those, answered from the memo without graph work
    compat_cache_hits: int = 0

    def snapshot(self) -> "SelectionStats":
        return dataclasses.replace(self)

    def since(self, before: "SelectionStats") -> "SelectionStats":
        """The counter delta between ``before`` and now."""
        return SelectionStats(**{
            f.name: getattr(self, f.name) - getattr(before, f.name)
            for f in dataclasses.fields(self)
        })


class SelectionMemo:
    """Cross-publish caches for Algorithm 2, all content-keyed.

    Base images are content-addressed, so anything derived from one is
    cached by its blob key forever; anything derived from a master
    graph's membership is keyed by ``(base_key, revision)`` and
    invalidates automatically when members merge in.  Pairs involving
    the *upload's own* primary subgraph are never cached — two uploads
    can share a base blob yet carry different primaries.

    Caches are bounded by *live* state, not by publish count: per
    candidate pair only the latest master revision's verdict is kept,
    and :meth:`forget_base` (called when Algorithm 1 deletes a replaced
    base) drops everything derived from a removed blob.
    """

    def __init__(self) -> None:
        self.stats = SelectionStats()
        #: several publish shards may share one memo (DESIGN.md §12):
        #: every cache read-through and counter bump happens under this
        #: mutex, so a concurrent reader can never observe a torn entry
        #: or a half-updated verdict
        self._mutex = threading.RLock()
        #: blob key -> GI[BI] for stored bases without a master graph
        self._base_subgraphs: dict[int, SemanticGraph] = {}
        #: blob key -> total installed size of the base's packages
        self._base_pkg_sizes: dict[int, int] = {}
        #: (candidate key, other key) -> (other master revision,
        #: verdict of "candidate base is compatible with all of other's
        #: members"); superseded revisions are overwritten in place
        self._compat: dict[tuple[int, int], tuple[int, bool]] = {}
        #: blob key -> the base's score vector: its name→package map,
        #: precomputed once per base so every compatibility test against
        #: it is a dict probe per shared name
        self._base_maps: dict[int, dict[str, Package]] = {}
        #: (base package blob key, member package blob key) -> whether
        #: simP == 1 for the homonym pair; package payloads are
        #: content-addressed, so the verdict is valid forever
        self._pair_compat: dict[tuple[int, int], bool] = {}

    def clear(self) -> None:
        with self._mutex:
            self._base_subgraphs.clear()
            self._base_pkg_sizes.clear()
            self._compat.clear()
            self._base_maps.clear()
            self._pair_compat.clear()

    def forget_base(self, key: int) -> None:
        """Drop everything derived from a removed base blob."""
        with self._mutex:
            self._base_subgraphs.pop(key, None)
            self._base_pkg_sizes.pop(key, None)
            self._base_maps.pop(key, None)
            for pair in [p for p in self._compat if key in p]:
                del self._compat[pair]

    # -- cached derivations --------------------------------------------

    def base_subgraph(self, stored: BaseImage, key: int) -> SemanticGraph:
        with self._mutex:
            sub = self._base_subgraphs.get(key)
            if sub is None:
                sub = base_subgraph_of(stored)
                self._base_subgraphs[key] = sub
            return sub

    def base_package_size(self, cand: "_Candidate") -> int:
        with self._mutex:
            size = self._base_pkg_sizes.get(cand.key)
            if size is None:
                size = sum(
                    p.installed_size
                    for p in cand.base_subgraph.packages()
                )
                self._base_pkg_sizes[cand.key] = size
            return size

    def can_replace(self, cand: "_Candidate", other: "_Candidate") -> bool:
        """Is ``cand``'s base compatible with all of ``other``'s members?

        Candidates carrying a master-graph population answer through the
        aggregate fingerprint: every member subgraph is a subset of the
        master's package vertices and every vertex belongs to some
        member's (only-growing) closure, so "compatible with each member
        subgraph" is exactly "every homonym between the base and the
        package population has ``simP == 1``" — O(shared names) with no
        subgraph extraction.  Candidates without a master (the upload
        itself, first-member bases) keep the literal per-subgraph check;
        both paths compute the same predicate.
        """
        with self._mutex:
            self.stats.compat_checks += 1
            cache_key = None
            if other.member_revision is not None:
                cache_key = (cand.key, other.key)
                hit = self._compat.get(cache_key)
                if hit is not None and hit[0] == other.member_revision:
                    self.stats.compat_cache_hits += 1
                    return hit[1]
            if other.population is not None:
                verdict = self._population_compatible(
                    cand, other.population
                )
            else:
                verdict = all(
                    is_compatible(cand.base_subgraph, sub)
                    for sub in other.primary_subgraphs
                )
            if cache_key is not None:
                self._compat[cache_key] = (other.member_revision, verdict)
            return verdict

    # reprolint: unguarded — caller-holds-the-mutex helper (see
    # docstring); every call site is inside 'with self._mutex'
    def _population_compatible(
        self,
        cand: "_Candidate",
        population: dict[str, list[Package]],
    ) -> bool:
        """``comp == 1`` of the base against an aggregate population.

        Caller holds the mutex.  Per-homonym verdicts are memoised by
        content (blob-key pairs), so repeated candidate pairings across
        publishes reduce to int-keyed dict probes.
        """
        base_map = self._base_maps.get(cand.key)
        if base_map is None:
            base_map = {p.name: p for p in cand.base_subgraph.packages()}
            self._base_maps[cand.key] = base_map
        pair_compat = self._pair_compat
        # probe through the smaller side: shared names are the
        # intersection either way
        names = base_map if len(base_map) <= len(population) else population
        for name in names:
            counterpart = base_map.get(name)
            if counterpart is None:
                continue
            members = population.get(name)
            if not members:
                continue
            ckey = counterpart.blob_key()
            for pkg in members:
                pair = (ckey, pkg.blob_key())
                ok = pair_compat.get(pair)
                if ok is None:
                    ok = package_similarity(counterpart, pkg) == 1.0
                    pair_compat[pair] = ok
                if not ok:
                    return False
        return True


def select_base_image(
    bi: BaseImage,
    gi_bi: SemanticGraph,
    gi_ps: SemanticGraph,
    repo: Repository,
    *,
    memo: SelectionMemo | None = None,
    use_index: bool = True,
) -> BaseSelection:
    """Algorithm 2: pick the base to keep and the bases it replaces.

    ``use_index`` selects indexed candidate generation (the default)
    or the paper-literal full scan; the two return identical selections.
    ``memo`` carries content-keyed caches across publishes — pass the
    same instance repeatedly (as :class:`~repro.core.publisher.
    VMIPublisher` does) to amortise subgraph and compatibility work.
    """
    memo = memo if memo is not None else SelectionMemo()
    memo.stats.calls += 1

    # -- lines 1-12: candidate set -------------------------------------
    candidates: list[_Candidate] = [
        _Candidate(
            base=bi,
            base_subgraph=gi_bi,
            primary_subgraphs=(gi_ps,),
            is_new=True,
            member_revision=None,
        )
    ]
    new_key = bi.blob_key()
    if use_index:
        matching = repo.base_images_matching(bi.attrs)
        memo.stats.bases_considered += len(matching)
    else:
        matching = []
        for stored in repo.base_images():
            memo.stats.bases_considered += 1
            if same_base_attrs(bi.attrs, stored.attrs):
                matching.append(stored)
    for stored in matching:
        stored_key = stored.blob_key()
        population = None
        if repo.has_master_graph(stored_key):
            master = repo.get_master_graph(stored_key)
            population = master.package_population()
            base_sub = master.base_subgraph
            revision = master.revision
        else:
            base_sub = memo.base_subgraph(stored, stored_key)
            revision = 0
        candidates.append(
            _Candidate(
                base=stored,
                base_subgraph=base_sub,
                primary_subgraphs=(),
                is_new=False,
                member_revision=revision,
                population=population,
            )
        )
    memo.stats.candidates += len(candidates)

    # -- lines 13-26: replaceability + quadruples ------------------------
    quadruples: list[tuple[_Candidate, list[BaseImage], int]] = []
    for cand in candidates:
        replace: list[BaseImage] = []
        seen_keys = {cand.key}
        for other in candidates:
            if other.key in seen_keys:
                continue
            if memo.can_replace(cand, other):
                replace.append(other.base)
                seen_keys.add(other.key)
        if replace:
            quadruples.append(
                (cand, replace, memo.base_package_size(cand))
            )

    # -- line 27: sort by the three criteria ------------------------------
    quadruples.sort(
        key=lambda q: (
            -len(q[1]),  # more replaced bases first
            q[2],  # smaller base-package footprint first
            q[0].is_new,  # prefer bases already in the repository
        )
    )

    # -- lines 28-32: first quadruple naming BI or replacing it -----------
    for cand, replace, _ in quadruples:
        replace_keys = {b.blob_key() for b in replace}
        if cand.key == new_key or new_key in replace_keys:
            # drop the new (never-stored) base from the replace list:
            # there is nothing to delete or migrate for it
            stored_replacements = tuple(
                b for b in replace if b.blob_key() != new_key
            )
            return BaseSelection(
                base=cand.base,
                replace=stored_replacements,
                is_new=cand.is_new and not repo.blobs.contains(cand.key),
            )

    # -- line 33: keep the new base, nothing replaced ----------------------
    return BaseSelection(
        base=bi, replace=(), is_new=not repo.blobs.contains(new_key)
    )
