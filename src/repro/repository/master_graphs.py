"""VMI master graphs (Section III-H).

A master graph represents *all* published VMIs that share one stored
base image: the base-image subgraph plus the union of their primary
package subgraphs.  Its purpose is performance — a new upload is
compared against one master graph instead of against every stored VMI —
and correctness: the invariant is that the base subgraph is semantically
compatible (``comp = 1``) with every member primary subgraph.

Master graphs are keyed by the *stored base image* (its blob key), not
merely by the attribute quadruple: Algorithm 2 explicitly iterates
multiple stored base images with identical ``(T, D, V, A)`` and merges
their master graphs when one base can replace the others.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import GraphModelError
from repro.model.attributes import BaseImageAttrs
from repro.model.graph import (
    GraphRefs,
    PackageRole,
    SemanticGraph,
    first_newest,
)
from repro.model.package import Package
from repro.model.vmi import BaseImage
from repro.similarity.compatibility import is_compatible

__all__ = [
    "MasterGraph",
    "MasterRefs",
    "base_subgraph_of",
    "ensure_revision_floor",
    "issue_revision",
    "master_content",
    "master_from_refs",
    "master_from_state",
    "master_refs",
    "master_state",
]


class _RevisionSource:
    """Process-wide monotonic source for :attr:`MasterGraph.revision`.

    ``(base_key, revision)`` must never name two different membership
    states — including across snapshot reloads, where restored masters
    carry revisions issued by an *earlier* process.  Restoring code
    raises the floor past the highest restored revision so freshly
    issued revisions can never collide with restored ones.
    """

    def __init__(self) -> None:
        self._last = 0

    def advance(self) -> int:
        self._last += 1
        return self._last

    def ensure_floor(self, floor: int) -> None:
        self._last = max(self._last, floor)


_REVISIONS = _RevisionSource()


def ensure_revision_floor(floor: int) -> None:
    """Guarantee future revisions exceed ``floor`` (snapshot restore)."""
    _REVISIONS.ensure_floor(floor)


def issue_revision() -> int:
    """Draw a fresh membership revision ahead of the mutation it names.

    A journaled membership change must record its resulting revision
    *before* it is applied (write-ahead); it draws here and passes the
    value to :meth:`MasterGraph.add_primary_subgraph`.
    """
    return _REVISIONS.advance()


def master_state(master: "MasterGraph") -> dict:
    """A master's reload-relevant content as plain data, by value.

    Everything that cannot be re-derived from the stored base alone:
    the merged package graph, the member list, and the membership
    revision.  The values are the *live* objects.  Copying a master
    into another repository (federation rebalance) uses it; durable
    files hold :class:`MasterRefs` instead.
    """
    return {
        "base_key": master.base_key,
        "package_graph": master.package_graph,
        "member_vmis": list(master.member_vmis),
        "revision": master.revision,
    }


class MasterRefs(NamedTuple):
    """A master graph by reference, as snapshots and op-log records
    hold it: its base's key, its package graph as
    :class:`~repro.model.graph.GraphRefs`, its members and revision."""

    base_key: int
    graph: GraphRefs
    members: tuple[str, ...]
    revision: int


def master_refs(
    master: "MasterGraph", ref: Callable[[Package], object]
) -> MasterRefs:
    """``master`` with each vertex payload written as ``ref(payload)``
    (see :meth:`SemanticGraph.to_refs`)."""
    return MasterRefs(
        master.base_key,
        master.package_graph.to_refs(ref),
        tuple(master.member_vmis),
        master.revision,
    )


def master_content(master: "MasterGraph") -> tuple:
    """A master's order-sensitive content, for equality checks.

    The ordered ``(vertex key, role)`` list, the edge set and the
    ordered member list: everything reload fidelity must reproduce
    beyond the revision.  Vertex order matters — :meth:`find_package`
    and the walks of Algorithms 2 and 3 follow it.
    """
    graph = master.package_graph
    return (
        tuple((key, role.value) for key, _, role in graph.package_nodes()),
        frozenset(graph.edges()),
        tuple(master.member_vmis),
    )


def master_from_state(base: BaseImage, state: dict) -> "MasterGraph":
    """Rebuild a master graph around a stored base from
    :func:`master_state`'s plain data (the package graph object itself
    is adopted).  State without a revision (snapshot format v1)
    restores at revision 0.  See :func:`master_from_refs`."""
    return _restored(
        base,
        state["package_graph"],
        state["member_vmis"],
        state.get("revision", 0),
    )


def master_from_refs(
    base: BaseImage, refs: MasterRefs, resolve: Callable[[int], Package]
) -> "MasterGraph":
    """Rebuild a master graph around a stored base from
    :class:`MasterRefs`, each blob key read back through ``resolve``.

    Restores the saved membership revision exactly — a reloaded plan
    cache revalidates against the same ``(base_key, revision)`` pair it
    was derived under — and raises the process-wide revision floor so
    post-reload mutations can never reissue a restored revision for
    different membership.
    """
    return _restored(
        base,
        SemanticGraph.from_refs(refs.graph, resolve),
        refs.members,
        refs.revision,
    )


def _restored(
    base: BaseImage, graph: SemanticGraph, members, revision: int
) -> "MasterGraph":
    master = MasterGraph.for_base(base)
    master.package_graph = graph
    master.member_vmis = list(members)
    master.revision = revision
    ensure_revision_floor(revision)
    return master


def base_subgraph_of(base: BaseImage) -> SemanticGraph:
    """Build ``GI[BI]`` for a stored base image.

    Vertices: the base-image vertex plus every OS package; edges: the
    Depends relation restricted to the base population.
    """
    g = SemanticGraph()
    g.add_base_image(base.attrs)
    keys: dict[str, str] = {}
    for pkg in base.packages:
        keys[pkg.name] = g.add_package(pkg, PackageRole.BASE_MEMBER)
    for pkg in base.packages:
        for dep in pkg.dependency_names():
            if dep in keys:
                g.add_dependency_edge(keys[pkg.name], keys[dep])
    return g


@dataclass
class MasterGraph:
    """One stored base image plus the union of member package subgraphs."""

    base: BaseImage
    base_subgraph: SemanticGraph
    package_graph: SemanticGraph = field(default_factory=SemanticGraph)
    #: names of VMIs whose primary subgraphs were merged in
    member_vmis: list[str] = field(default_factory=list)
    #: advanced on every membership mutation, drawn from a process-wide
    #: monotonic counter so ``(base_key, revision)`` never names two
    #: different membership states — even across GC rebuilds, which
    #: start a fresh MasterGraph object for an existing base.  Derived
    #: results (extracted member subgraphs, compatibility verdicts) are
    #: cached under this pair and invalidate when members change.
    revision: int = 0
    #: identity of this object's append-only history, drawn from the
    #: same counter as ``revision`` when the object is built.  Within
    #: one lineage ``package_graph`` only grows (vertices and edges are
    #: appended, never removed or re-payloaded); a GC rebuild, restore
    #: or new master is a new object and so a new lineage.  Process-
    #: local: never persisted.
    lineage: int = field(
        default_factory=_REVISIONS.advance, init=False, compare=False
    )
    #: package-population fingerprint: name -> every package vertex of
    #: ``package_graph`` bearing that name, in vertex insertion order.
    #: Maintained incrementally by :meth:`add_primary_subgraph`, built
    #: lazily on objects whose ``package_graph`` was assigned directly
    #: (snapshot restore).  Backs the O(shared-names) compatibility
    #: check of Algorithm 2 — see :meth:`package_population`.
    _population: dict[str, list[Package]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: incrementally maintained ``{p.name: p}`` over ``full_graph()``
    #: iteration order — the exact map ``SimG`` consumes, without the
    #: per-comparison copy+union.  See :meth:`full_package_map`.
    _full_map: dict[str, Package] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: ``len(package_graph)`` when the fingerprints were last synced;
    #: a mismatch means someone mutated the graph without going through
    #: :meth:`add_primary_subgraph` (tests poking internals, restores),
    #: and the maps rebuild lazily.  Vertices are never removed in
    #: place, so the node count detects every population change.
    _fingerprint_nodes: int = field(
        default=-1, init=False, repr=False, compare=False
    )

    @classmethod
    def for_base(cls, base: BaseImage) -> "MasterGraph":
        return cls(base=base, base_subgraph=base_subgraph_of(base))

    @property
    def attrs(self) -> BaseImageAttrs:
        return self.base.attrs

    @property
    def base_key(self) -> int:
        return self.base.blob_key()

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def require_compatible(self, subgraph: SemanticGraph) -> None:
        """Raise unless ``subgraph`` may join this master.

        Raises:
            GraphModelError: if the subgraph is not semantically
                compatible with the base — the master-graph invariant of
                Section III-H would break.
        """
        if not is_compatible(self.base_subgraph, subgraph):
            raise GraphModelError(
                "primary subgraph is incompatible with master-graph base "
                f"{self.base.attrs}"
            )

    def add_primary_subgraph(
        self,
        subgraph: SemanticGraph,
        vmi_name: str | None = None,
        *,
        revision: int | None = None,
    ) -> None:
        """Union a primary package subgraph in (Algorithm 1 line 21).

        The master moves to a fresh revision, or to ``revision`` when
        given — one drawn by :func:`issue_revision` or replayed from a
        journal, which also raises the revision floor past it.

        Raises:
            GraphModelError: see :meth:`require_compatible`.
        """
        self.require_compatible(subgraph)
        self.add_compatible_subgraph(subgraph, vmi_name, revision=revision)

    def add_compatible_subgraph(
        self,
        subgraph: SemanticGraph,
        vmi_name: str | None = None,
        *,
        revision: int | None = None,
    ) -> None:
        """:meth:`add_primary_subgraph` for a subgraph the caller has
        just passed through :meth:`require_compatible`."""
        self._sync_fingerprints()
        fresh: list[Package] | None = None
        if self._population is not None or self._full_map is not None:
            # packages the union is about to add as new vertices, in the
            # subgraph's iteration order — exactly how union_update adds
            # them, so the incremental fingerprints mirror a from-scratch
            # rebuild bit for bit
            pg = self.package_graph
            fresh = [
                p
                for p in subgraph.packages()
                if pg.package_key(p) not in pg
            ]
        self.package_graph.union_update(subgraph)
        if fresh:
            base_g = self.base_subgraph
            for pkg in fresh:
                if self._population is not None:
                    self._population.setdefault(pkg.name, []).append(pkg)
                if self._full_map is not None and (
                    base_g.package_key(pkg) not in base_g
                ):
                    # a vertex the base already provides adds no node to
                    # full_graph(), so it cannot shift the name→package
                    # map either
                    self._full_map[pkg.name] = pkg
        self._fingerprint_nodes = len(self.package_graph)
        if revision is None:
            revision = _REVISIONS.advance()
        else:
            _REVISIONS.ensure_floor(revision)
        self.revision = revision
        if vmi_name is not None and vmi_name not in self.member_vmis:
            self.member_vmis.append(vmi_name)

    def merge_from(self, other: "MasterGraph") -> None:
        """Absorb another master graph's packages (base replacement).

        Used by Algorithm 1 lines 22-27: when Algorithm 2 decides this
        master's base can replace ``other``'s base, every primary
        subgraph of ``other`` migrates here.

        Raises:
            GraphModelError: if any migrated primary subgraph is
                incompatible with this base (Algorithm 2 guarantees it
                never is; the check guards the invariant anyway).
        """
        for pkg in other.primary_packages():
            sub = other.extract_primary_subgraph(
                pkg.name, str(pkg.version)
            )
            self.add_primary_subgraph(sub)
        for name in other.member_vmis:
            if name not in self.member_vmis:
                self.member_vmis.append(name)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def primary_packages(self) -> list[Package]:
        """All primary packages merged into this master graph."""
        return self.package_graph.primary_packages()

    def primary_root(self, name: str, version: str | None = None) -> str:
        """The vertex key ``GI[P]`` grows from: among the vertices named
        ``name`` (and versioned ``version``, when given), the first of
        maximal version — read from :meth:`package_population`, no
        vertex scan.

        Raises:
            GraphModelError: if no matching vertex exists.
        """
        root = first_newest(
            self.package_population().get(name, ()), name, version
        )
        return self.package_graph.package_key(root)

    def extract_primary_subgraph(
        self, name: str, version: str | None = None
    ) -> SemanticGraph:
        """``GI[P]`` of one member primary (Algorithm 2 line 9).

        ``version`` disambiguates when several versions of the primary
        were published over time (defaults to the newest).
        """
        return self.package_graph.closure_subgraph(
            self.primary_root(name, version)
        )

    def full_graph(self) -> SemanticGraph:
        """Base subgraph ∪ package graph — ``GM`` as Section III-H."""
        g = self.base_subgraph.copy()
        g.union_update(self.package_graph)
        return g

    # ------------------------------------------------------------------
    # fingerprints (profile-driven publish fast paths)
    # ------------------------------------------------------------------

    def _sync_fingerprints(self) -> None:
        """Drop the maps if the package graph changed behind our back."""
        nodes = len(self.package_graph)
        if nodes != self._fingerprint_nodes:
            self._population = None
            self._full_map = None
            self._fingerprint_nodes = nodes

    def package_population(self) -> dict[str, list[Package]]:
        """Name → all package vertices of the merged package graph.

        Because every vertex of ``package_graph`` entered through some
        member's primary subgraph and dependency closures only ever
        grow, the union of the current members' subgraph populations is
        exactly this vertex set.  Algorithm 2's replaceability test —
        "is base X compatible with *every* member subgraph of Y" —
        therefore reduces to checking X against this aggregate
        population, with no per-member subgraph extraction at all
        (see :meth:`SelectionMemo.can_replace`).  Treat as read-only.
        """
        self._sync_fingerprints()
        if self._population is None:
            population: dict[str, list[Package]] = {}
            for pkg in self.package_graph.packages():
                population.setdefault(pkg.name, []).append(pkg)
            self._population = population
        return self._population

    def full_package_map(self) -> dict[str, Package]:
        """``{p.name: p for p in full_graph().packages()}``, maintained
        incrementally.

        ``SimG`` reads a graph only through this map (plus base attrs),
        so the analyzer can score an upload against a master without
        materialising the copy+union ``full_graph()`` builds.  Treat as
        read-only.
        """
        self._sync_fingerprints()
        if self._full_map is None:
            full_map = {
                p.name: p for p in self.base_subgraph.packages()
            }
            base_g = self.base_subgraph
            for pkg in self.package_graph.packages():
                if base_g.package_key(pkg) not in base_g:
                    full_map[pkg.name] = pkg
            self._full_map = full_map
        return self._full_map

    def has_package(self, name: str) -> bool:
        return name in self.package_population()

    def find_package(self, name: str) -> Package | None:
        """A package by name, checking members first, then the base."""
        hits = self.package_population().get(name)
        if hits:
            # graph iteration finds the earliest-inserted vertex first
            return hits[0]
        return self.base.find_package(name)

    def check_invariant(self) -> bool:
        """Is every member primary subgraph compatible with the base?"""
        return all(
            is_compatible(
                self.base_subgraph,
                self.extract_primary_subgraph(p.name, str(p.version)),
            )
            for p in self.primary_packages()
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MasterGraph base={self.base.attrs} "
            f"primaries={len(self.primary_packages())} "
            f"members={len(self.member_vmis)}>"
        )
