"""The VMI semantic graph of Section III-B.

A :class:`SemanticGraph` is a directed graph (cycles allowed — libc6,
perl-base and dpkg depend on each other in Figure 1a) whose vertices are
the base image plus all primary and dependency packages of a VMI, and
whose edges express "depends on".

Three induced subgraphs matter to the algorithms:

* ``GI[BI]`` — the *base-image subgraph*: the base-image vertex plus every
  package that belongs to the guest OS itself (role ``BASE_MEMBER``);
* ``GI[PS]`` — the *primary-package subgraph*: the primary packages plus
  their transitive dependency closure.  Dependencies satisfied by base
  packages appear here with the base's version, which is exactly what the
  semantic-compatibility check of Section III-G compares;
* ``GI[P]`` for a single primary ``P`` — ``P`` plus its closure, used when
  master graphs are merged (Algorithm 1 line 25, Algorithm 2 line 9).

The class wraps :class:`networkx.DiGraph` so callers get the full graph
toolbox (cycle detection, reachability) while the library controls node
identity and payloads.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator

import networkx as nx

from repro.errors import GraphModelError
from repro.model.attributes import BaseImageAttrs
from repro.model.package import Package

__all__ = ["NodeKind", "PackageRole", "SemanticGraph"]


class NodeKind(enum.Enum):
    """What a graph vertex represents."""

    BASE_IMAGE = "base-image"
    PACKAGE = "package"


class PackageRole(enum.Enum):
    """Why a package vertex is part of the VMI (Section III-A)."""

    #: Member of the primary package set ``PS`` (user-requested).
    PRIMARY = "primary"
    #: Member of the dependency package set ``DS``.
    DEPENDENCY = "dependency"
    #: Ships with the base OS itself.
    BASE_MEMBER = "base-member"


def _base_key(attrs: BaseImageAttrs) -> str:
    return f"base!{attrs.os_type}/{attrs.distro}-{attrs.version}-{attrs.arch}"


def _pkg_key(pkg: Package) -> str:
    # cached per (frozen) instance: the same payload is added to many
    # graphs — every publish builds the VMI graph, two subgraphs and a
    # master union from the same Package objects — and str formatting a
    # Version dominates the add path otherwise.  Python strings cache
    # their own hash, so repeated node lookups hash once.
    key: str | None = pkg.__dict__.get("_node_key")
    if key is None:
        key = f"pkg!{pkg.name}={pkg.version}:{pkg.arch}"
        object.__setattr__(pkg, "_node_key", key)
    return key


class SemanticGraph:
    """Directed, possibly cyclic VMI semantic graph.

    Vertices are keyed by stable strings so that unioning two graphs
    (master-graph construction, Section III-H) deduplicates identical
    packages automatically.
    """

    def __init__(self) -> None:
        self._g = nx.DiGraph()
        self._base_node: str | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_base_image(self, attrs: BaseImageAttrs) -> str:
        """Add (or assert) the unique base-image vertex.

        Raises:
            GraphModelError: if a *different* base image is already present.
        """
        key = _base_key(attrs)
        if self._base_node is not None and self._base_node != key:
            raise GraphModelError(
                f"graph already has base image {self._base_node!r}; "
                f"cannot add {key!r}"
            )
        self._g.add_node(key, kind=NodeKind.BASE_IMAGE, attrs=attrs)
        self._base_node = key
        return key

    def add_package(self, pkg: Package, role: PackageRole) -> str:
        """Add a package vertex; re-adding may only *strengthen* the role.

        Role precedence is ``PRIMARY > BASE_MEMBER > DEPENDENCY`` so that a
        package first seen as a dependency and later requested as primary
        keeps the stronger classification.
        """
        key = _pkg_key(pkg)
        if key in self._g:
            existing = self._g.nodes[key]["role"]
            if _role_rank(role) > _role_rank(existing):
                self._g.nodes[key]["role"] = role
        else:
            self._g.add_node(key, kind=NodeKind.PACKAGE, package=pkg, role=role)
        return key

    def add_dependency_edge(self, src_key: str, dst_key: str) -> None:
        """Record that ``src`` depends on ``dst`` (both must exist)."""
        if src_key not in self._g or dst_key not in self._g:
            raise GraphModelError(
                f"dependency edge references unknown node(s): "
                f"{src_key!r} -> {dst_key!r}"
            )
        self._g.add_edge(src_key, dst_key)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def nx_graph(self) -> nx.DiGraph:
        """The underlying networkx graph (treat as read-only)."""
        return self._g

    @property
    def base_attrs(self) -> BaseImageAttrs | None:
        """Attributes of the base-image vertex, if present."""
        if self._base_node is None:
            return None
        attrs: BaseImageAttrs = self._g.nodes[self._base_node]["attrs"]
        return attrs

    @property
    def base_node(self) -> str | None:
        return self._base_node

    def __len__(self) -> int:
        return int(self._g.number_of_nodes())

    def __contains__(self, key: str) -> bool:
        return key in self._g

    def n_edges(self) -> int:
        return int(self._g.number_of_edges())

    def has_package(self, name: str) -> bool:
        """Is any version of package ``name`` a vertex of this graph?"""
        return any(p.name == name for p in self.packages())

    def packages(self) -> Iterator[Package]:
        """All package payloads, in insertion order."""
        for _, data in self._g.nodes(data=True):
            if data["kind"] is NodeKind.PACKAGE:
                yield data["package"]

    def package_nodes(self) -> Iterator[tuple[str, Package, PackageRole]]:
        """(key, package, role) triples for every package vertex."""
        for key, data in self._g.nodes(data=True):
            if data["kind"] is NodeKind.PACKAGE:
                yield key, data["package"], data["role"]

    def packages_with_role(self, role: PackageRole) -> list[Package]:
        return [p for _, p, r in self.package_nodes() if r is role]

    def primary_packages(self) -> list[Package]:
        """The primary package set ``PS`` as payloads."""
        return self.packages_with_role(PackageRole.PRIMARY)

    def find_package(self, name: str) -> Package | None:
        """The (unique) vertex payload named ``name``, else ``None``."""
        for p in self.packages():
            if p.name == name:
                return p
        return None

    def package_key(self, pkg: Package) -> str:
        return _pkg_key(pkg)

    def total_package_size(self) -> int:
        """Sum of installed sizes over all package vertices."""
        return sum(p.installed_size for p in self.packages())

    def has_cycle(self) -> bool:
        """Does the dependency relation contain a cycle (Figure 1a)?"""
        return not nx.is_directed_acyclic_graph(self._g)

    # ------------------------------------------------------------------
    # induced subgraphs (Section III-B / IV-C)
    # ------------------------------------------------------------------

    def dependency_closure(self, roots: Iterable[str]) -> dict[str, None]:
        """All package nodes reachable from ``roots`` along Depends edges.

        The base-image vertex is never part of a closure: the algorithms
        treat the base as the substrate packages sit on, not as a
        dependency target.  The closure comes back as an ordered set
        (dict keys) in discovery order, so the subgraphs induced from
        it — and the install order retrieval derives from them — never
        depend on string hashing (``PYTHONHASHSEED``).
        """
        seen: dict[str, None] = {}
        stack = [r for r in roots if r in self._g]
        while stack:
            node = stack.pop()
            if node in seen or node == self._base_node:
                continue
            seen[node] = None
            stack.extend(self._g.successors(node))
        return seen

    def extract_primary_subgraph(self) -> "SemanticGraph":
        """``GI[PS]``: primaries plus their dependency closure."""
        roots = [
            key
            for key, _, role in self.package_nodes()
            if role is PackageRole.PRIMARY
        ]
        return self._induced(self.dependency_closure(roots), with_base=False)

    def extract_base_subgraph(self) -> "SemanticGraph":
        """``GI[BI]``: the base vertex plus all BASE_MEMBER packages."""
        members = [
            key
            for key, _, role in self.package_nodes()
            if role is PackageRole.BASE_MEMBER
        ]
        return self._induced(members, with_base=True)

    def extract_package_subgraph(
        self, name: str, version: str | None = None
    ) -> "SemanticGraph":
        """``GI[P]`` for one primary package: ``P`` plus its closure.

        When the graph holds several versions of ``name`` (a master
        graph after successive uploads across archive updates), pass
        ``version`` to disambiguate; without it the newest version is
        chosen.

        Raises:
            GraphModelError: if no matching vertex exists.
        """
        candidates = [
            (key, pkg)
            for key, pkg, _ in self.package_nodes()
            if pkg.name == name
            and (version is None or str(pkg.version) == version)
        ]
        if not candidates:
            raise GraphModelError(
                f"package {name!r}"
                + (f" version {version}" if version else "")
                + " is not a graph vertex"
            )
        root, _ = max(candidates, key=lambda kv: kv[1].version)
        return self._induced(self.dependency_closure([root]), with_base=False)

    def _induced(
        self, nodes: Iterable[str], *, with_base: bool
    ) -> "SemanticGraph":
        sub = SemanticGraph()
        # ordered, like ``nodes``: edge insertion order fixes successor
        # order, which later closures over the subgraph walk
        keep = dict.fromkeys(nodes)
        if with_base and self._base_node is not None:
            sub.add_base_image(self._g.nodes[self._base_node]["attrs"])
            keep[self._base_node] = None
        for key in keep:
            data = self._g.nodes[key]
            if data["kind"] is NodeKind.PACKAGE:
                sub.add_package(data["package"], data["role"])
        # walk only the kept nodes' incident edges instead of every edge
        # of the host graph: extraction from a large master graph is
        # O(edges touching the closure), not O(all master edges)
        adj = self._g.adj
        sub_g = sub._g
        for u in keep:
            if u not in sub_g:
                continue
            for v in adj[u]:
                if v in keep and v in sub_g:
                    sub_g.add_edge(u, v)
        return sub

    # ------------------------------------------------------------------
    # union (master-graph construction, Section III-H)
    # ------------------------------------------------------------------

    def union_update(self, other: "SemanticGraph") -> None:
        """In-place union; identical packages merge into one vertex.

        Raises:
            GraphModelError: when the two graphs carry different base
                images — master graphs only union VMIs with identical
                base-image attributes.
        """
        if (
            other._base_node is not None
            and self._base_node is not None
            and other._base_node != self._base_node
        ):
            raise GraphModelError(
                "cannot union graphs with different base images: "
                f"{self._base_node!r} vs {other._base_node!r}"
            )
        if other._base_node is not None and self._base_node is None:
            self.add_base_image(other._g.nodes[other._base_node]["attrs"])
        for _key, data in other._g.nodes(data=True):
            if data["kind"] is NodeKind.PACKAGE:
                self.add_package(data["package"], data["role"])
        for u, v in other._g.edges():
            if u in self._g and v in self._g:
                self._g.add_edge(u, v)

    def copy(self) -> "SemanticGraph":
        """Deep-enough copy (payloads are immutable)."""
        dup = SemanticGraph()
        dup._g = self._g.copy()
        dup._base_node = self._base_node
        return dup

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        n_pkg = sum(1 for _ in self.packages())
        return (
            f"<SemanticGraph base={self.base_attrs} packages={n_pkg} "
            f"edges={self.n_edges()}>"
        )


def _role_rank(role: PackageRole) -> int:
    return {
        PackageRole.DEPENDENCY: 0,
        PackageRole.BASE_MEMBER: 1,
        PackageRole.PRIMARY: 2,
    }[role]
