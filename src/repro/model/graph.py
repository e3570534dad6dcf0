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

The graph is two insertion-ordered dicts — package vertex key →
(payload, role) and vertex key → ordered successor set — so every walk
over it (closures, induced subgraphs, unions) follows discovery order
and never string hashing.  Cycle detection and the catalog's install order share one
iterative Tarjan pass, :func:`strongly_connected_components`.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable, Iterator, Mapping
from typing import Any

from repro.errors import GraphModelError
from repro.model.attributes import BaseImageAttrs
from repro.model.package import Package

__all__ = [
    "NodeKind",
    "PackageRole",
    "SemanticGraph",
    "first_newest",
    "strongly_connected_components",
]


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


#: role precedence when a vertex is re-added: a package first seen as a
#: dependency and later requested as primary keeps the stronger role
_ROLE_RANK = {
    PackageRole.DEPENDENCY: 0,
    PackageRole.BASE_MEMBER: 1,
    PackageRole.PRIMARY: 2,
}


def first_newest(
    candidates: Iterable[Package], name: str, version: str | None = None
) -> Package:
    """The root of ``GI[P]`` among the vertices named ``name``.

    ``candidates`` are those vertices' payloads in vertex order.  With
    ``version`` only payloads whose version string equals it qualify.
    The first payload of maximal version wins, so equal-comparing
    versions resolve to the earliest-inserted vertex.

    Raises:
        GraphModelError: if no candidate qualifies.
    """
    best: Package | None = None
    for pkg in candidates:
        if version is not None and str(pkg.version) != version:
            continue
        if best is None or pkg.version > best.version:
            best = pkg
    if best is None:
        raise GraphModelError(
            f"package {name!r}"
            + (f" version {version}" if version else "")
            + " is not a graph vertex"
        )
    return best


def strongly_connected_components(
    succ: Mapping[str, Iterable[str]],
) -> list[list[str]]:
    """Tarjan's strongly connected components, without recursion.

    ``succ`` maps every vertex to its successors; each successor must
    itself be a key.  Components come back in Tarjan's emission order:
    a component precedes every component that can reach it, so listing
    them in order puts dependencies before their dependents.  An
    explicit work stack replaces recursion, so long dependency chains
    cannot hit the interpreter's recursion limit.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, children = work[-1]
            for child in children:
                if child not in index:
                    index[child] = low[child] = len(index)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(succ[child])))
                    break
                if child in on_stack and index[child] < low[node]:
                    low[node] = index[child]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == index[node]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components


class SemanticGraph:
    """Directed, possibly cyclic VMI semantic graph.

    Vertices are keyed by stable strings so that unioning two graphs
    (master-graph construction, Section III-H) deduplicates identical
    packages automatically.
    """

    def __init__(self) -> None:
        #: package vertex → (payload, role), in insertion order
        self._nodes: dict[str, tuple[Package, PackageRole]] = {}
        #: every vertex (the base image too) → its successors, both in
        #: insertion order; dict keys serve as ordered sets
        self._succ: dict[str, dict[str, None]] = {}
        self._base_node: str | None = None
        self._base_attrs: BaseImageAttrs | None = None

    def __setstate__(self, state: dict[str, Any]) -> None:
        # snapshots and op-logs written while this class wrapped a
        # networkx.DiGraph pickle ``{"_g": DiGraph, "_base_node": ...}``;
        # unpickling one needs networkx, converting it does not
        legacy = state.pop("_g", None)
        self.__dict__.update(state)
        if legacy is None:
            return
        self._nodes = {}
        self._succ = {}
        self._base_attrs = None
        for key, data in legacy._node.items():
            self._succ[key] = dict.fromkeys(legacy._succ[key])
            if data["kind"] is NodeKind.BASE_IMAGE:
                self._base_attrs = data["attrs"]
            else:
                self._nodes[key] = (data["package"], data["role"])

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
        self._succ.setdefault(key, {})
        self._base_node = key
        self._base_attrs = attrs
        return key

    def add_package(self, pkg: Package, role: PackageRole) -> str:
        """Add a package vertex; re-adding may only *strengthen* the role.

        Role precedence is ``PRIMARY > BASE_MEMBER > DEPENDENCY`` so that a
        package first seen as a dependency and later requested as primary
        keeps the stronger classification.
        """
        key = _pkg_key(pkg)
        self._put(key, pkg, role)
        return key

    def _put(self, key: str, pkg: Package, role: PackageRole) -> None:
        vertex = self._nodes.get(key)
        if vertex is None:
            self._nodes[key] = (pkg, role)
            self._succ[key] = {}
        elif _ROLE_RANK[role] > _ROLE_RANK[vertex[1]]:
            self._nodes[key] = (vertex[0], role)

    def add_dependency_edge(self, src_key: str, dst_key: str) -> None:
        """Record that ``src`` depends on ``dst`` (both must exist)."""
        if src_key not in self._succ or dst_key not in self._succ:
            raise GraphModelError(
                f"dependency edge references unknown node(s): "
                f"{src_key!r} -> {dst_key!r}"
            )
        self._succ[src_key][dst_key] = None

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def base_attrs(self) -> BaseImageAttrs | None:
        """Attributes of the base-image vertex, if present."""
        return self._base_attrs

    @property
    def base_node(self) -> str | None:
        return self._base_node

    def __len__(self) -> int:
        return len(self._succ)

    def __contains__(self, key: str) -> bool:
        return key in self._succ

    def node_keys(self) -> tuple[str, ...]:
        """Every vertex key, in insertion order."""
        return tuple(self._succ)

    def n_edges(self) -> int:
        return sum(len(out) for out in self._succ.values())

    def edges(self) -> Iterator[tuple[str, str]]:
        """Every ``(src, dst)`` dependency edge, in insertion order."""
        for src, out in self._succ.items():
            for dst in out:
                yield src, dst

    def out_degree_sum(self, keys: Iterable[str]) -> int:
        """Total out-degree of the vertices ``keys`` (all must exist).

        Edges are never removed, so on a graph that only grows an
        unchanged sum means none of ``keys`` gained an out-edge.
        """
        succ = self._succ
        return sum(len(succ[key]) for key in keys)

    def has_package(self, name: str) -> bool:
        """Is any version of package ``name`` a vertex of this graph?"""
        return any(p.name == name for p in self.packages())

    def packages(self) -> Iterator[Package]:
        """All package payloads, in insertion order."""
        for pkg, _ in self._nodes.values():
            yield pkg

    def package_nodes(self) -> Iterator[tuple[str, Package, PackageRole]]:
        """(key, package, role) triples for every package vertex."""
        for key, (pkg, role) in self._nodes.items():
            yield key, pkg, role

    def packages_with_role(self, role: PackageRole) -> list[Package]:
        return [p for p, r in self._nodes.values() if r is role]

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

    def packages_at(self, keys: Iterable[str]) -> list[Package]:
        """The payloads of the package vertices ``keys``, in order."""
        nodes = self._nodes
        return [nodes[key][0] for key in keys]

    def share_payloads(self, resolve: Callable[[Package], Package]) -> None:
        """Replace every payload ``p`` by ``resolve(p)``, an object of
        the same content (same vertex key), in place.

        Lets a freshly unpickled graph point at objects its holder
        already keeps, so later pickles share them.  Only for graphs no
        one has read yet: a payload is otherwise never replaced.
        """
        nodes = self._nodes
        for key, (pkg, role) in nodes.items():
            nodes[key] = (resolve(pkg), role)

    def share_keys(self, keys: dict[str, str]) -> None:
        """Replace every vertex key by the equal string in ``keys``, in
        place; keys it lacks join it as they are.

        With ``keys`` a graph's own (``{k: k}``), a freshly unpickled
        graph about to be unioned into it adds the graph's key objects,
        not equal copies, so later pickles write each key once.  Same
        vertices, same order.
        """
        canon = {key: keys.setdefault(key, key) for key in self._succ}
        self._nodes = {canon[k]: vertex for k, vertex in self._nodes.items()}
        self._succ = {
            canon[u]: {canon[v]: None for v in out}
            for u, out in self._succ.items()
        }
        if self._base_node is not None:
            self._base_node = canon[self._base_node]

    def total_package_size(self) -> int:
        """Sum of installed sizes over all package vertices."""
        return sum(p.installed_size for p in self.packages())

    def has_cycle(self) -> bool:
        """Does the dependency relation contain a cycle (Figure 1a)?"""
        if any(key in out for key, out in self._succ.items()):
            return True
        return any(
            len(c) > 1 for c in strongly_connected_components(self._succ)
        )

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
        succ = self._succ
        seen: dict[str, None] = {}
        stack = [r for r in roots if r in succ]
        while stack:
            node = stack.pop()
            if node in seen or node == self._base_node:
                continue
            seen[node] = None
            stack.extend(succ[node])
        return seen

    def extract_primary_subgraph(self) -> "SemanticGraph":
        """``GI[PS]``: primaries plus their dependency closure."""
        roots = [
            key
            for key, (_, role) in self._nodes.items()
            if role is PackageRole.PRIMARY
        ]
        return self._induced(self.dependency_closure(roots), with_base=False)

    def extract_base_subgraph(self) -> "SemanticGraph":
        """``GI[BI]``: the base vertex plus all BASE_MEMBER packages."""
        members = [
            key
            for key, (_, role) in self._nodes.items()
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
        chosen (:func:`first_newest`).

        Raises:
            GraphModelError: if no matching vertex exists.
        """
        root = first_newest(
            (p for p in self.packages() if p.name == name), name, version
        )
        return self.closure_subgraph(_pkg_key(root))

    def closure_subgraph(self, root: str) -> "SemanticGraph":
        """The subgraph induced by ``root``'s dependency closure."""
        return self._induced(self.dependency_closure([root]), with_base=False)

    def _induced(
        self, nodes: Iterable[str], *, with_base: bool
    ) -> "SemanticGraph":
        sub = SemanticGraph()
        if with_base and self._base_attrs is not None:
            sub.add_base_image(self._base_attrs)
        # vertices in the order of ``nodes``: edge insertion order fixes
        # successor order, which later closures over the subgraph walk
        mine = self._nodes
        sub_nodes = sub._nodes
        sub_succ = sub._succ
        for key in nodes:
            vertex = mine.get(key)
            if vertex is not None and key not in sub_nodes:
                sub_nodes[key] = vertex
                sub_succ[key] = {}
        # walk only the kept vertices' out-edges instead of every edge
        # of the host graph: extraction from a large master graph is
        # O(edges touching the closure), not O(all master edges)
        succ = self._succ
        for u, out in sub_succ.items():
            for v in succ[u]:
                if v in sub_succ:
                    out[v] = None
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
        if other._base_attrs is not None and self._base_node is None:
            self.add_base_image(other._base_attrs)
        for key, (pkg, role) in other._nodes.items():
            self._put(key, pkg, role)
        succ = self._succ
        for u, theirs in other._succ.items():
            out = succ[u]
            for v in theirs:
                out[v] = None

    def copy(self) -> "SemanticGraph":
        """Deep-enough copy (payloads are immutable)."""
        dup = SemanticGraph()
        dup._nodes = dict(self._nodes)
        dup._succ = {key: dict(out) for key, out in self._succ.items()}
        dup._base_node = self._base_node
        dup._base_attrs = self._base_attrs
        return dup

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SemanticGraph base={self.base_attrs} "
            f"packages={len(self._nodes)} edges={self.n_edges()}>"
        )
