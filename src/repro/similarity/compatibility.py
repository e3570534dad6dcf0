"""Semantic compatibility ``comp`` (Section III-G).

``comp(GI[BI], GI[PS])`` decides whether a primary-package subgraph can
be installed on a base-image subgraph: over every pair of packages with
the *same name* (homonym ``pkg`` attribute) appearing in both subgraphs,
multiply the package similarities::

    comp = Π_{(P1,P2): pkg(P1)=pkg(P2)} simP(P1, P2)

The product is 1 exactly when every shared package (typically the OS
libraries the primaries depend on — libc6, openssl ...) is present in
the base at a fully compatible version; any mismatch drives the product
below 1 and the pair is declared incompatible ("if the semantic
compatibility has a value of 1, the primary packages can be installed
and used together with the base image; otherwise they are
incompatible").

Disjoint subgraphs (no homonyms) are vacuously compatible: the empty
product is 1 — the base simply provides nothing the primaries constrain.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.model.graph import SemanticGraph
from repro.model.package import Package
from repro.similarity.package import package_similarity

__all__ = [
    "semantic_compatibility",
    "packages_compatibility",
    "is_compatible",
]


def semantic_compatibility(
    base_subgraph: SemanticGraph, primary_subgraph: SemanticGraph
) -> float:
    """``comp`` in ``[0, 1]``: product of homonym package similarities."""
    return packages_compatibility(
        {p.name: p for p in base_subgraph.packages()},
        primary_subgraph.packages(),
    )


def packages_compatibility(
    base_pkgs: Mapping[str, Package], packages: Iterable[Package]
) -> float:
    """``comp`` of a base given as its name → package map against the
    subgraph whose payloads are ``packages``.

    For callers that hold a subgraph's packages but no graph, such as
    a plan derived from a master's closure key set, and that keep the
    base's map across calls (the planner's per-base record).
    """
    value = 1.0
    for pkg in packages:
        counterpart = base_pkgs.get(pkg.name)
        if counterpart is not None:
            value *= package_similarity(counterpart, pkg)
            if value == 0.0:
                return 0.0
    return value


def is_compatible(
    base_subgraph: SemanticGraph, primary_subgraph: SemanticGraph
) -> bool:
    """The strict ``comp = 1`` predicate the algorithms test."""
    return semantic_compatibility(base_subgraph, primary_subgraph) == 1.0
