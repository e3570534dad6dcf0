"""Unit tests for the SemanticGraph."""

import pickle

import pytest

from repro.errors import GraphModelError
from repro.model.attributes import BaseImageAttrs
from repro.model.graph import NodeKind, PackageRole, SemanticGraph
from repro.model.package import make_package

ATTRS = BaseImageAttrs("linux", "ubuntu", "16.04", "amd64")
OTHER = BaseImageAttrs("linux", "debian", "8", "amd64")


def build_sample() -> SemanticGraph:
    """base + primary 'app' -> dep 'lib' -> base member 'libc'."""
    g = SemanticGraph()
    g.add_base_image(ATTRS)
    libc = g.add_package(
        make_package("libc", "2.23", installed_size=10),
        PackageRole.BASE_MEMBER,
    )
    lib = g.add_package(
        make_package("lib", "1.0", installed_size=5),
        PackageRole.DEPENDENCY,
    )
    app = g.add_package(
        make_package("app", "1.0", installed_size=20),
        PackageRole.PRIMARY,
    )
    g.add_dependency_edge(app, lib)
    g.add_dependency_edge(lib, libc)
    return g


class TestConstruction:
    def test_single_base_image(self):
        g = SemanticGraph()
        g.add_base_image(ATTRS)
        g.add_base_image(ATTRS)  # idempotent
        with pytest.raises(GraphModelError):
            g.add_base_image(OTHER)

    def test_duplicate_package_vertices_merge(self):
        g = SemanticGraph()
        pkg = make_package("x", "1.0", installed_size=1)
        k1 = g.add_package(pkg, PackageRole.DEPENDENCY)
        k2 = g.add_package(pkg, PackageRole.DEPENDENCY)
        assert k1 == k2
        assert len(g) == 1

    def test_role_strengthening(self):
        g = SemanticGraph()
        pkg = make_package("x", "1.0", installed_size=1)
        key = g.add_package(pkg, PackageRole.DEPENDENCY)
        g.add_package(pkg, PackageRole.PRIMARY)
        assert list(g.package_nodes()) == [(key, pkg, PackageRole.PRIMARY)]
        # weakening is ignored
        g.add_package(pkg, PackageRole.DEPENDENCY)
        assert list(g.package_nodes()) == [(key, pkg, PackageRole.PRIMARY)]

    def test_edge_requires_known_nodes(self):
        g = SemanticGraph()
        with pytest.raises(GraphModelError):
            g.add_dependency_edge("pkg!a=1:amd64", "pkg!b=1:amd64")

    def test_different_versions_are_distinct_vertices(self):
        g = SemanticGraph()
        g.add_package(make_package("x", "1.0"), PackageRole.DEPENDENCY)
        g.add_package(make_package("x", "2.0"), PackageRole.DEPENDENCY)
        assert len(g) == 2


class TestQueries:
    def test_counts(self):
        g = build_sample()
        assert len(g) == 4  # base + 3 packages
        assert g.n_edges() == 2
        assert sum(1 for _ in g.packages()) == 3

    def test_primary_packages(self):
        g = build_sample()
        assert [p.name for p in g.primary_packages()] == ["app"]

    def test_find_package(self):
        g = build_sample()
        assert g.find_package("lib").name == "lib"
        assert g.find_package("ghost") is None
        assert g.has_package("app")

    def test_total_package_size(self):
        assert build_sample().total_package_size() == 35

    def test_cycle_detection(self):
        g = SemanticGraph()
        a = g.add_package(make_package("a", "1"), PackageRole.DEPENDENCY)
        b = g.add_package(make_package("b", "1"), PackageRole.DEPENDENCY)
        assert not g.has_cycle()
        g.add_dependency_edge(a, b)
        g.add_dependency_edge(b, a)
        assert g.has_cycle()


class TestSubgraphs:
    def test_primary_subgraph_is_closure(self):
        g = build_sample()
        ps = g.extract_primary_subgraph()
        names = {p.name for p in ps.packages()}
        assert names == {"app", "lib", "libc"}
        assert ps.base_attrs is None  # no base vertex in GI[PS]

    def test_base_subgraph_members_only(self):
        g = build_sample()
        bs = g.extract_base_subgraph()
        assert {p.name for p in bs.packages()} == {"libc"}
        assert bs.base_attrs == ATTRS

    def test_package_subgraph(self):
        g = build_sample()
        sub = g.extract_package_subgraph("lib")
        assert {p.name for p in sub.packages()} == {"lib", "libc"}

    def test_package_subgraph_unknown_raises(self):
        with pytest.raises(GraphModelError):
            build_sample().extract_package_subgraph("ghost")

    def test_closure_through_cycles_terminates(self):
        g = SemanticGraph()
        a = g.add_package(make_package("a", "1"), PackageRole.PRIMARY)
        b = g.add_package(make_package("b", "1"), PackageRole.DEPENDENCY)
        g.add_dependency_edge(a, b)
        g.add_dependency_edge(b, a)
        ps = g.extract_primary_subgraph()
        assert {p.name for p in ps.packages()} == {"a", "b"}

    def test_subgraph_preserves_edges(self):
        g = build_sample()
        ps = g.extract_primary_subgraph()
        assert ps.n_edges() == 2


class TestUnion:
    def test_union_dedups_identical_packages(self):
        g1 = build_sample()
        g2 = build_sample()
        before = len(g1)
        g1.union_update(g2)
        assert len(g1) == before

    def test_union_adds_new_packages(self):
        g1 = build_sample()
        g2 = SemanticGraph()
        g2.add_package(make_package("extra", "1.0"), PackageRole.PRIMARY)
        g1.union_update(g2)
        assert g1.has_package("extra")

    def test_union_conflicting_bases_raises(self):
        g1 = SemanticGraph()
        g1.add_base_image(ATTRS)
        g2 = SemanticGraph()
        g2.add_base_image(OTHER)
        with pytest.raises(GraphModelError):
            g1.union_update(g2)

    def test_union_acquires_base(self):
        g1 = SemanticGraph()
        g2 = SemanticGraph()
        g2.add_base_image(ATTRS)
        g1.union_update(g2)
        assert g1.base_attrs == ATTRS

    def test_copy_is_independent(self):
        g = build_sample()
        dup = g.copy()
        dup.add_package(make_package("new", "1.0"), PackageRole.PRIMARY)
        assert not g.has_package("new")
        assert dup.has_package("new")


class TestPickle:
    def test_round_trip_keeps_vertices_edges_and_order(self):
        g = build_sample()
        back = pickle.loads(pickle.dumps(g))
        assert back.node_keys() == g.node_keys()
        assert list(back.package_nodes()) == list(g.package_nodes())
        assert back.base_attrs == ATTRS
        assert back.n_edges() == g.n_edges()
        app = g.node_keys()[-1]
        assert list(back.dependency_closure([app])) == list(
            g.dependency_closure([app])
        )

    def test_legacy_networkx_state_converts(self):
        # the pickled layout from when the class wrapped a DiGraph
        nx = pytest.importorskip("networkx")
        g = build_sample()
        base, libc, lib, app = g.node_keys()
        legacy = nx.DiGraph()
        legacy.add_node(base, kind=NodeKind.BASE_IMAGE, attrs=ATTRS)
        for key, pkg, role in g.package_nodes():
            legacy.add_node(key, kind=NodeKind.PACKAGE, package=pkg, role=role)
        legacy.add_edge(app, lib)
        legacy.add_edge(lib, libc)
        # what unpickling does with a legacy graph's state
        converted = SemanticGraph.__new__(SemanticGraph)
        converted.__setstate__({"_g": legacy, "_base_node": base})
        assert converted.node_keys() == g.node_keys()
        assert list(converted.package_nodes()) == list(g.package_nodes())
        assert converted.base_attrs == ATTRS
        assert converted.n_edges() == 2
        assert list(converted.dependency_closure([app])) == [app, lib, libc]



class TestRefs:
    def _round_trip(self, g, held):
        """``g`` through ``to_refs`` (keys for the ``held`` payloads),
        a pickle, and ``from_refs``."""
        by_key = {p.blob_key(): p for p in g.packages()}
        refs = g.to_refs(
            lambda p: p.blob_key() if p.name in held else p
        )
        refs = pickle.loads(pickle.dumps(refs))
        return refs, SemanticGraph.from_refs(refs, by_key.__getitem__)

    def test_round_trip_keeps_vertices_edges_and_order(self):
        g = build_sample()
        libc, lib, app = g.node_keys()[1:]
        # a cycle and an edge into the base vertex survive too
        g.add_dependency_edge(libc, app)
        g.add_dependency_edge(app, g.node_keys()[0])
        refs, back = self._round_trip(g, held={"libc", "app"})
        assert [type(ref).__name__ for ref in refs.refs] == [
            "BaseImageAttrs", "int", "Package", "int",
        ]
        assert back.node_keys() == g.node_keys()
        assert list(back.package_nodes()) == list(g.package_nodes())
        assert list(back.edges()) == list(g.edges())
        assert back.base_attrs == ATTRS
        assert list(back.dependency_closure([app])) == list(
            g.dependency_closure([app])
        )

    def test_resolved_payloads_are_the_resolvers_objects(self):
        g = build_sample()
        held = {p.blob_key(): p for p in g.packages()}
        refs = pickle.loads(pickle.dumps(g.to_refs(lambda p: p.blob_key())))
        back = SemanticGraph.from_refs(refs, held.__getitem__)
        assert all(held[p.blob_key()] is p for p in back.packages())
        # a payload's cached vertex key is the key object used
        assert all(key is pkg._node_key for key, pkg, _ in back.package_nodes())
