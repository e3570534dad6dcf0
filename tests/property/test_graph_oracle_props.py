"""Property-based tests: ``SemanticGraph`` against networkx as an oracle.

The semantic graph is plain ordered dicts with a hand-written iterative
Tarjan pass; networkx is a test-only dependency.  On random directed
graphs (self-loops and cycles included) the cycle check, dependency
closures, induced subgraphs and the strongly connected components must
agree with networkx, and the catalog's install order must be the one
networkx's condensation gives, which puts every dependency before its
dependents outside a cycle.
"""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.guestos.catalog import _dependency_order
from repro.model.attributes import BaseImageAttrs
from repro.model.graph import (
    PackageRole,
    SemanticGraph,
    strongly_connected_components,
)
from repro.model.package import DependencySpec, make_package

ATTRS = BaseImageAttrs("linux", "ubuntu", "16.04", "amd64")


@st.composite
def digraphs(draw):
    """(n, edges): vertices 0..n-1 and a list of directed edges."""
    n = draw(st.integers(min_value=0, max_value=12))
    if n == 0:
        return 0, []
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    return n, edges


def _both(n, edges, *, with_base=False):
    """The same graph as a SemanticGraph and as a networkx DiGraph."""
    g = SemanticGraph()
    ref = nx.DiGraph()
    keys = [
        g.add_package(make_package(f"p{i}", "1.0"), PackageRole.DEPENDENCY)
        for i in range(n)
    ]
    ref.add_nodes_from(keys)
    if with_base:
        base = g.add_base_image(ATTRS)
        ref.add_node(base)
    for u, v in edges:
        g.add_dependency_edge(keys[u], keys[v])
        ref.add_edge(keys[u], keys[v])
    return g, ref, keys


@given(digraphs())
@settings(max_examples=300)
def test_has_cycle_matches_networkx(graph):
    g, ref, _ = _both(*graph)
    assert g.has_cycle() == (not nx.is_directed_acyclic_graph(ref))
    assert g.n_edges() == ref.number_of_edges()
    assert len(g) == ref.number_of_nodes()


@given(digraphs(), st.data())
@settings(max_examples=300)
def test_closure_is_reachability(graph, data):
    g, ref, keys = _both(*graph, with_base=True)
    roots = data.draw(st.lists(st.sampled_from(keys), max_size=3)) if keys else []
    expected = set(roots)
    for root in roots:
        expected |= nx.descendants(ref, root)
    closure = g.dependency_closure(roots)
    assert set(closure) == expected
    sub = g.extract_package_subgraph("p0") if keys else None
    if sub is not None:
        kept = {keys[0]} | nx.descendants(ref, keys[0])
        assert set(sub.node_keys()) == kept
        assert sub.n_edges() == ref.subgraph(kept).number_of_edges()


@given(digraphs())
@settings(max_examples=300)
def test_scc_partition_and_order_match_networkx(graph):
    _, ref, keys = _both(*graph)
    succ = {u: list(ref.successors(u)) for u in keys}
    components = strongly_connected_components(succ)
    assert sorted(map(sorted, components)) == sorted(
        map(sorted, nx.strongly_connected_components(ref))
    )
    # emission order: every edge between components points backwards
    position = {
        member: i for i, comp in enumerate(components) for member in comp
    }
    for u, v in ref.edges():
        assert position[v] <= position[u]


@given(digraphs())
@settings(max_examples=300)
def test_install_order_puts_dependencies_first(graph):
    n, edges = graph
    deps = {i: [] for i in range(n)}
    for u, v in edges:
        if u != v and v not in deps[u]:
            deps[u].append(v)
    chosen = {
        f"p{i}": make_package(
            f"p{i}",
            "1.0",
            depends=tuple(DependencySpec(f"p{j}") for j in deps[i]),
        )
        for i in range(n)
    }
    order = _dependency_order(chosen, {})
    assert sorted(order) == sorted(chosen)
    ref = nx.DiGraph()
    ref.add_nodes_from(chosen)
    ref.add_edges_from((f"p{u}", f"p{v}") for u in deps for v in deps[u])
    # exactly the order the catalog computed through networkx, so
    # stored install orders and simulated timings stay unchanged
    condensation = nx.condensation(ref)
    assert order == [
        name
        for scc in reversed(list(nx.topological_sort(condensation)))
        for name in sorted(condensation.nodes[scc]["members"])
    ]
    at = {name: i for i, name in enumerate(order)}
    scc_of = {}
    for i, comp in enumerate(nx.strongly_connected_components(ref)):
        for name in comp:
            scc_of[name] = i
        # cycle members stay consecutive in the plan
        spots = sorted(at[name] for name in comp)
        assert spots == list(range(spots[0], spots[0] + len(spots)))
    for u, v in ref.edges():
        if scc_of[u] != scc_of[v]:
            assert at[v] < at[u]


def test_strongly_connected_components_survives_deep_chains():
    # a recursive Tarjan would exceed the interpreter's recursion limit
    n = 5000
    succ = {str(i): [str(i + 1)] if i + 1 < n else [] for i in range(n)}
    components = strongly_connected_components(succ)
    assert [c[0] for c in components] == [str(i) for i in reversed(range(n))]
