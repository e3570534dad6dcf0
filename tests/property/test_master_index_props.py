"""Properties: master-graph queries answered from the master's indexes.

A primary's root comes from the master's name population, a cold plan
derives from ordered closure key sets without building any graph.  On
random masters — several versions per name (some comparing
equal under different strings), shared dependencies, dependency
cycles, base homonyms, version filters, and vertices added behind the
master's back — these must agree with a brute-force vertex scan and
with the paper-literal Algorithm 3 of ``tests/algorithm3_oracle.py``:

* ``MasterGraph.primary_root`` is the first vertex of maximal version;
* every plan's install order, imported names, closure, out-degree sum
  and per-primary name counts are what the union of per-primary
  subgraphs gives;
* the errors are the same: ``RetrievalError`` for an absent primary,
  the same ``GraphModelError`` text for an absent version, and
  ``IncompatibleImageError`` when the closure breaks ``comp = 1``, on
  every attempt.

CI raises the per-test example budget with
``MASTER_INDEX_PROP_EXAMPLES``.
"""

import os

import pytest
from algorithm3_oracle import reference_assemble
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.assembly_plan import RetrievalRequest
from repro.core.system import Expelliarmus
from repro.errors import (
    GraphModelError,
    IncompatibleImageError,
    ReproError,
    RetrievalError,
)
from repro.image.manifest import FileManifest
from repro.model.attributes import BaseImageAttrs
from repro.model.graph import PackageRole, SemanticGraph
from repro.model.package import make_package
from repro.model.vmi import BaseImage
from repro.repository.master_graphs import MasterGraph
from repro.similarity.compatibility import is_compatible

#: example budget override; unset, each test keeps its own default
_BUDGET = os.environ.get("MASTER_INDEX_PROP_EXAMPLES")


def _examples(default: int) -> int:
    return int(_BUDGET) if _BUDGET else default


_SETTINGS = dict(
    deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

NAMES = ("a", "b", "c", "d", "e")
#: "1.0", "0:1.0" and "1.0-0" compare equal: the root rule must pick
#: the earliest-inserted of them
VERSIONS = ("1.0", "0:1.0", "1.0-0", "1.1", "2.0")
ABSENT_NAME = "zz"
ABSENT_VERSION = "9.9"
#: the base's own packages; members may depend on them at these
#: versions (compatible homonyms)
BASE_VERSIONS = {"libc6": "2.23", "zlib1g": "1.2.8"}
#: versions an out-of-band vertex may give a base homonym
ROGUE_VERSIONS = ("2.23", "2.24", "3.0")

_PACKAGES: dict[tuple[str, str], object] = {}


def _pkg(name: str, version: str):
    """One payload object per (name, version), as a store holds it."""
    key = (name, version)
    if key not in _PACKAGES:
        _PACKAGES[key] = make_package(
            name, version, installed_size=100_000 + 7 * len(_PACKAGES)
        )
    return _PACKAGES[key]


BASE = BaseImage(
    attrs=BaseImageAttrs("linux", "ubuntu", "16.04", "amd64"),
    packages=tuple(_pkg(n, v) for n, v in BASE_VERSIONS.items()),
    skeleton=FileManifest.empty(),
)

member_vertex = st.tuples(st.sampled_from(NAMES), st.sampled_from(VERSIONS))
base_homonym = st.sampled_from(sorted(BASE_VERSIONS.items()))


@st.composite
def uploads(draw):
    """One member's primary subgraph as (vertices, edges, primary)."""
    primary = draw(member_vertex)
    deps = draw(
        st.lists(st.one_of(member_vertex, base_homonym), max_size=5)
    )
    vertices = list(dict.fromkeys([primary, *deps]))
    index = st.integers(min_value=0, max_value=len(vertices) - 1)
    # self-loops and back edges allowed: closures must walk cycles
    edges = draw(st.lists(st.tuples(index, index), max_size=8))
    return vertices, edges, primary


@st.composite
def masters(draw):
    """A master built through its API, plus optional rogue vertices."""
    members = draw(st.lists(uploads(), min_size=1, max_size=6))
    # after which members the population index is read: later members
    # then update it incrementally instead of building it lazily
    touches = draw(st.lists(st.booleans(), min_size=6, max_size=6))
    rogue = draw(
        st.lists(
            st.tuples(
                st.sampled_from(sorted(BASE_VERSIONS)),
                st.sampled_from(ROGUE_VERSIONS),
                st.integers(min_value=0, max_value=40),
            ),
            max_size=2,
        )
    )
    return members, touches, rogue


def _build(spec):
    """A system whose repository stores ``BASE``, every member package
    and the master ``spec`` describes."""
    members, touches, rogue = spec
    system = Expelliarmus()
    repo = system.repo
    repo.store_base_image(BASE)
    master = MasterGraph.for_base(BASE)
    for i, (vertices, edges, primary) in enumerate(members):
        sub = SemanticGraph()
        keys = [
            sub.add_package(
                _pkg(*v),
                PackageRole.PRIMARY if v == primary
                else PackageRole.DEPENDENCY,
            )
            for v in vertices
        ]
        for u, w in edges:
            sub.add_dependency_edge(keys[u], keys[w])
        master.add_primary_subgraph(sub, f"vmi-{i}")
        if touches[i]:
            master.package_population()
    # out of band: base homonyms at any version, bypassing the
    # compatibility check, with an edge from an existing vertex
    graph = master.package_graph
    for name, version, pick in rogue:
        existing = graph.node_keys()
        key = graph.add_package(_pkg(name, version), PackageRole.DEPENDENCY)
        graph.add_dependency_edge(existing[pick % len(existing)], key)
    for pkg in graph.packages():
        if pkg.name not in BASE_VERSIONS:
            repo.store_package(pkg)
    repo.put_master_graph(master)
    return system, master


def _brute_root(master, name, version):
    """The root a full vertex scan picks: the first maximal version."""
    best = None
    for key, pkg, _ in master.package_graph.package_nodes():
        if pkg.name != name:
            continue
        if version is not None and str(pkg.version) != version:
            continue
        if best is None or pkg.version > best[1].version:
            best = (key, pkg)
    return None if best is None else best[0]


def _absent_version_text(name, version):
    return f"package {name!r} version {version} is not a graph vertex"


@st.composite
def requests(draw):
    names = draw(
        st.lists(
            st.sampled_from((*NAMES, ABSENT_NAME)),
            min_size=1, max_size=4, unique=True,
        )
    )
    pinned = draw(st.lists(st.sampled_from(names), unique=True))
    versions = tuple(
        (name, draw(st.sampled_from((*VERSIONS, ABSENT_VERSION))))
        for name in pinned
    )
    return tuple(names), versions


def _expected(master, names, versions):
    """Algorithm 3 lines 1-2 from a vertex scan and graph unions: the
    plan's read-set, or the error it must raise."""
    pinned = dict(versions)
    graph = master.package_graph
    gi_ps = SemanticGraph()
    for name in names:
        if not any(p.name == name for p in graph.packages()):
            return RetrievalError, None
        root = _brute_root(master, name, pinned.get(name))
        if root is None:
            return GraphModelError, _absent_version_text(
                name, pinned[name]
            )
        gi_ps.union_update(
            graph.extract_package_subgraph(name, pinned.get(name))
        )
    if not is_compatible(master.base_subgraph, gi_ps):
        return IncompatibleImageError, None
    closure = gi_ps.node_keys()
    counts = tuple(
        (name, sum(p.name == name for p in graph.packages()))
        for name in names
    )
    out_degree = sum(1 for src, _ in graph.edges() if src in set(closure))
    return None, (closure, out_degree, counts, list(gi_ps.packages()))


@given(masters())
@settings(max_examples=_examples(20), **_SETTINGS)
def test_primary_root_matches_a_vertex_scan(spec):
    _, master = _build(spec)
    for name in (*NAMES, ABSENT_NAME):
        for version in (None, *VERSIONS, ABSENT_VERSION):
            expected = _brute_root(master, name, version)
            if expected is None:
                with pytest.raises(GraphModelError) as caught:
                    master.primary_root(name, version)
                # the text the subgraph extraction always raised
                with pytest.raises(GraphModelError) as bare:
                    master.package_graph.extract_package_subgraph(
                        name, version
                    )
                assert str(caught.value) == str(bare.value)
                if version is not None:
                    assert str(caught.value) == _absent_version_text(
                        name, version
                    )
                continue
            assert master.primary_root(name, version) == expected
            assert master.extract_primary_subgraph(
                name, version
            ).node_keys() == tuple(
                master.package_graph.dependency_closure([expected])
            )


@given(masters(), st.lists(requests(), min_size=1, max_size=6))
@settings(max_examples=_examples(20), **_SETTINGS)
def test_plans_match_the_oracle(spec, drawn):
    system, master = _build(spec)
    planner = system.planner
    for names, versions in drawn:
        request = RetrievalRequest(
            name="probe",
            base_key=BASE.blob_key(),
            primary_names=names,
            primary_versions=versions,
        )
        error, expected = _expected(master, names, versions)
        # derived from scratch: no cache may answer for the master
        planner.clear()
        if error is not None:
            with pytest.raises(error) as caught:
                planner.plan_for(request)
            with pytest.raises(error) as oracle:
                reference_assemble(
                    system, "probe", BASE.blob_key(), names,
                    primary_versions=dict(versions),
                )
            assert str(caught.value) == str(oracle.value)
            if expected is not None:
                assert str(caught.value) == expected
            continue
        plan, hit = planner.plan_for(request)
        assert not hit
        closure, out_degree, counts, packages = expected
        assert plan.closure == closure
        assert plan.out_degree == out_degree
        assert plan.name_counts == counts
        assert plan.lineage == master.lineage
        try:
            oracle = reference_assemble(
                system, "probe", BASE.blob_key(), names,
                primary_versions=dict(versions),
            )
        except ReproError as exc:
            # lines 6-13 refuse a closure holding two versions of
            # one name; executing the plan must refuse it the same
            with pytest.raises(type(exc)) as caught:
                planner.assemble(request, cold_base=True)
            assert str(caught.value) == str(exc)
        else:
            assert plan.imported_names() == oracle.imported_packages
        assert [step.blob_key for step in plan.installs] == [
            p.blob_key() for p in packages
            if p.name not in BASE_VERSIONS
        ]
        assert [step.role for step in plan.installs] == [
            PackageRole.PRIMARY if p.name in names
            else PackageRole.DEPENDENCY
            for p in packages
            if p.name not in BASE_VERSIONS
        ]


@given(masters(), st.sampled_from(NAMES), st.sampled_from(ROGUE_VERSIONS[1:]))
@settings(max_examples=_examples(15), **_SETTINGS)
def test_incompatibility_raises_on_every_attempt(spec, name, version):
    system, master = _build(spec)
    root = _brute_root(master, name, None)
    if root is None:
        return
    request = RetrievalRequest(
        name="probe", base_key=BASE.blob_key(), primary_names=(name,)
    )
    planner = system.planner
    try:
        planner.plan_for(request)  # caches a plan while compatible
    except IncompatibleImageError:
        pass
    # out of band: the closure gains a base homonym simP < 1 rejects
    graph = master.package_graph
    rogue = _pkg("libc6", version)
    rogue_key = graph.add_package(rogue, PackageRole.DEPENDENCY)
    graph.add_dependency_edge(root, rogue_key)
    upload = SemanticGraph()
    upload.add_package(rogue, PackageRole.DEPENDENCY)
    for _ in range(3):
        planner.clear()
        with pytest.raises(IncompatibleImageError):
            planner.plan_for(request)
        with pytest.raises(GraphModelError, match="incompatible"):
            master.require_compatible(upload)
