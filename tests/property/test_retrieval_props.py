"""Properties: every retrieval path ≡ the Algorithm 3 reference oracle.

The library has one Algorithm 3 implementation, the plan-caching
planner; single retrievals share its plan cache with batches.  These
suites hold it to the paper-literal derivation in
``tests/algorithm3_oracle.py`` (no plans, no caches):

* **batches** — for any published corpus and any batch composition
  (subsets, duplicates, any permutation), ``retrieve_many`` hands back
  exactly the VMIs the oracle assembles: byte-identical filesystem
  manifests, identical package state and identical
  ``imported_packages`` order, with only the *charged cost* allowed
  to differ, and then only downward (a warm base clone never costs
  more than the cold repository read it replaces; every other
  Figure-5a component is charged identically) — including across a
  second batch where every plan replays from cache;
* **single retrievals across mutations** — ``retrieve`` interleaved
  with publishes that replace bases, deletes, incremental GC and
  re-base returns what the oracle returns at the same point: same
  manifest, same import order, same errors, and all four Figure-5a
  components equal.  Cached plans must never outlive the repository
  state they were derived from.
"""

from algorithm3_oracle import reference_assemble, reference_retrieve
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assembly_plan import RETRIEVAL_COMPONENTS
from repro.core.system import Expelliarmus

#: Figure-5a components charged identically on both paths
_EXACT_LABELS = ("handle", "reset", "import")


def _publish(corpus, indices):
    system = Expelliarmus()
    report = system.publish_many(
        [corpus.build(i) for i in indices], order="given"
    )
    assert report.n_failed == 0
    return system


def _assert_observationally_equal(item, expected):
    """One batch item against the sequential reference retrieval."""
    assert item.ok, item.error
    got = item.report
    assert got.imported_packages == expected.imported_packages
    assert got.vmi.full_manifest() == expected.vmi.full_manifest()
    assert got.vmi.mounted_size == expected.vmi.mounted_size
    assert got.vmi.n_files == expected.vmi.n_files
    got_state = {
        p.name: (p.package.identity, p.role, p.auto)
        for p in got.vmi.installed_packages()
    }
    expected_state = {
        p.name: (p.package.identity, p.role, p.auto)
        for p in expected.vmi.installed_packages()
    }
    assert got_state == expected_state
    if expected.vmi.user_data is None:
        assert got.vmi.user_data is None
    else:
        assert got.vmi.user_data.label == expected.vmi.user_data.label


def _assert_cost_dominated(item, expected):
    """Cached-path cost ≤ cold cost, component by component."""
    got = item.report
    for label in _EXACT_LABELS:
        assert got.component(label) == expected.component(label), label
    assert (
        got.component("base-copy")
        <= expected.component("base-copy") + 1e-9
    )


class TestBatchEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_retrieve_many_equals_sequential(
        self, scale_corpus_factory, data
    ):
        n_families = data.draw(
            st.integers(1, 3), label="n_families"
        )
        corpus = scale_corpus_factory(12, n_families=n_families)
        published = data.draw(
            st.lists(
                st.integers(0, 11), min_size=1, max_size=12, unique=True
            ),
            label="published",
        )
        system = _publish(corpus, published)
        names = [corpus.spec(i).name for i in published]

        # the reference: paper-literal Algorithm 3, one at a time
        reference = {name: reference_retrieve(system, name) for name in names}

        # a batch of any composition: subset, duplicates, any order
        batch_names = data.draw(
            st.lists(
                st.sampled_from(names),
                min_size=1,
                max_size=2 * len(names),
            ),
            label="batch",
        )
        order = data.draw(
            st.sampled_from(["affine", "given"]), label="order"
        )
        report = system.retrieve_many(batch_names, order=order)

        assert report.n_failed == 0
        assert report.n_items == len(batch_names)
        for item in report.results:
            _assert_observationally_equal(item, reference[item.name])
            _assert_cost_dominated(item, reference[item.name])

    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_second_batch_replays_plans_identically(
        self, scale_corpus_factory, data
    ):
        """A fully warm batch still produces identical output, and its
        charged cost is component-wise ≤ the first batch's."""
        corpus = scale_corpus_factory(10, n_families=2)
        published = data.draw(
            st.lists(
                st.integers(0, 9), min_size=2, max_size=10, unique=True
            ),
            label="published",
        )
        system = _publish(corpus, published)
        names = [corpus.spec(i).name for i in published]

        first = system.retrieve_many(names)
        second = system.retrieve_many(
            data.draw(st.permutations(names), label="permutation")
        )
        assert second.plan_hits == len(names)
        assert second.planner_stats.plans_derived == 0
        by_name = {r.name: r for r in first.results}
        for item in second.results:
            _assert_observationally_equal(
                item, by_name[item.name].report
            )
            _assert_cost_dominated(item, by_name[item.name].report)

    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_orderings_agree_with_each_other(
        self, scale_corpus_factory, data
    ):
        """Affine and given orderings of one batch serve the same VMIs
        (ordering is a cost lever, never a semantics lever)."""
        corpus = scale_corpus_factory(8, n_families=2, seed="order")
        published = list(range(8))
        names = [corpus.spec(i).name for i in published]
        shuffled = data.draw(st.permutations(names), label="shuffled")

        affine = _publish(corpus, published).retrieve_many(
            shuffled, order="affine"
        )
        given_ = _publish(corpus, published).retrieve_many(
            shuffled, order="given"
        )
        affine_by_name = {r.name: r for r in affine.results}
        for item in given_.results:
            twin = affine_by_name[item.name]
            assert (
                item.report.imported_packages
                == twin.report.imported_packages
            )
            assert (
                item.report.vmi.full_manifest()
                == twin.report.vmi.full_manifest()
            )


#: corpus flavours for the mutation interleavings: ``fat`` publishes
#: replace stored bases (Algorithm 1 lines 22-27); ``split`` leaves
#: two base generations for re-base to merge once legacy builds go
_REGIMES = {
    "fat": {"seed": "oracle-fat", "fat_base_pct": 30},
    "split": {
        "seed": "oracle-split",
        "fat_base_pct": 0,
        "split_base_pct": 50,
    },
}
_N_VMIS = 10


def _regime_corpus(factory, regime):
    return factory(_N_VMIS, n_families=1, **_REGIMES[regime])


def _outcome(retrieve):
    """What one retrieval observably produced: report or error."""
    try:
        return retrieve(), None
    except Exception as exc:  # compared, never swallowed
        return None, (type(exc), str(exc))


def _assert_matches_oracle(system, name):
    _assert_same_outcome(
        _outcome(lambda: system.retrieve(name)),
        _outcome(lambda: reference_retrieve(system, name)),
    )


def _assert_custom_matches_oracle(system, base_key, primaries):
    """An unversioned composition resolves each primary to the newest
    version in the master — the plan that goes stale when a publish
    merges a newer one."""
    _assert_same_outcome(
        _outcome(lambda: system.assemble_custom("c", base_key, primaries)),
        _outcome(
            lambda: reference_assemble(system, "c", base_key, primaries)
        ),
    )


def _assert_same_outcome(outcome, reference):
    got, got_error = outcome
    expected, expected_error = reference
    assert got_error == expected_error
    if expected is None:
        return
    assert got.imported_packages == expected.imported_packages
    assert got.vmi.full_manifest() == expected.vmi.full_manifest()
    for label in RETRIEVAL_COMPONENTS:
        assert got.component(label) == expected.component(label), label


class _Interleaving:
    """Applies mutations to one system, tracking what is published."""

    def __init__(self, corpus):
        self.corpus = corpus
        self.system = Expelliarmus()
        self.names = [corpus.spec(i).name for i in range(len(corpus))]
        self.published: set[str] = set()
        self.replaced_bases = 0
        self.rebased = 0

    def apply(self, op, index):
        name = self.names[index]
        if op == "publish" and name not in self.published:
            report = self.system.publish(self.corpus.build(index))
            self.replaced_bases += report.replaced_bases
            self.published.add(name)
        elif op == "delete" and name in self.published:
            self.system.delete(name)
            self.published.discard(name)
        elif op == "gc":
            self.system.garbage_collect()
        elif op == "rebase":
            self.rebased += self.system.rebase().candidates_applied
        return name


#: mutation sequences; publishes weighted double so corpora fill up
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["publish", "publish", "delete", "gc", "rebase"]),
        st.integers(0, _N_VMIS - 1),
    ),
    min_size=1,
    max_size=30,
)


class TestSingleRetrieveMatchesOracle:
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_retrieve_interleaved_with_mutations(
        self, scale_corpus_factory, data
    ):
        regime = data.draw(st.sampled_from(sorted(_REGIMES)), label="regime")
        run = _Interleaving(_regime_corpus(scale_corpus_factory, regime))
        steps = data.draw(_STEPS, label="steps")
        for op, index in steps:
            name = run.apply(op, index)
            # the mutated name, and one drawn at random, whose cached
            # plan may have gone stale under the mutation
            _assert_matches_oracle(run.system, name)
            _assert_matches_oracle(
                run.system,
                data.draw(st.sampled_from(run.names), label="probe"),
            )
        for name in run.names:
            _assert_matches_oracle(run.system, name)

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_custom_assembly_interleaved_with_mutations(
        self, scale_corpus_factory, data
    ):
        regime = data.draw(st.sampled_from(sorted(_REGIMES)), label="regime")
        run = _Interleaving(_regime_corpus(scale_corpus_factory, regime))
        primaries = sorted({
            p for i in range(_N_VMIS) for p in run.corpus.spec(i).primaries
        })
        steps = data.draw(_STEPS, label="steps")
        compositions = []
        for op, index in steps:
            run.apply(op, index)
            bases = [b.blob_key() for b in run.system.repo.base_images()]
            if bases:
                compositions.append((
                    data.draw(st.sampled_from(bases), label="base"),
                    tuple(data.draw(
                        st.lists(
                            st.sampled_from(primaries),
                            max_size=2,
                            unique=True,
                        ),
                        label="primaries",
                    )),
                ))
            # every composition asked so far, its plan possibly stale
            for base_key, chosen in compositions:
                _assert_custom_matches_oracle(run.system, base_key, chosen)

    def test_plans_cross_base_replacement_and_rebase(
        self, scale_corpus_factory
    ):
        """A deterministic walk through both regimes that provably
        replaces a base and applies a re-base, retrieving everything
        between mutations so every plan is cached when it goes stale."""
        replaced = rebased = 0
        for regime in sorted(_REGIMES):
            corpus = _regime_corpus(scale_corpus_factory, regime)
            run = _Interleaving(corpus)
            for index in range(_N_VMIS):
                run.apply("publish", index)
                for name in run.names:
                    _assert_matches_oracle(run.system, name)
            for name in corpus.legacy_names():
                run.apply("delete", run.names.index(name))
            for op in ("gc", "rebase", "gc"):
                run.apply(op, 0)
                for name in run.names:
                    _assert_matches_oracle(run.system, name)
            replaced += run.replaced_bases
            rebased += run.rebased
        assert replaced > 0
        assert rebased > 0
