"""Property: federated(N) ≡ a single repository, end to end.

The federation router is a pure *placement* layer: for any corpus, any
shard count, any input permutation, any churn (deletes + GC) and any
sequence of rebalances, the union of the shards must be
indistinguishable from one repository that ran the same operations:

* every published VMI retrieves to a **byte-identical manifest**;
* the **union blob set and logical bytes** equal the single
  repository's (the global base-image index at work — cross-shard
  dedup never regresses storage);
* the **summed refcounts are identical**, before and after GC;
* churn converges to the **identical post-GC state**;
* **federation fsck is clean** (per-shard checks plus the cross-shard
  split-family and name-collision invariants) at every step.

The CI ``federation-stress`` job re-runs this suite with a higher
example budget (``FEDERATION_PROP_EXAMPLES``).
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import Expelliarmus
from repro.ids import content_id
from repro.repository.federation import FederatedRepository

#: per-test example budget; the CI federation-stress job raises it
_EXAMPLES = int(os.environ.get("FEDERATION_PROP_EXAMPLES", "6"))

_SHARD_COUNTS = [1, 2, 4, 8]


def _publish_single(corpus, indices):
    system = Expelliarmus()
    report = system.publish_many(
        [corpus.build(i) for i in indices], order="given"
    )
    assert report.n_failed == 0, report.render()
    return system


def _publish_federated(corpus, indices, shards):
    fed = FederatedRepository(shards=shards)
    report = fed.publish_many(
        [corpus.build(i) for i in indices], order="given"
    )
    assert report.n_failed == 0, report.render()
    assert report.parallelism == shards
    return fed


def _state_fingerprint(store) -> dict:
    """Everything 'federated ≡ single' must preserve exactly.

    ``store`` is an :class:`Expelliarmus` or a
    :class:`FederatedRepository` — the federation's repo view is the
    union over its shards (blobs deduped by content key, refcounts
    summed), which is precisely the claim under test.
    """
    repo = store.repo
    return {
        "blobs": {
            (r.key, r.kind.value, r.size) for r in repo.blobs.records()
        },
        "bytes": repo.bytes_by_kind(),
        "records": {r.name for r in repo.vmi_records()},
        "refcounts": repo.refcounts(),
        "contributions": {
            r.name: sorted(repo.vmi_contribution(r.name))
            for r in repo.vmi_records()
        },
    }


def _manifests(store, names) -> dict:
    return {
        name: store.retrieve(name).vmi.full_manifest()
        for name in names
    }


def _assert_equivalent(fed, single, names):
    assert _state_fingerprint(fed) == _state_fingerprint(single)
    assert _manifests(fed, names) == _manifests(single, names)
    report = fed.fsck()
    assert report.clean, [str(f) for f in report.findings]


class TestFederatedPublishEquivalence:
    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_federated_publish_equals_single(
        self, scale_corpus_factory, data
    ):
        n_families = data.draw(st.integers(1, 5), label="n_families")
        corpus = scale_corpus_factory(14, n_families=n_families)
        published = data.draw(
            st.lists(
                st.integers(0, 13), min_size=2, max_size=14, unique=True
            ),
            label="published",
        )
        shuffled = data.draw(st.permutations(published), label="input")
        shards = data.draw(
            st.sampled_from(_SHARD_COUNTS), label="shards"
        )

        single = _publish_single(corpus, published)
        fed = _publish_federated(corpus, shuffled, shards)

        names = [corpus.spec(i).name for i in published]
        _assert_equivalent(fed, single, names)
        # no stored-bytes regression vs the single repository: the
        # union IS the single repository's size
        assert fed.total_bytes() == single.repo.total_bytes()

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_federated_retrieve_many_equals_single(
        self, scale_corpus_factory, data
    ):
        corpus = scale_corpus_factory(12, n_families=3)
        published = data.draw(
            st.lists(
                st.integers(0, 11), min_size=1, max_size=12, unique=True
            ),
            label="published",
        )
        shards = data.draw(
            st.sampled_from(_SHARD_COUNTS), label="shards"
        )
        single = _publish_single(corpus, published)
        fed = _publish_federated(corpus, published, shards)
        names = [corpus.spec(i).name for i in published]
        reference = _manifests(single, names)

        batch = data.draw(
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
        report = fed.retrieve_many(batch, order=order)
        assert report.n_failed == 0
        assert report.n_items == len(batch)
        for item in report.results:
            assert (
                item.report.vmi.full_manifest() == reference[item.name]
            )


class TestFederatedChurnEquivalence:
    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_churn_converges_to_single_repo_state(
        self, scale_corpus_factory, data
    ):
        """Publish, delete a subset, GC: federated(N) and the single
        repository land on the identical post-GC state."""
        corpus = scale_corpus_factory(12, n_families=3)
        published = data.draw(
            st.lists(
                st.integers(0, 11), min_size=3, max_size=12, unique=True
            ),
            label="published",
        )
        shards = data.draw(
            st.sampled_from(_SHARD_COUNTS), label="shards"
        )
        full_gc = data.draw(st.booleans(), label="full_gc")

        single = _publish_single(corpus, published)
        fed = _publish_federated(corpus, published, shards)

        names = sorted(
            (corpus.spec(i).name for i in published),
            key=lambda n: content_id(f"federation-churn/{n}"),
        )
        victims = names[: max(1, len(names) // 3)]
        for store in (single, fed):
            report = store.delete_many(victims)
            assert report.n_failed == 0
            store.garbage_collect(full=full_gc)

        survivors = [n for n in names if n not in victims]
        _assert_equivalent(fed, single, survivors)
        assert single.fsck().clean


class TestFederatedRebalanceEquivalence:
    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(data=st.data())
    def test_rebalances_preserve_equivalence(
        self, scale_corpus_factory, data
    ):
        """Any sequence of family moves leaves the union state (and
        every manifest) exactly where the single repository is."""
        corpus = scale_corpus_factory(12, n_families=4)
        published = data.draw(
            st.lists(
                st.integers(0, 11), min_size=3, max_size=12, unique=True
            ),
            label="published",
        )
        shards = data.draw(st.sampled_from([2, 4, 8]), label="shards")

        single = _publish_single(corpus, published)
        fed = _publish_federated(corpus, published, shards)

        families = sorted(fed.base_index)
        n_moves = data.draw(st.integers(1, 4), label="n_moves")
        for move in range(n_moves):
            family = data.draw(
                st.sampled_from(families), label=f"family-{move}"
            )
            target = data.draw(
                st.integers(0, shards - 1), label=f"target-{move}"
            )
            fed.rebalance(family, target)
            assert fed.base_index[family] == target

        names = [corpus.spec(i).name for i in published]
        _assert_equivalent(fed, single, names)
        # and the moved families keep absorbing publishes correctly:
        # the differential survives a post-rebalance publish round
        leftovers = [i for i in range(12) if i not in published][:2]
        if leftovers:
            for store in (single, fed):
                report = store.publish_many(
                    [corpus.build(i) for i in leftovers], order="given"
                )
                assert report.n_failed == 0
            names += [corpus.spec(i).name for i in leftovers]
            _assert_equivalent(fed, single, names)
