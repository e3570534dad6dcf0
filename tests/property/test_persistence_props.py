"""Differential properties: durability is invisible.

Two equivalences over random churn schedules (publishes, deletes, GC
points, checkpoints):

* **snapshot ≡ identity** — saving and reloading at *any* point of the
  schedule (including mid-churn, with zero-reference garbage pending
  and bases dirty) yields a repository indistinguishable from the
  original: identical fsck verdict, refcounts, ``reclaimable_bytes``,
  master revisions, mutation counter and dirty state, byte-identical
  retrieval manifests — and identical behaviour *afterwards* (the next
  GC pass reclaims the same bytes and leaves the same state).
* **op-log replay ≡ snapshot** — reopening a workspace (last
  checkpoint + write-ahead log replay) produces exactly the repository
  a direct snapshot of the final state produces.  Checkpoints at
  random schedule points shift work between the two reopen paths
  without changing the result.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from restore_oracle import reload_through_files

from repro.core.system import Expelliarmus
from repro.image.builder import BuildRecipe, ImageBuilder
from repro.repository.master_graphs import master_content

from tests.conftest import make_mini_catalog, make_mini_template

_PRIMARY_CHOICES = [
    (),
    ("redis-server",),
    ("nginx",),
    ("redis-server", "nginx"),
    ("bigapp",),
    ("portable-tool",),
]

#: ops: ("publish", choice index, fat base?), ("delete", live index),
#: ("gc", full?), ("checkpoint",) — checkpoints only matter on the
#: workspace-backed replayer and are no-ops elsewhere
_op = st.one_of(
    st.tuples(
        st.just("publish"),
        st.integers(min_value=0, max_value=len(_PRIMARY_CHOICES) - 1),
        st.booleans(),
    ),
    st.tuples(st.just("delete"), st.integers(min_value=0)),
    st.tuples(st.just("gc"), st.booleans()),
    st.tuples(st.just("checkpoint")),
)

schedules = st.lists(_op, min_size=2, max_size=12)


def _fingerprint(repo, exact_revisions: bool = True) -> dict:
    """Everything a faithful reload must reproduce exactly.

    ``exact_revisions=False`` masks the master revision *values*:
    after a reload both repositories draw fresh revisions from the
    process-wide monotonic source, so independent post-reload mutations
    produce equivalent states with different tokens — the fidelity
    requirement is exact equality *at* reload, equivalence after.
    """
    return {
        "blobs": {
            (r.key, r.kind.value, r.size) for r in repo.blobs.records()
        },
        "bytes": repo.bytes_by_kind(),
        "records": {
            r.name: (r.base_key, r.primary_names, r.data_label)
            for r in repo.vmi_records()
        },
        "contributions": {
            r.name: sorted(r2)
            for r in repo.vmi_records()
            for r2 in [repo.vmi_contribution(r.name)]
        },
        "masters": {
            m.base_key: (
                master_content(m),
                m.revision if exact_revisions else None,
            )
            for m in repo.master_graphs()
        },
        "refcounts": repo.refcounts(),
        "dirty": repo.dirty_bases(),
        "zero": (
            repo.zero_ref_packages(),
            repo.zero_ref_data(),
            repo.zero_ref_bases(),
        ),
        "reclaimable": repo.reclaimable_bytes(),
        "mutations": repo.mutations,
    }


class _Driver:
    """One system stepping through a random schedule."""

    def __init__(self, system: Expelliarmus) -> None:
        catalog = make_mini_catalog()
        self.builders = {
            False: ImageBuilder(catalog, make_mini_template()),
            True: ImageBuilder(
                catalog, make_mini_template(("libssl", "portable-tool"))
            ),
        }
        self.system = system
        self.live: list[str] = []
        self.counter = 0

    def step(self, op) -> None:
        if op[0] == "publish":
            _, choice, fat = op
            name = f"vm-{self.counter}"
            self.counter += 1
            self.system.publish(
                self.builders[fat].build(
                    BuildRecipe(
                        name=name,
                        primaries=_PRIMARY_CHOICES[choice],
                        user_data_size=20_000,
                        user_data_files=1,
                    )
                )
            )
            self.live.append(name)
        elif op[0] == "delete":
            if self.live:
                self.system.delete(self.live.pop(op[1] % len(self.live)))
        elif op[0] == "gc":
            self.system.garbage_collect(full=op[1])
        elif op[0] == "checkpoint":
            if self.system.workspace is not None:
                self.system.save()


def _assert_same_retrievals(original, reloaded, names) -> None:
    for name in names:
        a = original.retrieve(name)
        b = reloaded.retrieve(name)
        assert a.imported_packages == b.imported_packages
        assert a.vmi.full_manifest() == b.vmi.full_manifest()


@given(spec=schedules)
@settings(max_examples=25, deadline=None)
def test_snapshot_reload_is_identity(spec, tmp_path_factory):
    """Save/load mid-churn reproduces the repository exactly."""
    driver = _Driver(Expelliarmus())
    for op in spec:
        driver.step(op)

    reloaded_system = Expelliarmus(
        repository=reload_through_files(
            driver.system.repo, tmp_path_factory.mktemp("snap")
        )
    )

    assert _fingerprint(driver.system.repo) == _fingerprint(
        reloaded_system.repo
    )
    assert driver.system.fsck().clean
    assert reloaded_system.fsck().clean
    _assert_same_retrievals(driver.system, reloaded_system, driver.live)

    # durability must also be invisible *going forward*: the pending
    # churn (dirty bases, zero-ref garbage) collects identically
    first = driver.system.garbage_collect()
    second = reloaded_system.garbage_collect()
    assert first.reclaimed_bytes == second.reclaimed_bytes
    assert first.records_scanned == second.records_scanned
    assert first.graph_rebuilds == second.graph_rebuilds
    assert _fingerprint(
        driver.system.repo, exact_revisions=False
    ) == _fingerprint(reloaded_system.repo, exact_revisions=False)


@given(spec=schedules)
@settings(max_examples=25, deadline=None)
def test_oplog_replay_equals_snapshot(spec, tmp_path_factory):
    """Workspace reopen (checkpoint + replay) ≡ direct snapshot."""
    tmp = tmp_path_factory.mktemp("ws")
    driver = _Driver(Expelliarmus.open(tmp / "store"))
    for op in spec:
        driver.step(op)

    live_fp = _fingerprint(driver.system.repo)
    via_snapshot = reload_through_files(
        driver.system.repo, tmp_path_factory.mktemp("snap")
    )
    driver.system.close()  # crash-like exit: no final checkpoint

    via_replay_system = Expelliarmus.open(tmp / "store")
    via_replay = via_replay_system.repo

    assert _fingerprint(via_replay) == live_fp
    assert _fingerprint(via_snapshot) == live_fp
    assert via_replay_system.fsck().clean
    _assert_same_retrievals(
        via_replay_system,
        Expelliarmus(repository=via_snapshot),
        driver.live,
    )
    via_replay_system.close()
