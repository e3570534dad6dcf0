"""Differential properties: the one-pass snapshot restore ≡ the
primitive loop it replaced.

:meth:`~repro.repository.repo.Repository.restore` fills a repository
from a snapshot state in one write-lock hold and counts the refcounts
in one pass over the records.  ``tests/restore_oracle.py`` keeps the
former restore, which called the journaled store/record primitives
one object at a time.  Each example draws a repository through
publishes (arrival order, so fat and lean bases replace each other),
deletes (dirty bases, zero-reference garbage), incremental and full GC
passes and a re-base, snapshots it (format v3 with its content, or,
through the legacy loader, format v1: every object by value, no
mutation counter, no master revisions), optionally drops a stored
package that records still name, and restores the same bytes both
ways.  Everything observable must agree: refcounts and zero sets,
dirty bases and the mutation counter, every metadata query and its
order, blob records and byte totals, master content and revisions, and
the pickled ``repository_state`` bytes.  CI raises the example budget
with ``RESTORE_PROP_EXAMPLES``.
"""

import os
import pickle

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from restore_oracle import legacy_state, restore_by_primitives

from repro.core.system import Expelliarmus
from repro.repository.master_graphs import master_content
from repro.repository.persistence import (
    repository_content,
    repository_state,
    restore_into,
)
from repro.repository.repo import Repository
from repro.workloads.scale import scale_corpus

#: example budget override; unset, the default below
_BUDGET = os.environ.get("RESTORE_PROP_EXAMPLES")
_EXAMPLES = int(_BUDGET) if _BUDGET else 6

_SEEDS = ("restore-a", "restore-b", "restore-c")
#: (split_base_pct, fat_base_pct): plain, two base generations per
#: family, or fat bases that replace lean ones
_REGIMES = ((0, 0), (50, 0), (0, 30))

#: ("publish", count), ("delete", index), ("gc", full?), ("rebase",)
_step = st.one_of(
    st.tuples(st.just("publish"), st.integers(1, 5)),
    st.tuples(st.just("delete"), st.integers(min_value=0)),
    st.tuples(st.just("gc"), st.booleans()),
    st.tuples(st.just("rebase")),
)


def _drive(corpus, steps) -> Expelliarmus:
    system = Expelliarmus()
    published = 0
    live: list[str] = []
    for step in steps:
        if step[0] == "publish":
            stop = min(len(corpus), published + step[1])
            batch = [corpus.build(i) for i in range(published, stop)]
            published = stop
            report = system.publish_many(batch, order="given")
            assert report.n_failed == 0, report.render()
            live.extend(vmi.name for vmi in batch)
        elif step[0] == "delete":
            if live:
                system.delete(live.pop(step[1] % len(live)))
        elif step[0] == "gc":
            system.garbage_collect(full=step[1])
        else:
            system.rebase()
    return system


def _as_v1(state: dict) -> dict:
    """The state as snapshot format v1 wrote it."""
    state["version"] = 1
    del state["mutations"]
    for master in state["masters"]:
        del master["revision"]
    return state


def _drop_named_package(state: dict) -> bool:
    """Drop one stored package that a record's join rows name."""
    named = {key for _, keys in state["records"] for key in keys}
    for index, entry in enumerate(state["packages"]):
        key = entry if isinstance(entry, int) else entry.blob_key()
        if key in named:
            del state["packages"][index]
            return True
    return False


def _observe(repo: Repository) -> dict:
    """Everything the two restore paths must agree on, orders included."""
    db = repo.db
    bases = db.base_images()
    vmis = db.vmis()
    families = {(row.os_type, row.distro) for row in bases}
    return {
        "refcounts": {
            kind: list(refs.items())
            for kind, refs in repo.refcounts().items()
        },
        "zero": (
            repo.zero_ref_packages(),
            repo.zero_ref_data(),
            repo.zero_ref_bases(),
        ),
        "reclaimable": repo.reclaimable_bytes(),
        "dirty": repo.dirty_bases(),
        "mutations": repo.mutations,
        "db": (
            bases,
            db.all_packages(),
            vmis,
            db.all_vmi_package_keys(),
            {
                row.name: db.packages_named(row.name)
                for row in db.all_packages()
            },
            {
                family: db.base_images_with_attrs(*family)
                for family in sorted(families)
            },
            {row.blob_key: db.vmis_for_base(row.blob_key) for row in bases},
            {row.name: db.vmi_package_keys(row.name) for row in vmis},
            db.base_image_count(),
            db.package_count(),
        ),
        "blobs": repo.blobs.records(),
        "bytes": (repo.total_bytes(), repo.bytes_by_kind()),
        "masters": [
            (m.base_key, master_content(m), m.revision)
            for m in repo.master_graphs()
        ],
        "masters_by_attrs": [
            [m.base_key for m in repo.masters_with_attrs(base.attrs)]
            for base in repo.base_images()
        ],
        "records": repo.vmi_records(),
        "state": pickle.dumps(
            repository_state(repo), protocol=pickle.HIGHEST_PROTOCOL
        ),
    }


def _restored(restore, blob: bytes):
    """``restore`` applied to a fresh copy of the pickled state and
    content: the repository, or the error it raised."""
    try:
        return restore(Repository(), *pickle.loads(blob))
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


@settings(
    max_examples=_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.sampled_from(_SEEDS),
    n_vmis=st.integers(6, 14),
    regime=st.sampled_from(_REGIMES),
    steps=st.lists(_step, min_size=1, max_size=8),
    v1=st.booleans(),
    orphan=st.booleans(),
)
def test_one_pass_restore_equals_the_primitive_loop(
    seed, n_vmis, regime, steps, v1, orphan
):
    split_pct, fat_pct = regime
    corpus = scale_corpus(
        n_vmis,
        n_families=2,
        seed=seed,
        split_base_pct=split_pct,
        fat_base_pct=fat_pct,
    )
    system = _drive(corpus, [("publish", n_vmis // 2), *steps])
    if v1:
        state, content = _as_v1(legacy_state(system.repo)), None
    else:
        state = repository_state(system.repo)
        content = repository_content(system.repo)
    state, content = pickle.loads(
        pickle.dumps((state, content), protocol=pickle.HIGHEST_PROTOCOL)
    )
    if orphan:
        _drop_named_package(state)
    blob = pickle.dumps((state, content), protocol=pickle.HIGHEST_PROTOCOL)

    expected = _restored(restore_by_primitives, blob)
    got = _restored(restore_into, blob)
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert isinstance(got, Repository), got
    assert _observe(got) == _observe(expected)
