"""A reopen that replays the op-log keeps the objects' sharing.

Each op-log record unpickles on its own, so a replayed payload shares
nothing with the objects the repository already holds: without care,
a base image replayed after its family's first generation brings its
own copies of the packages, attributes and skeleton they share, a
replayed package its own copies of the strings every package names,
and a replayed master member its own copies of the vertex keys the
master already has.  A snapshot load keeps that sharing through the
pickle memo.  After one reopen, each section of the state must pickle
to within 5% of what the same session pickles to without the reopen.
"""

import pickle

import pytest

from repro.core.system import Expelliarmus
from repro.repository.persistence import repository_state
from repro.workloads.scale import scale_corpus

N_VMIS = 120
#: images published before the checkpoint; the rest are replayed
CHECKPOINTED = 20
SECTIONS = ("bases", "packages", "masters", "records")


def _sizes(repo) -> dict[str, int]:
    state = repository_state(repo)
    return {
        section: len(
            pickle.dumps(state[section], protocol=pickle.HIGHEST_PROTOCOL)
        )
        for section in SECTIONS
    }


@pytest.fixture(scope="module")
def sizes(tmp_path_factory):
    corpus = scale_corpus(
        N_VMIS, n_families=6, seed="section-sizes",
        split_base_pct=50, fat_base_pct=0,
    )
    ws = tmp_path_factory.mktemp("sections") / "ws"
    system = Expelliarmus.open(ws)
    system.publish_many([corpus.build(i) for i in range(CHECKPOINTED)])
    system.save()
    system.publish_many(
        [corpus.build(i) for i in range(CHECKPOINTED, N_VMIS)]
    )
    live = _sizes(system.repo)
    system.close()
    reopened = Expelliarmus.open(ws)
    try:
        ops = reopened.workspace.replayed_ops
        return live, _sizes(reopened.repo), ops
    finally:
        reopened.close()


@pytest.mark.parametrize("section", SECTIONS)
def test_replayed_section_pickles_like_the_live_one(sizes, section):
    live, reopened, ops = sizes
    # the replay covers new bases, packages and master members
    assert ops > N_VMIS - CHECKPOINTED
    assert reopened[section] <= live[section] * 1.05, (reopened, live)
