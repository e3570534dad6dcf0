"""Write the snapshot-v2 workspace fixture (run at the commit it pins).

Until the content file existed, a checkpoint pickled every stored
object into ``snapshot.bin`` (snapshot format v2), and the op-log
(header version 1) held each master-graph record by value: a
``put_master_graph`` carried the whole package graph, an
``add_master_member`` the upload's own primary subgraph.  This script
writes one small durable workspace in that layout, ``v2_workspace``:

* ``snapshot.bin`` — a v2 checkpoint after the first publishes;
* ``oplog.bin`` — an un-checkpointed tail of publishes into the stored
  masters (``add_master_member`` and ``record_vmi`` records) and a
  delete;
* ``digests.json`` — what every surviving VMI retrieved there.

The corpus is ``scale_corpus(CORPUS_SIZE, n_families=2,
seed=CORPUS_SEED)``; the workspace holds images ``0 .. WRITTEN - 1``,
so a reader can publish the rest on top.

Usage, from a checkout of the commit whose layout is to be pinned::

    PYTHONPATH=src python tests/fixtures/make_v2_workspace.py tests/fixtures
"""

import json
import shutil
import sys
from pathlib import Path

from repro.core.system import Expelliarmus
from repro.service.protocol import manifest_digest
from repro.workloads.scale import scale_corpus

CORPUS_SIZE = 12
CORPUS_SEED = "v2-workspace"
WRITTEN = 9
#: the checkpointed prefix; the rest of WRITTEN lives only in the op-log
CHECKPOINTED = 4


def write(out: Path) -> None:
    corpus = scale_corpus(CORPUS_SIZE, n_families=2, seed=CORPUS_SEED)
    images = [corpus.build(i) for i in range(WRITTEN)]
    system = Expelliarmus.open(out)
    report = system.publish_many(images[:CHECKPOINTED], order="given")
    assert report.n_failed == 0
    system.save()
    report = system.publish_many(images[CHECKPOINTED:], order="given")
    assert report.n_failed == 0
    system.delete(images[CHECKPOINTED + 1].name)
    digests = {}
    for name in system.published_names():
        got = system.retrieve(name)
        digests[name] = [
            manifest_digest(got.vmi.full_manifest()),
            list(got.imported_packages),
        ]
    system.close()
    (out / "lock").unlink(missing_ok=True)
    (out / "digests.json").write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n"
    )


def main(fixtures: Path) -> None:
    out = fixtures / "v2_workspace"
    if out.exists():
        shutil.rmtree(out)
    write(out)


if __name__ == "__main__":
    main(Path(sys.argv[1]))
