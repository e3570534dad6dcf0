"""Write the full-master op-log fixture (run at the commit it pins).

Until publishes journaled only the upload's master-graph delta
(``add_master_member``), every publish journaled its whole merged
master graph as a ``put_master_graph`` record.  This script writes one
small durable workspace in that layout, ``full_master_workspace``:

* ``snapshot.bin`` — a checkpoint after the first publishes;
* ``oplog.bin`` — an un-checkpointed tail of publishes into the stored
  masters, a delete and an incremental GC pass;
* ``digests.json`` — what every surviving VMI retrieved there.

The corpus is ``scale_corpus(CORPUS_SIZE, n_families=2,
seed=CORPUS_SEED)``; the workspace holds images ``0 .. WRITTEN - 1``,
so a reader can publish the rest on top.

Usage, from a checkout of the commit whose layout is to be pinned::

    PYTHONPATH=src python tests/fixtures/make_full_master_workspace.py \\
        tests/fixtures
"""

import json
import shutil
import sys
from pathlib import Path

from repro.core.system import Expelliarmus
from repro.service.protocol import manifest_digest
from repro.workloads.scale import scale_corpus

CORPUS_SIZE = 12
CORPUS_SEED = "full-master-oplog"
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
    # the un-checkpointed tail: publishes into stored masters, then a
    # delete swept by an incremental GC pass
    report = system.publish_many(images[CHECKPOINTED:], order="given")
    assert report.n_failed == 0
    system.delete(images[CHECKPOINTED + 1].name)
    system.garbage_collect()
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
    out = fixtures / "full_master_workspace"
    if out.exists():
        shutil.rmtree(out)
    write(out)


if __name__ == "__main__":
    main(Path(sys.argv[1]))
