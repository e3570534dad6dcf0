"""Write the networkx-era workspace fixtures (run at the commit they pin).

Until semantic graphs moved onto plain ordered dicts, snapshots and
op-log records pickled each graph as a ``networkx.DiGraph``.  This
script writes two small durable workspaces in that layout, each with
every surviving VMI's retrieval digest and import order beside it:

* ``networkx_workspace`` — a checkpointed snapshot plus an op-log tail
  that was never checkpointed (further publishes, a delete and a
  master-graph rewrite by GC);
* ``networkx_oplog_workspace`` — never checkpointed at all: no
  snapshot, every publish only in the op-log.

Usage, from a checkout of the commit whose layout is to be pinned::

    PYTHONPATH=src python tests/fixtures/make_networkx_workspace.py \\
        tests/fixtures
"""

import json
import shutil
import sys
from pathlib import Path

from repro.core.system import Expelliarmus
from repro.service.protocol import manifest_digest
from repro.workloads.scale import scale_corpus


def _finish(system, out: Path) -> None:
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


def write_checkpointed(out: Path) -> None:
    corpus = scale_corpus(8, n_families=2, seed="legacy-layout")
    images = [corpus.build(i) for i in range(8)]
    system = Expelliarmus.open(out)
    assert system.publish_many(images[:5], order="given").n_failed == 0
    system.save()
    # the un-checkpointed tail: reopening replays these records
    assert system.publish_many(images[5:], order="given").n_failed == 0
    system.delete(images[1].name)
    system.garbage_collect(full=True)
    _finish(system, out)


def write_oplog_only(out: Path) -> None:
    corpus = scale_corpus(3, n_families=1, seed="legacy-oplog")
    images = [corpus.build(i) for i in range(3)]
    system = Expelliarmus.open(out)
    assert system.publish_many(images, order="given").n_failed == 0
    # close() does not checkpoint: the op-log is the only record
    _finish(system, out)
    assert not (out / "snapshot.bin").exists()


def main(fixtures: Path) -> None:
    for name, write in (
        ("networkx_workspace", write_checkpointed),
        ("networkx_oplog_workspace", write_oplog_only),
    ):
        out = fixtures / name
        if out.exists():
            shutil.rmtree(out)
        write(out)


if __name__ == "__main__":
    main(Path(sys.argv[1]))
