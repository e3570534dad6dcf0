"""Retrieval output must not depend on the interpreter's hash seed.

Install order, ``imported_packages`` and the wire manifest digest are
derived from dependency closures over the master graph.  When those
closures were plain string sets, their iteration order — and so every
one of those outputs — changed with ``PYTHONHASHSEED`` between
processes over identical repository bytes.  Cached assembly plans
freeze that order, so it must be the same in every process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

#: publishes a small multi-family corpus and prints, per VMI, the wire
#: manifest digest and the import order of a single retrieval
_SCRIPT = """
import json
from repro.core.system import Expelliarmus
from repro.service.protocol import manifest_digest
from repro.workloads.scale import scale_corpus

corpus = scale_corpus(8, n_families=4, seed="hashseed")
system = Expelliarmus()
report = system.publish_many(
    [corpus.build(i) for i in range(8)], order="given"
)
assert report.n_failed == 0
out = {}
for name in system.published_names():
    got = system.retrieve(name)
    out[name] = [
        manifest_digest(got.vmi.full_manifest()),
        list(got.imported_packages),
    ]
print(json.dumps(out, sort_keys=True))
"""


def _retrieve_under(hash_seed: str) -> dict:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_digests_and_import_order_agree_across_hash_seeds():
    first = _retrieve_under("1")
    second = _retrieve_under("2")
    assert len(first) == 8
    assert first == second
