"""Regression: the metadata index read from many threads during writes.

The metadata index is plain dicts with no lock of its own: the
repository lock is its only guard (writes under ``lock.write()``,
reads under ``lock.read()``).  This hammer runs one writer that
publishes, deletes and garbage-collects while reader threads run the
daemon's index reads, with the interpreter switching threads as often
as it can.  No thread may raise, and the final index must equal the
one a serial replay of the same writes builds.
"""

import sys
import threading

from repro.core.system import Expelliarmus

N_READERS = 4
N_VMIS = 16


def _index_state(repo) -> dict:
    db = repo.db
    return {
        "bases": db.base_images(),
        "packages": db.all_packages(),
        "vmis": db.vmis(),
        "joins": list(db.all_vmi_package_keys().items()),
        "by_base": {
            row.blob_key: db.vmis_for_base(row.blob_key)
            for row in db.base_images()
        },
    }


def _write(system, vmis, deleted) -> None:
    """The writer's script: publish all, after every third publish
    delete the next of ``deleted``, then one garbage-collection pass."""
    repo = system.repo
    for index, vmi in enumerate(vmis):
        with repo.lock.write():
            system.publish(vmi)
        if index % 3 == 2:
            with repo.lock.write():
                system.delete(deleted[index // 3])
    with repo.lock.write():
        system.garbage_collect()


def test_readers_never_see_a_torn_index(scale_corpus_factory):
    corpus = scale_corpus_factory(N_VMIS, n_families=4)
    names = [corpus.spec(i).name for i in range(N_VMIS)]
    deleted = names[::3]
    attrs = [corpus.build(i).base.attrs for i in range(N_VMIS)]

    system = Expelliarmus()
    repo = system.repo
    done = threading.Event()
    errors = []

    def read() -> None:
        try:
            while not done.is_set():
                with repo.lock.read():
                    for query in attrs:
                        repo.base_images_matching(query)
                        repo.stores_family(query.os_type, query.distro)
                    for base in repo.base_images():
                        repo.vmi_records_for_base(base.blob_key())
                    for name in names:
                        repo.vmi_contribution(name)
        except BaseException as exc:  # pragma: no cover - the regression
            errors.append(exc)

    def write() -> None:
        try:
            _write(system, [corpus.build(i) for i in range(N_VMIS)], deleted)
        except BaseException as exc:  # pragma: no cover - the regression
            errors.append(exc)
        finally:
            done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(N_READERS)]
        threads.append(threading.Thread(target=write))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)

    assert not errors
    serial = Expelliarmus()
    _write(serial, [corpus.build(i) for i in range(N_VMIS)], deleted)
    assert _index_state(repo) == _index_state(serial.repo)
    assert repo.vmi_count() == N_VMIS - N_VMIS // 3
