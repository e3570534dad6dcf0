"""Reference snapshot restore for tests: the primitive loop it replaced.

:meth:`repro.repository.repo.Repository.restore` fills a repository
from snapshot content in one pass.  It must land exactly the state
this loop reaches by calling the journaled primitives one object at a
time — bases, packages, user data, masters, records, dirty marks —
and then restoring the saved mutation counter.  The differential
property suite restores the same state both ways and compares
everything observable.  The loop body is kept as it was when it
served :func:`repro.repository.persistence.restore_into`; the counter
restore, a ``Repository`` method then, is inlined.
"""

from __future__ import annotations

from repro.repository.master_graphs import master_from_state
from repro.repository.repo import Repository

__all__ = ["restore_by_primitives"]

_READABLE_VERSIONS = (1, 2)


def restore_by_primitives(repo: Repository, state: dict) -> Repository:
    """Apply a snapshot state dict to an (empty) repository.

    Raises:
        ValueError: unknown snapshot format version, or a saved
            mutation counter behind the primitives' count.
    """
    if state.get("version") not in _READABLE_VERSIONS:
        raise ValueError(
            f"unsupported snapshot version {state.get('version')!r}"
        )
    for base in state["bases"]:
        repo.store_base_image(base)
    for pkg in state["packages"]:
        repo.store_package(pkg)
    for data in state["data"]:
        repo.store_user_data(data)
    for m in state["masters"]:
        base = repo.get_base_image(m["base_key"])
        repo.put_master_graph(master_from_state(base, m, repo.find_package))
    for record, package_keys in state["records"]:
        repo.record_vmi(record, package_keys=package_keys)
    for base_key in state.get("dirty_bases", ()):
        repo.mark_base_dirty(base_key)
    if "mutations" in state:
        count = state["mutations"]
        if count < repo.mutations:
            raise ValueError(
                f"mutation counter may not move backwards "
                f"({repo.mutations} -> {count})"
            )
        repo._mutations = count
    return repo
