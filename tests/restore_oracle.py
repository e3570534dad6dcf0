"""Reference snapshot restore for tests: the primitive loop it replaced.

:meth:`repro.repository.repo.Repository.restore` fills a repository
from snapshot content in one pass.  It must land exactly the state
this loop reaches by calling the journaled primitives one object at a
time — bases, packages, user data, masters, records, dirty marks —
and then restoring the saved mutation counter.  The differential
property suite restores the same state both ways and compares
everything observable.  The loop body is kept as it was when it
served :func:`repro.repository.persistence.restore_into`; the counter
restore, a ``Repository`` method then, is inlined.  A format v3 state
names its objects by blob key, read back through ``content``; the
older formats hold them by value, as :func:`legacy_state` writes them.
:func:`reload_through_files` round-trips a repository through the
files a workspace checkpoint writes, without a workspace.
"""

from __future__ import annotations

import pickle
from pathlib import Path

from repro.repository.master_graphs import (
    master_from_refs,
    master_from_state,
    master_state,
)
from repro.repository.persistence import (
    ContentFile,
    repository_content,
    repository_state,
    restore_into,
    write_state,
)
from repro.repository.repo import Repository

__all__ = ["legacy_state", "reload_through_files", "restore_by_primitives"]

_LEGACY_VERSIONS = (1, 2)


def legacy_state(repo: Repository) -> dict:
    """``repo`` as snapshot format v2 wrote it: every stored object and
    each master's package graph by value."""
    return {
        "version": 2,
        "packages": repo.packages(),
        "bases": repo.base_images(),
        "data": repo.stored_user_data(),
        "masters": [master_state(m) for m in repo.master_graphs()],
        "records": [
            (rec, repo.vmi_contribution(rec.name))
            for rec in repo.vmi_records()
        ],
        "dirty_bases": sorted(repo.dirty_bases()),
        "mutations": repo.mutations,
    }


def reload_through_files(repo: Repository, directory: Path) -> Repository:
    """Write ``repo``'s content file and v3 snapshot into ``directory``
    (which must hold neither) and restore a new repository from them."""
    content = ContentFile(directory)
    content.append(repository_content(repo).items())
    state = repository_state(repo)
    state["content"] = content.position
    snapshot = directory / "snapshot.bin"
    write_state(snapshot, state)
    state = pickle.loads(snapshot.read_bytes())
    _, objects = ContentFile.load(directory, *state["content"])
    return restore_into(Repository(), state, objects)


def restore_by_primitives(
    repo: Repository, state: dict, content: dict | None = None
) -> Repository:
    """Apply a snapshot state dict to an (empty) repository.

    Raises:
        ValueError: unknown snapshot format version, or a saved
            mutation counter behind the primitives' count.
    """
    version = state.get("version")
    if version == 3:
        def objects(section):
            # packages are named by key alone, the others by (key, size)
            return [
                content[entry if section == "packages" else entry[0]]
                for entry in state[section]
            ]

        def master(m):
            base = repo.get_base_image(m.base_key)
            return master_from_refs(base, m, content.__getitem__)

    elif version in _LEGACY_VERSIONS:
        def objects(section):
            return state[section]

        def master(m):
            return master_from_state(repo.get_base_image(m["base_key"]), m)

    else:
        raise ValueError(f"unsupported snapshot version {version!r}")
    for base in objects("bases"):
        repo.store_base_image(base)
    for pkg in objects("packages"):
        repo.store_package(pkg)
    for data in objects("data"):
        repo.store_user_data(data)
    for m in state["masters"]:
        repo.put_master_graph(master(m))
    for record, package_keys in state["records"]:
        repo.record_vmi(record, package_keys=package_keys)
    for key in state.get("dirty_bases", ()):
        repo.mark_base_dirty(key)
    if "mutations" in state:
        count = state["mutations"]
        if count < repo.mutations:
            raise ValueError(
                f"mutation counter may not move backwards "
                f"({repo.mutations} -> {count})"
            )
        repo._mutations = count
    return repo
