"""The frozen model dataclasses pickle their field values in order.

The slotted ones' explicit ``__getstate__``/``__setstate__`` replace
the generic ones stdlib's dataclass decorator installs: the state must
be the same field-value list, in declaration order, so snapshot and
op-log bytes do not change.  :class:`Package` is not slotted; it
pickles as a call of ``_unpickle_package`` with its field values, which
replaced a pickled instance dict keyed by the ten field names that
older snapshots and op-logs still hold.  :class:`FileManifest` pickles
as a call of ``_unpickle_manifest`` with its record count and one
little-endian buffer of its three columns, which replaced three pickled
numpy arrays: no numpy global is left in the stream.
"""

import dataclasses
import pickle
import pickletools

import numpy as np
import pytest

from repro.image import manifest as manifest_module
from repro.image.manifest import FileManifest
from repro.model.attributes import BaseImageAttrs, PackageAttrs
from repro.model import package as package_module
from repro.model.package import DependencySpec, Package, make_package
from repro.model.versions import Version
from repro.repository.oplog import UNLOADABLE

SAMPLES = (
    BaseImageAttrs("linux", "ubuntu", "16.04", "amd64"),
    PackageAttrs("libc6", Version.parse("2.23-0ubuntu3"), "amd64"),
    DependencySpec("libc6", ">=", Version.parse("2.17")),
    DependencySpec("dpkg"),
    make_package(
        "libssl1.0.0", "1.0.2g-1ubuntu4", installed_size=3_000_000,
        depends=(DependencySpec("libc6", ">=", Version.parse("2.14")),),
        section="libs",
    ),
)


def _field_values(obj) -> list:
    return [getattr(obj, f.name) for f in dataclasses.fields(obj)]


@pytest.mark.parametrize(
    "obj", SAMPLES[:-1], ids=lambda o: type(o).__name__
)
def test_reduce_state_is_field_values_in_declaration_order(obj):
    assert obj.__reduce_ex__(5)[2] == _field_values(obj)


def test_package_reduces_to_its_rebuild_function_and_field_values():
    pkg = SAMPLES[-1]
    rebuild, values = pkg.__reduce_ex__(5)
    assert rebuild is package_module._unpickle_package
    assert list(values) == _field_values(pkg)


@pytest.mark.parametrize("obj", SAMPLES, ids=lambda o: type(o).__name__)
def test_pickle_roundtrip(obj):
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    again = pickle.loads(blob)
    assert again == obj
    assert pickle.dumps(again, protocol=pickle.HIGHEST_PROTOCOL) == blob


def _warmed_package() -> Package:
    """A package whose per-instance caches are all filled."""
    pkg = make_package("redis-server", "3.0.6", installed_size=1_000_000)
    pkg.identity_id()
    pkg.blob_key()
    str(pkg.identity)
    from repro.model.graph import SemanticGraph

    SemanticGraph().package_key(pkg)
    return pkg


def test_package_caches_stay_out_of_the_pickle():
    pkg = _warmed_package()
    assert {"_identity", "_identity_id", "_blob_key", "_node_key"} <= set(
        vars(pkg)
    )
    fresh = make_package("redis-server", "3.0.6", installed_size=1_000_000)
    assert pickle.dumps(pkg, protocol=5) == pickle.dumps(fresh, protocol=5)
    again = pickle.loads(pickle.dumps(pkg, protocol=5))
    assert again == pkg
    assert set(vars(again)) == {f.name for f in dataclasses.fields(Package)}
    assert again.blob_key() == pkg.blob_key()


class _DictStatePackage:
    """Pickles as a :class:`Package` carrying the older dict state."""

    def __init__(self, state: dict) -> None:
        self.state = state

    def __reduce_ex__(self, protocol):
        return (object.__new__, (Package,), self.state)


def test_package_loads_the_older_dict_state():
    pkg = _warmed_package()
    # the oldest files pickled the whole instance dict, caches included
    blob = pickle.dumps(_DictStatePackage(dict(vars(pkg))), protocol=5)
    again = pickle.loads(blob)
    assert type(again) is Package
    assert again == pkg
    # a restored interned id would belong to another process's table
    assert set(vars(again)) == {f.name for f in dataclasses.fields(Package)}
    # and it pickles in the list form from then on
    assert pickle.dumps(again, protocol=5) == pickle.dumps(pkg, protocol=5)


def test_package_pickles_smaller_than_the_dict_state():
    pkg = make_package("redis-server", "3.0.6", installed_size=1_000_000)
    state = {f.name: getattr(pkg, f.name) for f in dataclasses.fields(pkg)}
    assert len(pickle.dumps(pkg, protocol=5)) < len(
        pickle.dumps(_DictStatePackage(state), protocol=5)
    )


def test_reader_without_the_rebuild_function_gets_an_unloadable_record(
    monkeypatch,
):
    """A build that predates ``_unpickle_package`` fails the lookup with
    an error loaders report as an unloadable record, never with the
    ``UnpicklingError`` an op-log reader takes for a torn tail."""
    blob = pickle.dumps(SAMPLES[-1], protocol=pickle.HIGHEST_PROTOCOL)
    monkeypatch.delattr(package_module, "_unpickle_package")
    monkeypatch.delattr(Package, "__setstate__")
    with pytest.raises(UNLOADABLE):
        pickle.loads(blob)


# ----------------------------------------------------------------------
# FileManifest: one buffer per manifest
# ----------------------------------------------------------------------

MANIFESTS = (
    FileManifest.synthesize("pickle-state", 40, 1_000_000),
    FileManifest.from_records([(2**64 - 1, 7, 0.5), (1, 0, 0.98)]),
    FileManifest.empty(),
)


def _stream_globals(blob: bytes) -> set[str]:
    """The module names a pickle stream imports from."""
    strings = [
        arg
        for op, arg, _ in pickletools.genops(blob)
        if op.name in ("SHORT_BINUNICODE", "BINUNICODE", "GLOBAL")
    ]
    return {s.split()[0] for s in strings if s.startswith(("repro", "numpy"))}


def test_manifest_reduces_to_its_rebuild_function_and_one_buffer():
    m = MANIFESTS[0]
    rebuild, (n, buffer) = m.__reduce__()
    assert rebuild is manifest_module._unpickle_manifest
    assert n == 40
    assert buffer == (
        m.content_ids.astype("<u8").tobytes()
        + m.sizes.astype("<i8").tobytes()
        + m.gzip_ratios.astype("<f8").tobytes()
    )


@pytest.mark.parametrize("m", MANIFESTS, ids=("synth", "edges", "empty"))
def test_manifest_roundtrip(m):
    m.total_size  # fill the memo: it must not reach the pickle
    blob = pickle.dumps(m, protocol=pickle.HIGHEST_PROTOCOL)
    again = pickle.loads(blob)
    assert type(again) is FileManifest
    assert again == m
    for got, want in (
        (again.content_ids, m.content_ids),
        (again.sizes, m.sizes),
        (again.gzip_ratios, m.gzip_ratios),
    ):
        assert np.array_equal(got, want)
        assert got.dtype == want.dtype
        assert not got.flags.writeable
    assert again.total_size == m.total_size
    assert again.n_files == m.n_files
    assert pickle.dumps(again, protocol=pickle.HIGHEST_PROTOCOL) == blob
    assert _stream_globals(blob) == {"repro.image.manifest"}


def test_manifest_loads_the_older_slots_state():
    """Snapshots and op-logs written before ``__reduce__`` pickle the
    three arrays as a ``(None, slots)`` state."""
    m = MANIFESTS[0]

    class _SlotsState:
        def __reduce_ex__(self, protocol):
            return (
                object.__new__,
                (FileManifest,),
                (None, {"_ids": m.content_ids, "_sizes": m.sizes,
                        "_ratios": m.gzip_ratios}),
            )

    blob = pickle.dumps(_SlotsState(), protocol=pickle.HIGHEST_PROTOCOL)
    assert "numpy" in {g.split(".")[0] for g in _stream_globals(blob)}
    again = pickle.loads(blob)
    assert type(again) is FileManifest
    assert again == m
    assert again.total_size == m.total_size
    # and it pickles in the buffer form from then on
    assert pickle.dumps(again, protocol=5) == pickle.dumps(m, protocol=5)


def test_manifest_pickles_smaller_than_the_slots_state():
    m = MANIFESTS[0]
    old = pickle.dumps(
        (None, {"_ids": m.content_ids, "_sizes": m.sizes,
                "_ratios": m.gzip_ratios}),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    assert len(pickle.dumps(m, protocol=pickle.HIGHEST_PROTOCOL)) < len(old)


def test_reader_without_the_manifest_rebuild_gets_an_unloadable_record(
    monkeypatch,
):
    blob = pickle.dumps(MANIFESTS[0], protocol=pickle.HIGHEST_PROTOCOL)
    monkeypatch.delattr(manifest_module, "_unpickle_manifest")
    with pytest.raises(UNLOADABLE):
        pickle.loads(blob)
