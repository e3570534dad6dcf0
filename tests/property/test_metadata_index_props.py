"""Properties: the dict metadata index ≡ the SQLite schema it replaced.

:class:`~repro.repository.database.MetadataDatabase` must answer every
query exactly as the in-memory SQLite engine in
``tests/sqlite_metadata_oracle.py`` did: the same rows, in the same
order, and the same error type and message for every rejected write.
The orders matter downstream — Algorithm 2's candidate order, GC's
base basis and the snapshot bytes read them — and two of them are not
insertion order: bases and packages come back in signed 64-bit
blob-key order, and a VMI's package keys in signed order too.

Each example drives one random sequence of inserts, deletes, base
re-points and join-row replacements through both classes, drawn from
small pools so that duplicate inserts, deletes of absent rows, keys at
and above ``2**63``, keys repeated within one VMI and VMIs moved
between bases all occur; after every step every query is compared.
CI raises the example budget with ``METADATA_PROP_EXAMPLES``.
"""

import os
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from sqlite_metadata_oracle import SQLiteMetadataDatabase

from repro.errors import ReproError
from repro.repository.database import BaseImageRow, MetadataDatabase, PackageRow

#: example budget override; unset, the default below
_BUDGET = os.environ.get("METADATA_PROP_EXAMPLES")
_EXAMPLES = int(_BUDGET) if _BUDGET else 12

#: blob keys on both sides of the signed boundary, and its edges
KEYS = (0, 1, 5, 9, 2**63 - 1, 2**63, 2**63 + 7, 2**64 - 3, 2**64 - 1)
#: the bases VMIs point at: few, so that re-pointed VMIs share one
BASE_KEYS = (1, 2**63, 2**64 - 1)
NAMES = ("a", "b", "c", "d")
FAMILIES = (("linux", "ubuntu"), ("linux", "debian"), ("windows", "ubuntu"))
VERSIONS = ("16.04", "18.04")
ARCHES = ("amd64", "all")
PACKAGES = ("redis", "nginx", "libc6")
LABELS = (None, "data-1", "data-2")

_key = st.sampled_from(KEYS)
_base_key = st.sampled_from(BASE_KEYS)
_name = st.sampled_from(NAMES)
_keys = st.lists(_key, max_size=6)

_base_rows = st.builds(
    lambda key, family, version, arch, size: BaseImageRow(
        key, *family, version, arch, size, size // 7
    ),
    _key,
    st.sampled_from(FAMILIES),
    st.sampled_from(VERSIONS),
    st.sampled_from(ARCHES),
    st.integers(min_value=0, max_value=10**10),
)
_package_rows = st.builds(
    lambda key, name, version, size: PackageRow(
        key, name, version, "amd64", size, 3 * size
    ),
    _key,
    st.sampled_from(PACKAGES),
    st.sampled_from(("1.0", "2.0-1")),
    st.integers(min_value=0, max_value=10**8),
)

_steps = st.one_of(
    st.tuples(st.just("insert_base_image"), _base_rows),
    st.tuples(st.just("delete_base_image"), _key),
    st.tuples(st.just("insert_package"), _package_rows),
    st.tuples(st.just("delete_package"), _key),
    st.tuples(
        st.just("insert_vmi"),
        _name,
        _base_key,
        st.sampled_from(LABELS),
        _keys,
    ),
    st.tuples(st.just("update_vmi_base"), _name, _base_key),
    st.tuples(st.just("delete_vmi"), _name),
    st.tuples(st.just("replace_vmi_packages"), _name, _keys),
)


def _outcome(call, *args):
    """A call's value, or its error's type and message."""
    try:
        return "ok", call(*args)
    except ReproError as exc:
        return type(exc), str(exc)


def _observe(db) -> dict:
    """Every query the index answers, over every pooled argument."""
    seen = {
        "base_images": db.base_images(),
        "base_image_count": db.base_image_count(),
        "all_packages": db.all_packages(),
        "package_count": db.package_count(),
        "vmis": db.vmis(),
        # as items: dict equality would ignore the group order
        "all_vmi_package_keys": list(db.all_vmi_package_keys().items()),
    }
    for os_type, distro in FAMILIES:
        for version in (None, *VERSIONS):
            for arch in (None, *ARCHES):
                seen[("attrs", os_type, distro, version, arch)] = (
                    db.base_images_with_attrs(os_type, distro, version, arch)
                )
    for key in KEYS:
        seen[("has_package", key)] = db.has_package(key)
        seen[("vmis_for_base", key)] = db.vmis_for_base(key)
    for name in PACKAGES:
        seen[("packages_named", name)] = db.packages_named(name)
    for name in NAMES:
        seen[("get_vmi", name)] = _outcome(db.get_vmi, name)
        seen[("vmi_package_keys", name)] = db.vmi_package_keys(name)
    return seen


@given(st.lists(_steps, min_size=40, max_size=150))
@settings(
    max_examples=_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_every_answer_and_error_matches_sqlite(steps):
    index, oracle = MetadataDatabase(), SQLiteMetadataDatabase()
    for position, (method, *args) in enumerate(steps):
        got = _outcome(getattr(index, method), *args)
        expected = _outcome(getattr(oracle, method), *args)
        assert got == expected, (position, method, args)
        assert _observe(index) == _observe(oracle), (position, method, args)


def test_a_long_replay_matches_sqlite():
    """One long deterministic walk, so deep states are always covered."""
    rng = random.Random(2019)
    index, oracle = MetadataDatabase(), SQLiteMetadataDatabase()

    def keys():
        return [rng.choice(KEYS) for _ in range(rng.randrange(7))]

    for step in range(1500):
        method = rng.choice(
            ["insert_base_image", "insert_package", "insert_vmi",
             "insert_vmi", "update_vmi_base", "replace_vmi_packages",
             "delete_base_image", "delete_package", "delete_vmi"]
        )
        if method == "insert_base_image":
            family = rng.choice(FAMILIES)
            args = (BaseImageRow(
                rng.choice(KEYS), *family, rng.choice(VERSIONS),
                rng.choice(ARCHES), 10**9, 70,
            ),)
        elif method == "insert_package":
            args = (PackageRow(
                rng.choice(KEYS), rng.choice(PACKAGES), "1.0", "amd64",
                1000, 3000,
            ),)
        elif method == "insert_vmi":
            args = (rng.choice(NAMES), rng.choice(BASE_KEYS),
                    rng.choice(LABELS), keys())
        elif method == "update_vmi_base":
            args = (rng.choice(NAMES), rng.choice(BASE_KEYS))
        elif method == "replace_vmi_packages":
            args = (rng.choice(NAMES), keys())
        elif method == "delete_vmi":
            args = (rng.choice(NAMES),)
        else:
            args = (rng.choice(KEYS),)
        got = _outcome(getattr(index, method), *args)
        expected = _outcome(getattr(oracle, method), *args)
        assert got == expected, (step, method, args)
        assert _observe(index) == _observe(oracle), (step, method, args)
