"""The frozen slotted model dataclasses pickle their fields as a list.

Their explicit ``__getstate__``/``__setstate__`` replace the generic
ones stdlib's dataclass decorator installs: the state must be the same
field-value list, in declaration order, so snapshot and op-log bytes do
not change.
"""

import dataclasses
import pickle

import pytest

from repro.model.attributes import BaseImageAttrs, PackageAttrs
from repro.model.package import DependencySpec
from repro.model.versions import Version

SAMPLES = (
    BaseImageAttrs("linux", "ubuntu", "16.04", "amd64"),
    PackageAttrs("libc6", Version.parse("2.23-0ubuntu3"), "amd64"),
    DependencySpec("libc6", ">=", Version.parse("2.17")),
    DependencySpec("dpkg"),
)


@pytest.mark.parametrize("obj", SAMPLES, ids=lambda o: type(o).__name__)
def test_reduce_state_is_field_values_in_declaration_order(obj):
    state = obj.__reduce_ex__(5)[2]
    assert state == [
        getattr(obj, f.name) for f in dataclasses.fields(obj)
    ]


@pytest.mark.parametrize("obj", SAMPLES, ids=lambda o: type(o).__name__)
def test_pickle_roundtrip(obj):
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    again = pickle.loads(blob)
    assert again == obj
    assert pickle.dumps(again, protocol=pickle.HIGHEST_PROTOCOL) == blob
