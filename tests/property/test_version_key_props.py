"""Property-based tests: ``Version``'s precomputed sort key ≡ Debian policy.

``Version`` orders, compares and hashes through a key it derives once
per instance.  These properties check that key against the direct
string comparator in ``tests/debian_version_oracle.py`` on arbitrary
strings — empty ones and leading ``~`` included, which ``Version.parse``
never produces but the key must still order correctly.
"""

import pickle

from debian_version_oracle import reference_compare
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.model.versions import Version

_part = st.text(alphabet="0123456789abcdeXYZ.+~", max_size=8)

versions = st.builds(
    Version,
    epoch=st.integers(min_value=0, max_value=2),
    upstream=_part,
    revision=_part,
)


def _v(epoch: int, upstream: str, revision: str) -> Version:
    return Version(epoch=epoch, upstream=upstream, revision=revision)


@given(versions, versions)
@settings(max_examples=1000)
@example(_v(0, "1", ""), _v(0, "1", "0~"))
@example(_v(0, "", ""), _v(0, "0~", ""))
@example(_v(0, "1.0", ""), _v(0, "1.0", "0"))
@example(_v(0, "1.0", ""), _v(0, "1.0~", ""))
@example(_v(0, "a", ""), _v(0, "a~", ""))
@example(_v(0, "0a", ""), _v(0, "", ""))
@example(_v(1, "0", ""), _v(0, "9", ""))
def test_order_and_equality_match_the_debian_comparator(a, b):
    expected = reference_compare(a, b)
    assert a.compare(b) == expected
    assert (a < b) == (expected < 0)
    assert (a <= b) == (expected <= 0)
    assert (a > b) == (expected > 0)
    assert (a >= b) == (expected >= 0)
    assert (a == b) == (expected == 0)
    if expected == 0:
        assert hash(a) == hash(b)


def test_empty_revision_sorts_above_zero_tilde():
    # a key that pads the shorter string naively puts "" first
    assert _v(0, "1", "0~") < _v(0, "1", "")
    assert reference_compare(_v(0, "1", "0~"), _v(0, "1", "")) == -1


@given(versions)
def test_unpickled_version_rederives_its_key(v):
    blob = pickle.dumps(v)
    back = pickle.loads(blob)
    assert back == v and hash(back) == hash(v)
    assert back.numeric_components() == v.numeric_components()
    # the derived fields stay out of the pickle
    assert b"_key" not in blob and b"_numeric" not in blob
