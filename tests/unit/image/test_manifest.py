"""Unit tests for FileManifest."""

import pickle

import numpy as np
import pytest

from repro.image.manifest import (
    SMALL_FILE_THRESHOLD,
    FileManifest,
    ordered_digest,
)
from repro.service.protocol import manifest_digest


class TestConstruction:
    def test_empty(self):
        m = FileManifest.empty()
        assert m.n_files == 0
        assert m.total_size == 0
        assert m.compressed_size() == 0

    def test_from_records(self):
        m = FileManifest.from_records(
            [(1, 100, 0.5), (2, 200, 0.25)]
        )
        assert m.n_files == 2
        assert m.total_size == 300

    def test_from_records_empty(self):
        assert FileManifest.from_records([]).n_files == 0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            FileManifest(
                np.array([1], dtype=np.uint64),
                np.array([1, 2], dtype=np.int64),
                np.array([0.5], dtype=np.float64),
            )

    def test_rejects_negative_sizes(self):
        with pytest.raises(ValueError):
            FileManifest.from_records([(1, -5, 0.5)])

    def test_arrays_are_read_only(self):
        m = FileManifest.from_records([(1, 100, 0.5)])
        with pytest.raises(ValueError):
            m.sizes[0] = 7


class TestSynthesize:
    def test_exact_byte_accounting(self):
        m = FileManifest.synthesize("seed", 1000, 12_345_678)
        assert m.n_files == 1000
        assert m.total_size == 12_345_678

    def test_deterministic(self):
        assert FileManifest.synthesize("s", 50, 10_000) == (
            FileManifest.synthesize("s", 50, 10_000)
        )

    def test_distinct_seeds_distinct_content(self):
        a = FileManifest.synthesize("s1", 50, 10_000)
        b = FileManifest.synthesize("s2", 50, 10_000)
        assert not np.intersect1d(a.content_ids, b.content_ids).size

    def test_zero_files(self):
        assert FileManifest.synthesize("s", 0, 0).n_files == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FileManifest.synthesize("s", -1, 10)

    def test_ratios_bounded(self):
        m = FileManifest.synthesize("s", 500, 10**6, gzip_ratio=0.36)
        assert float(m.gzip_ratios.min()) >= 0.05
        assert float(m.gzip_ratios.max()) <= 0.98


class TestOperations:
    def test_concat_preserves_duplicates(self):
        a = FileManifest.from_records([(1, 10, 0.5)])
        b = FileManifest.from_records([(1, 10, 0.5), (2, 20, 0.5)])
        m = FileManifest.concat([a, b])
        assert m.n_files == 3
        assert m.total_size == 40

    def test_concat_empty_list(self):
        assert FileManifest.concat([]).n_files == 0

    def test_unique_collapses(self):
        m = FileManifest.from_records(
            [(1, 10, 0.5), (1, 10, 0.5), (2, 20, 0.5)]
        )
        u = m.unique()
        assert u.n_files == 2
        assert u.total_size == 30

    def test_new_against_filters_known(self):
        m = FileManifest.from_records(
            [(1, 10, 0.5), (2, 20, 0.5), (3, 30, 0.5)]
        )
        known = np.array([2], dtype=np.uint64)
        new = m.new_against(known)
        assert set(new.content_ids.tolist()) == {1, 3}

    def test_new_against_empty_store(self):
        m = FileManifest.from_records([(1, 10, 0.5), (1, 10, 0.5)])
        new = m.new_against(np.empty(0, dtype=np.uint64))
        assert new.n_files == 1  # dedup'd internally too

    def test_duplicate_bytes_against(self):
        m = FileManifest.from_records([(1, 10, 0.5), (2, 20, 0.5)])
        known = np.array([1], dtype=np.uint64)
        assert m.duplicate_bytes_against(known) == 10

    def test_compressed_size_uses_ratios(self):
        m = FileManifest.from_records([(1, 100, 0.5), (2, 100, 0.25)])
        assert m.compressed_size() == 75

    def test_small_file_mask(self):
        m = FileManifest.from_records(
            [(1, 10, 0.5), (2, SMALL_FILE_THRESHOLD + 1, 0.5)]
        )
        mask = m.small_file_mask()
        assert mask.tolist() == [True, False]

    def test_select(self):
        m = FileManifest.from_records([(1, 10, 0.5), (2, 20, 0.5)])
        sel = m.select(np.array([False, True]))
        assert sel.content_ids.tolist() == [2]

    def test_equality_and_hash(self):
        a = FileManifest.from_records([(1, 10, 0.5)])
        b = FileManifest.from_records([(1, 10, 0.5)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != FileManifest.from_records([(2, 10, 0.5)])
        assert len(a) == 1


class TestMemoizedTotal:
    def test_total_size_memo_never_pickled(self):
        """The pickled form does not depend on whether the memo was
        filled: it always carries the total, so a loaded manifest holds
        its total without summing."""
        m = FileManifest.synthesize("memo", 40, 1_000_000)
        unmemoized = pickle.dumps(m)
        assert m.total_size == 1_000_000
        # the memo leaves the pickled form exactly as it was
        assert pickle.dumps(m) == unmemoized
        # the record is the count, the three columns and the total
        _, (n, buffer, total) = m.__reduce__()
        assert n == 40 and len(buffer) == 3 * 8 * n
        assert total == 1_000_000
        restored = pickle.loads(unmemoized)
        assert restored == m
        assert restored._total == 1_000_000
        assert restored.total_size == 1_000_000

    def test_state_without_memo_loads(self):
        """A manifest pickled before the memo existed carries only its
        three arrays."""
        m = FileManifest.from_records([(1, 10, 0.5), (2, 20, 0.25)])
        legacy = FileManifest.__new__(FileManifest)
        legacy.__setstate__(
            (None, {"_ids": m.content_ids, "_sizes": m.sizes,
                    "_ratios": m.gzip_ratios})
        )
        assert legacy == m
        assert legacy.total_size == 30


class TestOrderedDigest:
    def test_equals_the_digest_of_the_concatenation(self):
        parts = [
            FileManifest.synthesize("a", 5, 5_000),
            FileManifest.empty(),
            FileManifest.synthesize("b", 7, 9_000),
        ]
        assert ordered_digest(parts) == manifest_digest(
            FileManifest.concat(parts)
        )

    def test_order_matters(self):
        a = FileManifest.synthesize("a", 5, 5_000)
        b = FileManifest.synthesize("b", 7, 9_000)
        assert ordered_digest([a, b]) != ordered_digest([b, a])
