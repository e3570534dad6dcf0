"""Unit tests for the content-addressed blob store."""

import pytest

from repro.errors import DuplicateEntryError, NotInRepositoryError
from repro.repository.blobstore import BlobKind, BlobStore


@pytest.fixture
def store():
    return BlobStore()


class TestPut:
    def test_put_and_get(self, store):
        rec = store.put(1, BlobKind.PACKAGE, 100, "pkg")
        assert store.contains(1)
        assert store.get(1) == rec
        assert len(store) == 1

    def test_duplicate_put_raises(self, store):
        store.put(1, BlobKind.PACKAGE, 100, "pkg")
        with pytest.raises(DuplicateEntryError):
            store.put(1, BlobKind.PACKAGE, 100, "pkg")

        assert store.total_bytes() == 100

    def test_negative_size_rejected(self, store):
        with pytest.raises(ValueError):
            store.put(1, BlobKind.PACKAGE, -1, "pkg")


class TestRemove:
    def test_remove_reclaims_bytes(self, store):
        store.put(1, BlobKind.BASE_IMAGE, 100, "base")
        store.remove(1)
        assert not store.contains(1)
        assert store.total_bytes() == 0

    def test_remove_unknown_raises(self, store):
        with pytest.raises(NotInRepositoryError):
            store.remove(42)

    def test_get_unknown_raises(self, store):
        with pytest.raises(NotInRepositoryError):
            store.get(42)


class TestAccounting:
    def test_total_bytes_by_kind(self, store):
        store.put(1, BlobKind.PACKAGE, 100, "p")
        store.put(2, BlobKind.PACKAGE, 50, "p2")
        store.put(3, BlobKind.BASE_IMAGE, 1000, "b")
        store.put(4, BlobKind.USER_DATA, 7, "d")
        assert store.total_bytes() == 1157
        assert store.total_bytes(BlobKind.PACKAGE) == 150
        assert store.total_bytes(BlobKind.BASE_IMAGE) == 1000
        assert store.total_bytes(BlobKind.USER_DATA) == 7

    def test_records_filter(self, store):
        store.put(1, BlobKind.PACKAGE, 100, "p")
        store.put(2, BlobKind.BASE_IMAGE, 10, "b")
        assert len(store.records()) == 2
        assert len(store.records(BlobKind.PACKAGE)) == 1


def _assert_totals_fresh(store):
    """The running totals equal a from-scratch sum over the records."""
    assert store.total_bytes() == sum(r.size for r in store.records())
    for kind in BlobKind:
        assert store.total_bytes(kind) == sum(
            r.size for r in store.records(kind)
        )


class TestRunningTotals:
    def test_totals_track_put_and_remove(self, store):
        store.put(1, BlobKind.PACKAGE, 100, "pkg")
        store.put(2, BlobKind.BASE_IMAGE, 1_000, "base")
        store.put(3, BlobKind.USER_DATA, 10, "data")
        assert store.total_bytes(BlobKind.PACKAGE) == 100
        store.remove(2)
        assert store.total_bytes() == 110
        assert store.total_bytes(BlobKind.BASE_IMAGE) == 0
        _assert_totals_fresh(store)

    def test_totals_fresh_across_the_repository_lifecycle(self, tmp_path):
        """Publish, delete, GC, re-base and reopen all keep the
        running totals equal to a fresh sum."""
        from repro.core.system import Expelliarmus
        from repro.workloads.scale import scale_corpus

        corpus = scale_corpus(
            60, n_families=3, split_base_pct=50, fat_base_pct=0
        )
        system = Expelliarmus.open(tmp_path / "ws")
        for vmi in corpus.build_all():
            system.publish(vmi)
        _assert_totals_fresh(system.repo.blobs)
        system.delete_many(list(corpus.legacy_names()))
        _assert_totals_fresh(system.repo.blobs)
        assert system.garbage_collect().reclaimed_bytes > 0
        _assert_totals_fresh(system.repo.blobs)
        assert system.rebase().candidates_applied > 0
        _assert_totals_fresh(system.repo.blobs)
        total = system.repo.total_bytes()
        system.close()
        reopened = Expelliarmus.open(tmp_path / "ws")
        assert reopened.repo.total_bytes() == total
        _assert_totals_fresh(reopened.repo.blobs)
        reopened.close()
