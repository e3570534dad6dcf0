"""Unit tests for the metadata index."""

import pytest

from repro.errors import DuplicateEntryError, NotInRepositoryError
from repro.repository.database import (
    BaseImageRow,
    MetadataDatabase,
    PackageRow,
)


@pytest.fixture
def db():
    return MetadataDatabase()


def base_row(key=2**63 + 5) -> BaseImageRow:
    return BaseImageRow(
        blob_key=key, os_type="linux", distro="ubuntu",
        version="16.04", arch="amd64", size=10**9, n_packages=70,
    )


def pkg_row(key=11, name="redis") -> PackageRow:
    return PackageRow(
        blob_key=key, name=name, version="3.0.6", arch="amd64",
        deb_size=1000, installed_size=3000,
    )


class TestBaseImages:
    def test_insert_and_list(self, db):
        db.insert_base_image(base_row())
        rows = db.base_images()
        assert len(rows) == 1
        assert rows[0].blob_key == 2**63 + 5  # uint64 round trip

    def test_duplicate_rejected(self, db):
        db.insert_base_image(base_row())
        with pytest.raises(DuplicateEntryError):
            db.insert_base_image(base_row())

    def test_delete(self, db):
        db.insert_base_image(base_row())
        db.delete_base_image(2**63 + 5)
        assert db.base_images() == []

    def test_delete_unknown_raises(self, db):
        with pytest.raises(NotInRepositoryError):
            db.delete_base_image(9)


class TestPackages:
    def test_insert_query(self, db):
        db.insert_package(pkg_row())
        assert db.has_package(11)
        assert not db.has_package(12)
        assert db.package_count() == 1

    def test_packages_named(self, db):
        db.insert_package(pkg_row(key=1, name="redis"))
        db.insert_package(pkg_row(key=2, name="nginx"))
        named = db.packages_named("redis")
        assert len(named) == 1
        assert named[0].blob_key == 1

    def test_duplicate_rejected(self, db):
        db.insert_package(pkg_row())
        with pytest.raises(DuplicateEntryError):
            db.insert_package(pkg_row())


class TestVMIs:
    def test_insert_and_get(self, db):
        row = db.insert_vmi("vm1", 5, "data1", [1, 2])
        assert row.seq == 1
        fetched = db.get_vmi("vm1")
        assert fetched.base_key == 5
        assert fetched.data_label == "data1"
        assert sorted(db.vmi_package_keys("vm1")) == [1, 2]

    def test_sequence_preserves_upload_order(self, db):
        db.insert_vmi("a", 1, None, [])
        db.insert_vmi("b", 1, None, [])
        assert [r.name for r in db.vmis()] == ["a", "b"]

    def test_duplicate_name_rejected(self, db):
        db.insert_vmi("vm", 1, None, [])
        with pytest.raises(DuplicateEntryError):
            db.insert_vmi("vm", 1, None, [])

    def test_update_base(self, db):
        db.insert_vmi("vm", 1, None, [])
        db.update_vmi_base("vm", 2**63 + 9)
        assert db.get_vmi("vm").base_key == 2**63 + 9

    def test_update_unknown_raises(self, db):
        with pytest.raises(NotInRepositoryError):
            db.update_vmi_base("ghost", 1)

    def test_get_unknown_raises(self, db):
        with pytest.raises(NotInRepositoryError):
            db.get_vmi("ghost")


class TestBaseImageAttrsIndex:
    def _insert_variety(self, db):
        db.insert_base_image(base_row(1))
        db.insert_base_image(
            BaseImageRow(
                blob_key=2, os_type="linux", distro="ubuntu",
                version="18.04", arch="amd64", size=10**9, n_packages=70,
            )
        )
        db.insert_base_image(
            BaseImageRow(
                blob_key=3, os_type="linux", distro="debian",
                version="9", arch="arm64", size=10**9, n_packages=60,
            )
        )

    def test_exact_quadruple_query(self, db):
        self._insert_variety(db)
        rows = db.base_images_with_attrs(
            "linux", "ubuntu", "16.04", "amd64"
        )
        assert [r.blob_key for r in rows] == [1]

    def test_family_prefix_query(self, db):
        self._insert_variety(db)
        rows = db.base_images_with_attrs("linux", "ubuntu")
        assert [r.blob_key for r in rows] == [1, 2]
        assert db.base_images_with_attrs("linux", "arch") == []

    def test_count(self, db):
        assert db.base_image_count() == 0
        self._insert_variety(db)
        assert db.base_image_count() == 3
        db.delete_base_image(2)
        assert db.base_image_count() == 2


class TestResultOrders:
    """The orders the SQLite schema produced, which callers rely on."""

    KEYS = [5, 2**64 - 3, 2, 2**63 + 7, 9]
    SIGNED_ORDER = [2**63 + 7, 2**64 - 3, 2, 5, 9]

    def test_bases_and_packages_in_signed_key_order(self, db):
        for key in self.KEYS:
            db.insert_base_image(base_row(key))
            db.insert_package(pkg_row(key=key))
        assert [r.blob_key for r in db.base_images()] == self.SIGNED_ORDER
        assert [
            r.blob_key for r in db.base_images_with_attrs("linux", "ubuntu")
        ] == self.SIGNED_ORDER
        assert [r.blob_key for r in db.packages_named("redis")] == (
            self.SIGNED_ORDER
        )
        assert [r.blob_key for r in db.all_packages()] == self.SIGNED_ORDER

    def test_vmi_package_keys_deduplicated_in_signed_order(self, db):
        db.insert_vmi("vm", 1, None, self.KEYS + self.KEYS[:2])
        assert db.vmi_package_keys("vm") == self.SIGNED_ORDER
        # the grouped view keeps insertion order
        assert db.all_vmi_package_keys() == {"vm": self.KEYS}

    def test_duplicate_insert_uses_up_a_seq(self, db):
        db.insert_vmi("a", 1, None, [])
        with pytest.raises(DuplicateEntryError):
            db.insert_vmi("a", 1, None, [])
        assert db.insert_vmi("b", 1, None, []).seq == 3

    def test_repointed_vmi_keeps_its_seq_place(self, db):
        db.insert_vmi("a", 1, None, [])
        db.insert_vmi("b", 2, None, [])
        db.insert_vmi("c", 1, None, [])
        db.update_vmi_base("c", 2)
        db.update_vmi_base("a", 2)
        assert [r.name for r in db.vmis_for_base(2)] == ["a", "b", "c"]
        assert db.vmis_for_base(1) == []
        assert [r.name for r in db.vmis()] == ["a", "b", "c"]

    def test_replaced_join_rows_move_to_the_end(self, db):
        db.insert_vmi("a", 1, None, [3, 1])
        db.insert_vmi("b", 1, None, [2])
        db.replace_vmi_packages("a", [4])
        assert list(db.all_vmi_package_keys()) == ["b", "a"]
        db.replace_vmi_packages("b", [])
        assert db.all_vmi_package_keys() == {"a": [4]}


class TestAllVmiPackageKeys:
    def test_grouped_with_unsigned_round_trip(self, db):
        big = 2**63 + 7  # uint64 key crossing the signed boundary
        db.insert_package(pkg_row(key=big, name="redis"))
        db.insert_package(pkg_row(key=12, name="mongo"))
        db.insert_vmi("vmi-a", 0, None, [big, 12])
        db.insert_vmi("vmi-b", 0, None, [12])
        grouped = db.all_vmi_package_keys()
        assert grouped == {"vmi-a": [big, 12], "vmi-b": [12]}

    def test_matches_per_record_queries(self, db):
        db.insert_package(pkg_row(key=11, name="redis"))
        db.insert_vmi("vmi-a", 0, None, [11])
        db.insert_vmi("vmi-empty", 0, None, [])
        grouped = db.all_vmi_package_keys()
        for row in db.vmis():
            assert grouped.get(row.name, []) == db.vmi_package_keys(
                row.name
            )

    def test_empty_database(self, db):
        assert db.all_vmi_package_keys() == {}
