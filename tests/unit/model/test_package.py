"""Unit tests for Package and DependencySpec."""

import pytest

from repro.model.attributes import ARCH_ALL
from repro.model.package import DependencySpec, Package, make_package
from repro.model.versions import Version


class TestDependencySpec:
    def test_bare_name_accepts_everything(self):
        spec = DependencySpec("libc6")
        assert spec.satisfied_by(Version.parse("0.1"))
        assert spec.satisfied_by(Version.parse("99"))

    @pytest.mark.parametrize(
        "op,ver,candidate,ok",
        [
            (">=", "2.17", "2.23", True),
            (">=", "2.17", "2.17", True),
            (">=", "2.17", "2.14", False),
            ("<<", "3.0", "2.9", True),
            ("<<", "3.0", "3.0", False),
            (">>", "1.0", "1.0", False),
            ("<=", "1.5", "1.5", True),
            ("=", "1.2-3", "1.2-3", True),
            ("=", "1.2-3", "1.2-4", False),
        ],
    )
    def test_constraints(self, op, ver, candidate, ok):
        spec = DependencySpec("x", op, Version.parse(ver))
        assert spec.satisfied_by(Version.parse(candidate)) is ok

    def test_op_requires_version(self):
        with pytest.raises(ValueError):
            DependencySpec("x", op=">=")
        with pytest.raises(ValueError):
            DependencySpec("x", version=Version.parse("1.0"))

    def test_rejects_unknown_operator(self):
        with pytest.raises(ValueError):
            DependencySpec("x", "~=", Version.parse("1.0"))

    def test_str(self):
        assert str(DependencySpec("x")) == "x"
        spec = DependencySpec("x", ">=", Version.parse("2.0"))
        assert ">= 2.0" in str(spec)


class TestPackage:
    def test_identity_and_attrs(self):
        pkg = make_package("redis-server", "3.0.6", installed_size=1000)
        assert pkg.identity == ("redis-server", "3.0.6", "amd64")
        assert pkg.attrs.pkg == "redis-server"

    def test_blob_key_depends_on_version(self):
        a = make_package("x", "1.0", installed_size=10)
        b = make_package("x", "1.1", installed_size=10)
        assert a.blob_key() != b.blob_key()
        assert a.blob_key() == make_package("x", "1.0").blob_key()

    def test_default_deb_size_smaller_than_installed(self):
        pkg = make_package("x", "1.0", installed_size=10_000_000)
        assert 0 < pkg.deb_size < pkg.installed_size

    def test_default_n_files_positive(self):
        assert make_package("x", "1.0", installed_size=0).n_files == 1
        assert make_package("x", "1.0", installed_size=10**8).n_files > 100

    def test_rejects_negative_sizes(self):
        with pytest.raises(ValueError):
            Package(
                name="x",
                version=Version.parse("1.0"),
                arch="amd64",
                installed_size=-1,
                deb_size=0,
                n_files=0,
            )

    def test_rejects_bad_gzip_ratio(self):
        with pytest.raises(ValueError):
            make_package("x", "1.0", gzip_ratio=0.0)
        with pytest.raises(ValueError):
            make_package("x", "1.0", gzip_ratio=1.5)

    def test_portable(self):
        assert make_package("x", "1.0", arch=ARCH_ALL).is_portable()
        assert not make_package("x", "1.0").is_portable()

    def test_dependency_names_order(self):
        pkg = make_package(
            "x", "1.0",
            depends=(DependencySpec("b"), DependencySpec("a")),
        )
        assert pkg.dependency_names() == ("b", "a")


class TestIdentityInterning:
    def test_identity_id_stable_and_shared(self):
        a = make_package("redis-server", "3.0.6", installed_size=1000)
        b = make_package("redis-server", "3.0.6", installed_size=9999)
        # the interned id keys the identity (name, version, arch), not
        # the payload — two builds of the same package share it
        assert a.identity_id() == a.identity_id()
        assert a.identity_id() == b.identity_id()
        assert a.identity_id() != make_package(
            "redis-server", "3.0.7"
        ).identity_id()

    def test_identity_id_never_pickled(self):
        import pickle

        from repro.model.graph import PackageRole, SemanticGraph

        pkg = make_package("redis-server", "3.0.6", installed_size=1000)
        # populate every per-instance cache
        pkg.identity_id()
        pkg.blob_key()
        SemanticGraph().add_package(pkg, PackageRole.PRIMARY)
        caches = {"_identity", "_identity_id", "_blob_key", "_node_key"}
        assert caches <= set(pkg.__dict__)
        clone = pickle.loads(pickle.dumps(pkg))
        # interned ids are assignment-order dependent: a restored
        # object must re-intern in its own process, never trust ours;
        # the other caches are pure in the fields, so snapshots and
        # op-log records do not carry them
        assert not caches & set(clone.__dict__)
        assert clone == pkg
        assert clone.identity_id() == pkg.identity_id()
        assert clone.identity == pkg.identity

    def test_blob_key_survives_pickle(self):
        import pickle

        pkg = make_package("redis-server", "3.0.6", installed_size=1000)
        key = pkg.blob_key()  # content-stable: re-derived identically
        clone = pickle.loads(pickle.dumps(pkg))
        assert clone.blob_key() == key
