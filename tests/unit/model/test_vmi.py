"""Unit tests for the VirtualMachineImage state machine."""

import pytest

from repro.errors import PackageStateError
from repro.image.manifest import FileManifest, ordered_digest
from repro.model.graph import PackageRole
from repro.model.package import DependencySpec, make_package
from repro.model.vmi import BaseImage, UserData, VirtualMachineImage

from tests.conftest import MINI_ATTRS


def make_base() -> BaseImage:
    libc = make_package(
        "libc", "2.23", installed_size=1_000_000, n_files=10,
        essential=True,
    )
    return BaseImage(
        attrs=MINI_ATTRS,
        packages=(libc,),
        skeleton=FileManifest.synthesize("skel", 5, 50_000),
    )


def make_vmi(name: str = "vm") -> VirtualMachineImage:
    return VirtualMachineImage(name, make_base())


def app_pkg(name="app", deps=()):
    return make_package(
        name, "1.0", installed_size=500_000, n_files=5,
        depends=tuple(DependencySpec(d) for d in deps),
    )


class TestInstallRemove:
    def test_base_members_registered(self):
        vmi = make_vmi()
        assert vmi.has_package("libc")
        assert vmi.installed("libc").role is PackageRole.BASE_MEMBER

    def test_install_and_remove(self):
        vmi = make_vmi()
        pkg = app_pkg()
        vmi.install_package(pkg, PackageRole.PRIMARY)
        assert vmi.has_package("app")
        removed = vmi.remove_package("app")
        assert removed.identity == pkg.identity
        assert not vmi.has_package("app")

    def test_install_conflicting_version_raises(self):
        vmi = make_vmi()
        vmi.install_package(app_pkg(), PackageRole.PRIMARY)
        other = make_package("app", "2.0", installed_size=1)
        with pytest.raises(PackageStateError):
            vmi.install_package(other, PackageRole.PRIMARY)

    def test_reinstall_same_version_strengthens_role(self):
        vmi = make_vmi()
        pkg = app_pkg()
        vmi.install_package(pkg, PackageRole.DEPENDENCY, auto=True)
        vmi.install_package(pkg, PackageRole.PRIMARY)
        rec = vmi.installed("app")
        assert rec.role is PackageRole.PRIMARY
        assert rec.auto is False

    def test_remove_base_member_raises(self):
        vmi = make_vmi()
        with pytest.raises(PackageStateError):
            vmi.remove_package("libc")

    def test_remove_missing_raises(self):
        with pytest.raises(PackageStateError):
            make_vmi().remove_package("ghost")


class TestAutoremove:
    def test_orphaned_dependency_removed(self):
        vmi = make_vmi()
        dep = app_pkg("lib")
        vmi.install_package(dep, PackageRole.DEPENDENCY, auto=True)
        removed = vmi.remove_unused_dependencies()
        assert removed == ["lib"]
        assert not vmi.has_package("lib")

    def test_used_dependency_kept(self):
        vmi = make_vmi()
        vmi.install_package(app_pkg("lib"), PackageRole.DEPENDENCY,
                            auto=True)
        vmi.install_package(
            app_pkg("app", deps=("lib",)), PackageRole.PRIMARY
        )
        assert vmi.remove_unused_dependencies() == []
        assert vmi.has_package("lib")

    def test_chain_collapse_after_primary_removal(self):
        vmi = make_vmi()
        vmi.install_package(app_pkg("leaf"), PackageRole.DEPENDENCY,
                            auto=True)
        vmi.install_package(
            app_pkg("mid", deps=("leaf",)),
            PackageRole.DEPENDENCY, auto=True,
        )
        vmi.install_package(
            app_pkg("top", deps=("mid",)), PackageRole.PRIMARY
        )
        vmi.remove_package("top")
        removed = set(vmi.remove_unused_dependencies())
        assert removed == {"mid", "leaf"}

    def test_dependency_of_base_member_kept(self):
        libc = make_package(
            "libc", "2.23", installed_size=1_000_000,
            depends=(DependencySpec("helper"),), essential=True,
        )
        base = BaseImage(
            attrs=MINI_ATTRS, packages=(libc,),
            skeleton=FileManifest.empty(),
        )
        vmi = VirtualMachineImage("vm", base)
        vmi.install_package(app_pkg("helper"), PackageRole.DEPENDENCY,
                            auto=True)
        assert vmi.remove_unused_dependencies() == []


class TestUserDataAndResidue:
    def test_attach_detach_user_data(self):
        vmi = make_vmi()
        data = UserData("d", FileManifest.synthesize("d", 3, 300))
        vmi.attach_user_data(data)
        assert vmi.user_data is data
        assert vmi.detach_user_data() is data
        assert vmi.user_data is None
        assert vmi.detach_user_data() is None

    def test_double_attach_raises(self):
        vmi = make_vmi()
        data = UserData("d", FileManifest.empty())
        vmi.attach_user_data(data)
        with pytest.raises(PackageStateError):
            vmi.attach_user_data(data)

    def test_residue_lifecycle(self):
        vmi = make_vmi()
        residue = FileManifest.synthesize("r", 4, 4_000)
        vmi.attach_residue(residue)
        assert vmi.residue_size == residue.total_size
        assert vmi.clear_residue() == residue.total_size
        assert vmi.residue_size == 0
        assert vmi.clear_residue() == 0

    def test_double_residue_raises(self):
        vmi = make_vmi()
        vmi.attach_residue(FileManifest.empty())
        with pytest.raises(PackageStateError):
            vmi.attach_residue(FileManifest.empty())


class TestFootprint:
    def test_mounted_size_accounts_everything(self):
        vmi = make_vmi()
        base_size = vmi.mounted_size
        pkg = app_pkg()
        vmi.install_package(pkg, PackageRole.PRIMARY)
        assert vmi.mounted_size == base_size + pkg.installed_size
        vmi.remove_package("app")
        assert vmi.mounted_size == base_size

    def test_n_files_tracks_owners(self):
        vmi = make_vmi()
        before = vmi.n_files
        vmi.install_package(app_pkg(), PackageRole.PRIMARY)
        assert vmi.n_files == before + 5

    def test_full_manifest_matches_counts(self):
        vmi = make_vmi()
        vmi.install_package(app_pkg(), PackageRole.PRIMARY)
        m = vmi.full_manifest()
        assert m.n_files == vmi.n_files
        assert m.total_size == vmi.mounted_size

    @pytest.mark.parametrize(
        "change",
        [
            lambda v: v.install_package(app_pkg("extra"), PackageRole.PRIMARY),
            lambda v: v.remove_package("app"),
            lambda v: v.remove_unused_dependencies(),
            lambda v: v.detach_user_data(),
            lambda v: v.attach_residue(FileManifest.synthesize("r", 3, 9_000)),
        ],
        ids=["install", "remove", "autoremove", "detach", "residue"],
    )
    def test_memoized_footprint_follows_every_change(self, change):
        """Size, file count and digest are read once, then dropped by
        any change to the guest's files."""
        vmi = make_vmi()
        vmi.install_package(app_pkg("lib"), PackageRole.DEPENDENCY, auto=True)
        vmi.install_package(app_pkg(), PackageRole.PRIMARY)
        vmi.attach_user_data(
            UserData("d", FileManifest.synthesize("d", 4, 40_000))
        )
        before = (vmi.mounted_size, vmi.n_files, vmi.manifest_digest())
        change(vmi)
        m = vmi.full_manifest()
        assert (vmi.mounted_size, vmi.n_files) == (m.total_size, m.n_files)
        assert vmi.manifest_digest() == ordered_digest([m])
        assert (vmi.mounted_size, vmi.n_files, vmi.manifest_digest()) != before


class TestClone:
    def _vmi(self):
        vmi = make_vmi()
        vmi.install_package(app_pkg("lib"), PackageRole.DEPENDENCY, auto=True)
        vmi.install_package(app_pkg(), PackageRole.PRIMARY)
        return vmi

    def test_clone_is_an_equal_image_under_a_new_name(self):
        vmi = self._vmi()
        twin = vmi.clone("twin")
        assert twin.name == "twin"
        assert twin.base is vmi.base
        assert twin.full_manifest() == vmi.full_manifest()
        assert twin.manifest_digest() == vmi.manifest_digest()
        assert [
            (r.name, r.role, r.auto) for r in twin.installed_packages()
        ] == [(r.name, r.role, r.auto) for r in vmi.installed_packages()]

    def test_changes_to_a_clone_stay_on_the_clone(self):
        vmi = self._vmi()
        digest, size = vmi.manifest_digest(), vmi.mounted_size
        twin = vmi.clone("twin")
        twin.installed("lib").role = PackageRole.PRIMARY
        twin.remove_package("app")
        twin.attach_residue(FileManifest.synthesize("r", 3, 9_000))
        assert vmi.installed("lib").role is PackageRole.DEPENDENCY
        assert vmi.has_package("app")
        assert vmi.residue_size == 0
        assert (vmi.manifest_digest(), vmi.mounted_size) == (digest, size)
        assert twin.mounted_size == twin.full_manifest().total_size


class TestDecompositionSupport:
    def test_is_base_only_progression(self):
        vmi = make_vmi()
        vmi.install_package(app_pkg(), PackageRole.PRIMARY)
        vmi.attach_user_data(UserData("d", FileManifest.empty()))
        vmi.attach_residue(FileManifest.empty())
        assert not vmi.is_base_only()
        vmi.remove_package("app")
        vmi.detach_user_data()
        assert not vmi.is_base_only()  # residue still attached
        vmi.clear_residue()
        assert vmi.is_base_only()

    def test_to_base_image_requires_clean_state(self):
        vmi = make_vmi()
        vmi.install_package(app_pkg(), PackageRole.PRIMARY)
        with pytest.raises(PackageStateError):
            vmi.to_base_image()
        vmi.remove_package("app")
        base = vmi.to_base_image()
        assert base.attrs == MINI_ATTRS
        assert base.package_names() == {"libc"}

    def test_semantic_graph_roles_and_edges(self):
        vmi = make_vmi()
        vmi.install_package(app_pkg("lib"), PackageRole.DEPENDENCY,
                            auto=True)
        vmi.install_package(
            app_pkg("app", deps=("lib",)), PackageRole.PRIMARY
        )
        g = vmi.semantic_graph()
        assert g.base_attrs == MINI_ATTRS
        assert {p.name for p in g.primary_packages()} == {"app"}
        assert g.n_edges() == 1  # app -> lib (libc has no installed deps)
