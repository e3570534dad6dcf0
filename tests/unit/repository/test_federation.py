"""Unit tests for the sharded repository federation (DESIGN.md §14).

Routing determinism, family colocation, the global base-image index,
cross-shard name uniqueness, journaled rebalance (including crash
recovery through the intent file), and the federation-level fsck
findings.
"""

import json

import pytest

from repro.core.system import Expelliarmus
from repro.errors import (
    NotInRepositoryError,
    ProtocolError,
    PublishError,
    WorkspaceError,
)
from repro.repository.federation import (
    INTENT_NAME,
    MANIFEST_NAME,
    FederatedRepository,
    family_of,
    route_family,
)
from repro.workloads.scale import scale_corpus

CORPUS = scale_corpus(20, n_families=4, seed="fed-unit")


def _publish_range(fed, n):
    report = fed.publish_many(
        [CORPUS.build(i) for i in range(n)], order="given"
    )
    assert report.n_failed == 0, report.failures()
    return report


def _family(vmi):
    return family_of(vmi.base.attrs)


class TestRouting:
    def test_route_family_deterministic_and_in_range(self):
        for n in (1, 2, 3, 8):
            for i in range(8):
                fam = ("linux", f"distro-{i}")
                shard = route_family(fam, n)
                assert 0 <= shard < n
                assert shard == route_family(fam, n)

    def test_route_family_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            route_family(("linux", "x"), 0)

    def test_families_never_split(self):
        fed = FederatedRepository(shards=4)
        _publish_range(fed, 20)
        by_family = {}
        for i in range(20):
            vmi = CORPUS.build(i)
            by_family.setdefault(_family(vmi), set()).add(
                fed.shard_of(vmi.name)
            )
        assert by_family
        for family, shards in by_family.items():
            assert len(shards) == 1, (family, shards)
            assert fed.base_index[family] in shards

    def test_base_index_steers_before_hash(self):
        """A base stored on any shard pulls its whole family there —
        the global-index guarantee cross-shard dedup rests on."""
        fed = FederatedRepository(shards=4)
        vmi = CORPUS.build(0)
        family = _family(vmi)
        # plant the family's first base on a shard the hash would not
        # pick, bypassing the router
        off_hash = (route_family(family, 4) + 1) % 4
        fed.systems[off_hash].publish(vmi)
        assert fed.base_index[family] == off_hash
        assert fed.shard_for_family(family) == off_hash
        sibling = next(
            CORPUS.build(i)
            for i in range(1, 20)
            if _family(CORPUS.build(i)) == family
        )
        fed.publish(sibling)
        assert fed.shard_of(sibling.name) == off_hash

    def test_duplicate_name_rejected_across_shards(self):
        fed = FederatedRepository(shards=4)
        first = CORPUS.build(0)
        fed.publish(first)
        # same name, different family -> would land on another shard
        impostor = next(
            CORPUS.build(i)
            for i in range(1, 20)
            if _family(CORPUS.build(i)) != _family(first)
        )
        impostor.name = first.name
        with pytest.raises(PublishError, match="already published"):
            fed.publish(impostor)

    def test_router_validates_stored_names(self):
        fed = FederatedRepository(shards=2)
        vmi = CORPUS.build(0)
        vmi.name = "a/b/c"
        with pytest.raises(ProtocolError, match="namespace"):
            fed.publish(vmi)
        vmi.name = ""
        with pytest.raises(ProtocolError):
            fed.publish(vmi)

    def test_unknown_name_raises_not_in_repository(self):
        fed = FederatedRepository(shards=2)
        with pytest.raises(NotInRepositoryError):
            fed.retrieve("ghost")
        with pytest.raises(NotInRepositoryError):
            fed.delete("ghost")


class TestFederatedDelete:
    def test_delete_many_seconds_are_deterministic(self):
        """Each shard reports the seconds its own thread charged, not a
        shared-clock delta that picks up the other shards' work."""
        seconds = []
        for _ in range(3):
            fed = FederatedRepository(shards=4)
            _publish_range(fed, 20)
            names = [CORPUS.spec(i).name for i in range(16)]
            assert len({fed.shard_of(name) for name in names}) > 1
            report = fed.delete_many(names, gc_threshold_bytes=0)
            assert report.n_failed == 0
            delete_s = fed.systems[0].cost.delete_record()
            assert report.simulated_seconds == pytest.approx(
                16 * delete_s
                + sum(gc.gc_seconds for gc in report.gc_reports)
            )
            seconds.append(report.simulated_seconds)
        assert len(set(seconds)) == 1


class TestRaisedBatchKeepsRouter:
    """A federated batch that raised still routes the items it had
    already applied (the router reads the shards)."""

    @staticmethod
    def _assert_router_matches_shards(fed):
        assert fed.fsck().clean, [str(f) for f in fed.fsck().findings]
        stored = sorted(
            record.name
            for system in fed.systems
            for record in system.repo.vmi_records()
        )
        assert sorted(fed.published_names()) == stored
        for name in stored:
            assert fed.retrieve(name).vmi.name == name

    def test_publish_many_raise_routes_the_stored_items(self):
        fed = FederatedRepository(shards=2)
        batch = [CORPUS.build(i) for i in range(6)] + [CORPUS.build(0)]
        with pytest.raises(PublishError):
            fed.publish_many(batch, order="given", on_error="raise")
        assert len(fed.published_names()) == 6
        self._assert_router_matches_shards(fed)

    def test_delete_many_raise_unroutes_the_deleted_items(self):
        fed = FederatedRepository(shards=2)
        _publish_range(fed, 6)
        names = [CORPUS.spec(i).name for i in range(6)]
        with pytest.raises(NotInRepositoryError):
            fed.delete_many(names[:3] + [names[0]], on_error="raise")
        assert sorted(fed.published_names()) == sorted(names[3:])
        self._assert_router_matches_shards(fed)


class TestDurability:
    def test_reopen_with_mismatched_shard_count_fails(self, tmp_path):
        fed = FederatedRepository.open(tmp_path / "fed", shards=3)
        fed.close()
        with pytest.raises(WorkspaceError, match="3 shard"):
            FederatedRepository.open(tmp_path / "fed", shards=2)

    def test_reopen_uses_persisted_count(self, tmp_path):
        fed = FederatedRepository.open(tmp_path / "fed", shards=3)
        _publish_range(fed, 8)
        before = fed.total_bytes()
        names = fed.published_names()
        fed.save()
        fed.close()
        fed2 = FederatedRepository.open(tmp_path / "fed")
        assert fed2.n_shards == 3
        assert fed2.total_bytes() == before
        assert sorted(fed2.published_names()) == sorted(names)
        assert fed2.fsck().clean
        fed2.close()

    def test_expelliarmus_open_federation(self, tmp_path):
        system = Expelliarmus.open(tmp_path / "fed", federation=2)
        assert isinstance(system, FederatedRepository)
        system.publish(CORPUS.build(0))
        system.save()
        system.close()
        again = Expelliarmus.open(tmp_path / "fed", federation=2)
        assert again.published_names() == [CORPUS.build(0).name]
        again.close()


class TestRebalance:
    def test_rebalance_moves_family_and_preserves_state(self, tmp_path):
        fed = FederatedRepository.open(tmp_path / "fed", shards=3)
        _publish_range(fed, 12)
        bytes_before = fed.total_bytes()
        refs_before = fed.refcounts()
        family = sorted(fed.base_index)[0]
        source = fed.base_index[family]
        target = (source + 1) % 3
        report = fed.rebalance(family, target)
        assert report.source == source
        assert report.target == target
        assert report.moved_vmis > 0
        assert fed.base_index[family] == target
        assert fed.total_bytes() == bytes_before
        assert fed.refcounts() == refs_before
        assert fed.fsck().clean
        # future publishes of the family follow the move
        assert fed.shard_for_family(family) == target
        fed.close()

    def test_rebalance_override_persists_across_reopen(self, tmp_path):
        fed = FederatedRepository.open(tmp_path / "fed", shards=3)
        _publish_range(fed, 6)
        family = sorted(fed.base_index)[0]
        target = (fed.base_index[family] + 1) % 3
        fed.rebalance(family, target)
        fed.save()
        fed.close()
        fed2 = FederatedRepository.open(tmp_path / "fed")
        assert fed2.base_index[family] == target
        assert fed2._overrides[family] == target
        assert fed2.fsck().clean
        fed2.close()

    def test_rebalance_rejects_out_of_range_target(self):
        fed = FederatedRepository(shards=2)
        with pytest.raises(ValueError, match="out of range"):
            fed.rebalance(("linux", "ubuntu"), 2)

    def test_crash_mid_rebalance_recovers_on_reopen(self, tmp_path):
        """A half-applied move (records copied, source not yet
        cleaned) plus a leftover intent file converges on reopen."""
        fed = FederatedRepository.open(tmp_path / "fed", shards=3)
        _publish_range(fed, 12)
        bytes_before = fed.total_bytes()
        names_before = sorted(fed.published_names())
        family = sorted(fed.base_index)[0]
        source = fed.base_index[family]
        target = (source + 1) % 3
        # simulate the crash: copy one record's objects to the target
        # (what a partial _move_family leaves), keep the source as-is,
        # and leave the intent journal behind
        src_repo = fed.systems[source].repo
        dst_repo = fed.systems[target].repo
        base = next(
            b
            for b in src_repo.base_images()
            if family_of(b.attrs) == family
        )
        record = src_repo.vmi_records_for_base(base.blob_key())[0]
        dst_repo.store_base_image(base)
        contribution = src_repo.vmi_contribution(record.name)
        for key in contribution:
            dst_repo.store_package(src_repo.get_package(key))
        if record.data_label is not None:
            dst_repo.store_user_data(
                src_repo.get_user_data(record.data_label)
            )
        dst_repo.record_vmi(record, contribution)
        (tmp_path / "fed" / INTENT_NAME).write_text(
            json.dumps(
                {"family": "/".join(family), "target": target}
            )
        )
        # the half-applied state is visibly inconsistent
        assert not fed.fsck().clean
        fed.save()
        fed.close()

        recovered = FederatedRepository.open(tmp_path / "fed")
        assert not (tmp_path / "fed" / INTENT_NAME).exists()
        assert recovered.base_index[family] == target
        assert recovered.fsck().clean, [
            str(f) for f in recovered.fsck().findings
        ]
        assert sorted(recovered.published_names()) == names_before
        assert recovered.total_bytes() == bytes_before
        recovered.close()


class TestFederationFsck:
    def test_split_family_flagged(self):
        fed = FederatedRepository(shards=2)
        vmi_a = CORPUS.build(0)
        family = _family(vmi_a)
        vmi_b = next(
            CORPUS.build(i)
            for i in range(1, 20)
            if _family(CORPUS.build(i)) == family
        )
        fed.systems[0].publish(vmi_a)
        fed.systems[1].publish(vmi_b)
        report = fed.fsck()
        assert not report.clean
        kinds = {f.kind for f in report.findings}
        assert "federation-split-family" in kinds

    def test_name_collision_flagged(self):
        fed = FederatedRepository(shards=2)
        vmi_a = CORPUS.build(0)
        vmi_b = CORPUS.build(1)
        vmi_b.name = vmi_a.name
        fed.systems[0].publish(vmi_a)
        fed.systems[1].publish(vmi_b)
        kinds = {f.kind for f in fed.fsck().findings}
        assert "federation-name-collision" in kinds

    def test_shard_findings_are_prefixed(self):
        fed = FederatedRepository(shards=2)
        fed.publish(CORPUS.build(0))
        shard = fed.shard_of(CORPUS.build(0).name)
        repo = fed.systems[shard].repo
        # skew a live refcount to trip the shard-local check
        key = next(iter(repo._pkg_refs))
        repo._pkg_refs[key] += 2
        report = fed.fsck()
        assert not report.clean
        assert any(
            f.subject.startswith(f"shard-{shard:02d}:")
            for f in report.findings
        )


class TestManifest:
    def test_manifest_written_on_open(self, tmp_path):
        fed = FederatedRepository.open(tmp_path / "fed", shards=2)
        fed.close()
        data = json.loads(
            (tmp_path / "fed" / MANIFEST_NAME).read_text()
        )
        assert data["shards"] == 2
        assert data["version"] == 1

    def test_unreadable_manifest_raises(self, tmp_path):
        root = tmp_path / "fed"
        root.mkdir()
        (root / MANIFEST_NAME).write_text("{\"shards\": \"soon\"}")
        with pytest.raises(WorkspaceError, match="unreadable"):
            FederatedRepository.open(root)
