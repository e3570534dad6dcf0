"""Unit tests for the block-level dedup baselines (Section II)."""

import pytest

from repro.baselines.block_dedup import (
    FixedBlockStore,
    VariableBlockStore,
    chunk_counts,
)
from repro.image.builder import BuildRecipe
from repro.image.manifest import FileManifest
from repro.units import kb


def build(mini_builder, name, build_id=0):
    return mini_builder.build(
        BuildRecipe(
            name=name,
            primaries=("redis-server",),
            build_id=build_id,
            user_data_size=500_000,
            user_data_files=5,
            instance_noise_size=1_000_000,
            instance_noise_files=10,
        )
    )


class TestChunking:
    def test_fixed_chunk_count_tracks_bytes(self):
        m = FileManifest.synthesize("f", 100, 1_000_000)
        chunks_4k = chunk_counts(m, kb(4))
        chunks_64k = chunk_counts(m, kb(64))
        assert chunks_4k > chunks_64k
        # at least ceil(total/chunk) chunks, at most that plus one
        # partial chunk per file
        assert chunks_4k >= 1_000_000 // kb(4)
        assert chunks_4k <= 1_000_000 // kb(4) + 100

    def test_variable_fewer_chunks_than_fixed(self):
        """CDC's [t/2, 2t] spread averages ~1.25t per chunk."""
        m = FileManifest.synthesize("f", 50, 2_000_000)
        fixed = chunk_counts(m, kb(8))
        variable = chunk_counts(m, kb(8), variable=True)
        assert variable < fixed

    def test_deterministic(self):
        m = FileManifest.synthesize("f", 20, 100_000)
        assert chunk_counts(m, kb(4)) == chunk_counts(m, kb(4))
        assert chunk_counts(m, kb(4), variable=True) == chunk_counts(
            m, kb(4), variable=True
        )

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            FixedBlockStore(chunk_size=0)


@pytest.mark.parametrize("cls", [FixedBlockStore, VariableBlockStore])
class TestDedupBehaviour:
    def test_identical_files_dedup_fully(self, cls, mini_builder):
        store = cls(chunk_size=kb(8))
        first = store.publish(build(mini_builder, "a", build_id=1))
        second = store.publish(build(mini_builder, "b", build_id=2))
        # only the per-build noise/user content is new
        assert second.bytes_added < first.bytes_added * 0.1

    def test_chunk_store_bounded_by_payload(self, cls, mini_builder):
        store = cls(chunk_size=kb(8))
        vmi = build(mini_builder, "a")
        mounted = vmi.mounted_size
        store.publish(vmi)
        # CDC/fixed chunking cannot inflate storage beyond the payload
        # (plus at most one chunk of slack per file)
        assert store.repository_bytes <= mounted + kb(16) * 1000

    def test_retrieval_cheaper_than_mirage(self, cls, mini_builder):
        from repro.baselines.mirage import MirageStore

        block = cls(chunk_size=kb(8))
        mirage = MirageStore()
        block.publish(build(mini_builder, "a"))
        mirage.publish(build(mini_builder, "a"))
        # block stores read linearly with cheap index lookups; Mirage
        # pays per-file open penalties
        assert (
            block.retrieve("a").duration
            < mirage.retrieve("a").duration
        )


class TestRelatedWorkExperiment:
    def test_progression(self, related_work_result):
        sizes = {
            s.label: s.final() for s in related_work_result.series
        }
        # compression < block dedup < semantic decomposition
        assert sizes["Expelliarmus"] < sizes["Block (fixed)"]
        assert sizes["Block (fixed)"] < sizes["Qcow2 + Gzip"]
        assert sizes["Qcow2 + Gzip"] < sizes["Qcow2"]
        # block and file dedup land in the same regime
        assert sizes["Block (fixed)"] == pytest.approx(
            sizes["Mirage"], rel=0.1
        )
