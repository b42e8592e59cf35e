"""The arena file under the sharded index, and the shared-memory blob.

Unit coverage for the layout planner, the arena file's build/attach/views
lifecycle, and :class:`SharedBlob` — the collection pool's pickled
telemetry-hub snapshot in one POSIX shared-memory segment.
"""

from __future__ import annotations

import os
import pickle
import sys

import numpy as np
import pytest

from repro.vectordb.shardmem import (
    ALIGNMENT,
    ArenaSpec,
    BlobSpec,
    ShardArena,
    SharedBlob,
    plan_layout,
)

LINUX_ONLY = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="/dev/shm is Linux-specific"
)


def shm_entries():
    """Names of repro-owned segments currently in /dev/shm."""
    try:
        return sorted(
            name for name in os.listdir("/dev/shm") if name.startswith("repro-")
        )
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return []


def sample_payloads(rng, shapes):
    payloads = []
    for key, rows, dim in shapes:
        matrix = rng.standard_normal((rows, dim))
        payloads.append(
            (
                key,
                {
                    "matrix": matrix,
                    "days": rng.uniform(0.0, 100.0, size=rows),
                    "sq_norms": np.einsum("ij,ij->i", matrix, matrix),
                    "seqs": np.arange(rows, dtype=np.int64),
                    "codes": rng.integers(0, 5, size=rows).astype(np.int64),
                },
            )
        )
    return payloads


class TestLayout:
    def test_every_field_is_aligned(self):
        blocks, size = plan_layout([(0, 7, 13), (3, 1, 13), (9, 100, 13)])
        assert size % ALIGNMENT == 0
        for block in blocks:
            for _, offset in block.offsets:
                assert offset % ALIGNMENT == 0
        # Blocks are laid out in input order without overlap.
        flat = [offset for block in blocks for _, offset in block.offsets]
        assert flat == sorted(flat)

    def test_empty_layout_is_never_zero_sized(self):
        blocks, size = plan_layout([])
        assert blocks == ()
        assert size >= ALIGNMENT

    def test_spec_lookup_and_pickling(self):
        blocks, size = plan_layout([(4, 3, 2)])
        spec = ArenaSpec(path="x", size=size, blocks=blocks)
        assert spec.block(4).rows == 3
        with pytest.raises(KeyError):
            spec.block(5)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        with pytest.raises(KeyError):
            blocks[0].offset("nonexistent")


class TestArenaLifecycle:
    def test_build_attach_views_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        shapes = [(0, 6, 8), (2, 1, 8), (7, 40, 8)]
        payloads = sample_payloads(rng, shapes)
        path = str(tmp_path / "arena.bin")
        arena = ShardArena.build(payloads, path)

        def check(reader):
            # Scoped so every numpy view dies before the reader closes —
            # live views would pin the mapping.
            for key, arrays in payloads:
                views = reader.views(key)
                for name, expected in arrays.items():
                    np.testing.assert_array_equal(views[name], expected)
                    assert not views[name].flags.writeable

        try:
            assert os.path.getsize(path) == arena.spec.size
            reader = ShardArena.attach(arena.spec)
            try:
                check(reader)
            finally:
                reader.close()
        finally:
            arena.close()
        # Closing the handle never deletes the persisted artifact.
        assert os.path.exists(path)

    def test_views_after_close_raise(self, tmp_path):
        rng = np.random.default_rng(6)
        arena = ShardArena.build(
            sample_payloads(rng, [(0, 2, 3)]), str(tmp_path / "arena.bin")
        )
        arena.close()
        arena.close()  # idempotent
        with pytest.raises(ValueError):
            arena.views(0)


class TestSharedBlob:
    @LINUX_ONLY
    def test_roundtrip_and_destroy(self):
        before = shm_entries()
        payload = {"config": [1, 2, 3], "name": "hub"}
        blob = SharedBlob.create(payload)
        assert SharedBlob.read(blob.spec) == payload
        blob.destroy()
        blob.destroy()  # idempotent
        assert shm_entries() == before
        with pytest.raises(FileNotFoundError):
            SharedBlob.read(BlobSpec(name=blob.spec.name, length=blob.spec.length))
