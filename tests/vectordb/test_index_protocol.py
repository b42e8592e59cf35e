"""Tests for the pluggable retrieval layer: protocol, parity and persistence.

The contract under test: the flat and sharded index implementations return
*identical* neighbour lists for every query — sharding and bound-based
pruning are invisible to callers.  Alongside the parity property tests sit
the persistence round-trip regressions (dtype, capacity re-growth, cached
squared-norm extension, in-place re-save, reading the earlier v3 arena
layout), and the loud-KeyError contract of ``update_category`` on both
backends.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.vectordb import (
    FlatVectorIndex,
    ShardedVectorIndex,
    SimilarityConfig,
    VectorIndex,
    VectorStore,
    build_index,
    load_index,
    time_bucket,
)


def populated(index, count=400, dim=8, seed=9, categories=23, duration=120.0):
    rng = np.random.default_rng(seed)
    index.add_many(
        incident_ids=[f"i{i}" for i in range(count)],
        vectors=rng.standard_normal((count, dim)),
        created_days=rng.uniform(0.0, duration, size=count),
        categories=[f"cat{i % categories}" for i in range(count)],
        texts=[f"text {i}" for i in range(count)],
    )
    return index


def both_indexes(similarity, window_days=15.0, **kwargs):
    flat = populated(FlatVectorIndex(similarity), **kwargs)
    sharded = populated(ShardedVectorIndex(similarity, window_days=window_days), **kwargs)
    return flat, sharded


def assert_same_results(flat_results, sharded_results):
    assert len(flat_results) == len(sharded_results)
    for flat_neighbors, sharded_neighbors in zip(flat_results, sharded_results):
        assert [n.incident_id for n in flat_neighbors] == [
            n.incident_id for n in sharded_neighbors
        ]
        assert [n.similarity for n in sharded_neighbors] == pytest.approx(
            [n.similarity for n in flat_neighbors]
        )


class TestFlatShardedParity:
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.9])
    @pytest.mark.parametrize("diverse", [True, False])
    def test_plain_search_parity(self, alpha, diverse):
        similarity = SimilarityConfig(alpha=alpha, k=5, diverse_categories=diverse)
        flat, sharded = both_indexes(similarity)
        rng = np.random.default_rng(31)
        queries = rng.standard_normal((10, 8))
        days = rng.uniform(0.0, 150.0, size=10)
        assert_same_results(
            flat.search_many(queries, days), sharded.search_many(queries, days)
        )

    def test_filtered_search_parity(self):
        similarity = SimilarityConfig(alpha=0.3, k=4)
        flat, sharded = both_indexes(similarity)
        rng = np.random.default_rng(5)
        queries = rng.standard_normal((6, 8))
        days = rng.uniform(60.0, 130.0, size=6)
        excludes = [{f"i{row}", f"i{row + 17}"} for row in range(6)]
        for kwargs in (
            dict(exclude_ids=excludes),
            dict(history_before_day=90.0),
            dict(categories={f"cat{i}" for i in range(7)}),
            dict(
                exclude_ids=excludes,
                history_before_day=100.0,
                categories={f"cat{i}" for i in range(12)},
                k=7,
            ),
        ):
            assert_same_results(
                flat.search_many(queries, days, **kwargs),
                sharded.search_many(queries, days, **kwargs),
            )

    def test_scalar_search_matches_batch(self):
        similarity = SimilarityConfig(alpha=0.3, k=5)
        _, sharded = both_indexes(similarity)
        rng = np.random.default_rng(77)
        query = rng.standard_normal(8)
        single = sharded.search(query, query_day=110.0)
        batch = sharded.search_many(query.reshape(1, -1), [110.0])[0]
        assert [n.incident_id for n in single] == [n.incident_id for n in batch]

    @given(
        entries=st.lists(
            st.tuples(
                st.lists(
                    st.floats(-5, 5, allow_nan=False, width=32), min_size=3, max_size=3
                ),
                st.floats(0, 100, allow_nan=False),
                st.sampled_from(["A", "B", "C", "D"]),
            ),
            min_size=1,
            max_size=40,
        ),
        query=st.lists(
            st.floats(-5, 5, allow_nan=False, width=32), min_size=3, max_size=3
        ),
        query_day=st.floats(0, 120, allow_nan=False),
        alpha=st.sampled_from([0.0, 0.3, 1.0]),
        k=st.integers(1, 6),
        diverse=st.booleans(),
        window=st.sampled_from([3.0, 10.0, 40.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_parity_property(self, entries, query, query_day, alpha, k, diverse, window):
        """Random stores, windows and configs: identical neighbour lists."""
        similarity = SimilarityConfig(alpha=alpha, k=k, diverse_categories=diverse)
        flat = FlatVectorIndex(similarity)
        sharded = ShardedVectorIndex(similarity, window_days=window)
        for index, (vector, day, category) in enumerate(entries):
            for target in (flat, sharded):
                target.add(f"i{index}", np.array(vector), day, category)
        assert_same_results(
            [flat.search(np.array(query), query_day)],
            [sharded.search(np.array(query), query_day)],
        )

    def test_empty_category_filter_means_no_filter_on_both_backends(self):
        similarity = SimilarityConfig(alpha=0.3, k=4)
        flat, sharded = both_indexes(similarity, count=60)
        rng = np.random.default_rng(17)
        queries = rng.standard_normal((3, 8))
        days = rng.uniform(0.0, 120.0, size=3)
        flat_results = flat.search_many(queries, days, categories=set())
        sharded_results = sharded.search_many(queries, days, categories=set())
        assert all(len(neighbors) == 4 for neighbors in flat_results)
        assert_same_results(flat_results, sharded_results)

    def test_duplicate_queries_deduplicated_in_batch(self):
        """Recurring identical queries are scanned once and share results."""
        similarity = SimilarityConfig(alpha=0.3, k=5)
        _, sharded = both_indexes(similarity)
        rng = np.random.default_rng(41)
        query = rng.standard_normal(8)
        stacked = np.vstack([query] * 6)
        before = sharded.stats()["shards_scanned"]
        results = sharded.search_many(stacked, [100.0] * 6)
        scanned = sharded.stats()["shards_scanned"] - before
        single = sharded.search(query, 100.0)
        for neighbors in results:
            assert [n.incident_id for n in neighbors] == [
                n.incident_id for n in single
            ]
        # 6 identical queries must not scan 6x the shards of one query.
        assert scanned <= 2 * sharded.stats()["shard_count"]
        # Result lists must still be independent objects.
        results[0].pop()
        assert len(results[1]) == 5

    def test_parity_survives_category_updates(self):
        similarity = SimilarityConfig(alpha=0.3, k=5)
        flat, sharded = both_indexes(similarity)
        for incident_id in ("i3", "i77", "i201"):
            flat.update_category(incident_id, "Corrected")
            sharded.update_category(incident_id, "Corrected")
        rng = np.random.default_rng(13)
        queries = rng.standard_normal((5, 8))
        days = rng.uniform(100.0, 140.0, size=5)
        assert_same_results(
            flat.search_many(queries, days), sharded.search_many(queries, days)
        )


class TestShardLayoutAndPruning:
    def test_entries_land_in_time_window_shards(self):
        similarity = SimilarityConfig()
        sharded = populated(ShardedVectorIndex(similarity, window_days=15.0))
        sizes = sharded.shard_sizes()
        assert sum(sizes.values()) == len(sharded) == 400
        for key in sizes:
            assert 0 <= key <= time_bucket(120.0, 15.0)
        entry = sharded.get("i0")
        assert time_bucket(entry.created_day, 15.0) in sizes

    def test_temporal_pruning_scans_minority_of_shards(self):
        similarity = SimilarityConfig(alpha=0.3, k=5)
        sharded = populated(
            ShardedVectorIndex(similarity, window_days=10.0),
            count=3000,
            duration=300.0,
        )
        rng = np.random.default_rng(3)
        queries = rng.standard_normal((8, 8))
        sharded.search_many(queries, rng.uniform(280.0, 300.0, size=8))
        stats = sharded.stats()
        assert stats["shard_count"] >= 25
        assert stats["scanned_shard_ratio"] < 0.5
        assert stats["shards_pruned"] > 0

    def test_alpha_zero_never_prunes(self):
        similarity = SimilarityConfig(alpha=0.0, k=5)
        sharded = populated(ShardedVectorIndex(similarity, window_days=10.0))
        rng = np.random.default_rng(3)
        sharded.search_many(rng.standard_normal((4, 8)), [0.0, 40.0, 80.0, 120.0])
        stats = sharded.stats()
        assert stats["shards_pruned"] == 0.0
        assert stats["scanned_shard_ratio"] == pytest.approx(1.0)

    def test_stats_shape_is_shared_across_backends(self):
        flat, sharded = both_indexes(SimilarityConfig())
        rng = np.random.default_rng(1)
        for index in (flat, sharded):
            index.search_many(rng.standard_normal((3, 8)), [10.0, 50.0, 90.0])
            stats = index.stats()
            assert stats["entries"] == 400.0
            assert stats["queries"] == 3.0
            assert 0.0 < stats["scanned_shard_ratio"] <= 1.0
        assert flat.stats()["shard_count"] == 1.0
        assert sharded.stats()["shard_count"] > 1.0


class TestUpdateCategoryContract:
    """Satellite: unknown ids must fail loudly, naming the id, on both backends."""

    @pytest.mark.parametrize("backend", ["flat", "sharded"])
    def test_unknown_id_raises_keyerror_with_id(self, backend):
        index = populated(build_index(backend, SimilarityConfig()), count=20)
        with pytest.raises(KeyError, match="INC-MISSING-42"):
            index.update_category("INC-MISSING-42", "NewLabel")

    @pytest.mark.parametrize("backend", ["flat", "sharded"])
    def test_known_id_updates_in_place(self, backend):
        index = populated(build_index(backend, SimilarityConfig()), count=20)
        index.update_category("i7", "Corrected")
        assert index.get("i7").category == "Corrected"
        assert "Corrected" in index.categories()

    def test_vector_store_unknown_id_raises_keyerror_with_id(self):
        store = VectorStore()
        store.add("present", np.ones(3), 1.0, "A")
        with pytest.raises(KeyError, match="absent"):
            store.update_category("absent", "B")


class TestPersistence:
    """Satellite: save/load round trips guard the shard persistence work."""

    def test_store_roundtrip_dtype_and_capacity_regrowth(self, tmp_path):
        store = VectorStore()
        rng = np.random.default_rng(8)
        vectors = rng.standard_normal((70, 6)).astype(np.float32)  # narrower input
        store.add_many(
            incident_ids=[f"i{i}" for i in range(70)],
            vectors=vectors,
            created_days=[float(i) for i in range(70)],
            categories=[f"cat{i % 5}" for i in range(70)],
        )
        path = str(tmp_path / "flat.npz")
        store.save(path)
        loaded = VectorStore.load(path)
        # dtype: the store always widens to float64, including through disk.
        assert loaded.matrix().dtype == np.float64
        assert loaded.created_days().dtype == np.float64
        # capacity re-growth: keep inserting far beyond the loaded size.
        more = rng.standard_normal((200, 6))
        loaded.add_many(
            incident_ids=[f"j{i}" for i in range(200)],
            vectors=more,
            created_days=[float(i) for i in range(200)],
            categories=["late"] * 200,
        )
        assert len(loaded) == 270
        np.testing.assert_allclose(loaded.matrix()[70:], more)

    def test_store_roundtrip_squared_norm_cache_extension(self, tmp_path):
        store = VectorStore()
        store.add_many(
            incident_ids=["a", "b"],
            vectors=np.array([[3.0, 4.0], [1.0, 0.0]]),
            created_days=[1.0, 2.0],
            categories=["A", "B"],
        )
        path = str(tmp_path / "norms.npz")
        store.save(path)
        loaded = VectorStore.load(path)
        np.testing.assert_allclose(loaded.squared_norms(), [25.0, 1.0])
        # The cache must extend (not go stale) when rows are added after a
        # load-then-score sequence.
        loaded.add("c", np.array([2.0, 2.0]), 3.0, "C")
        np.testing.assert_allclose(loaded.squared_norms(), [25.0, 1.0, 8.0])

    def test_sharded_v3_arena_roundtrip(self, tmp_path):
        """The default save is the v3 single-arena layout and round-trips."""
        similarity = SimilarityConfig(alpha=0.3, k=4)
        sharded = populated(ShardedVectorIndex(similarity, window_days=20.0))
        sharded.update_category("i11", "Rewritten")
        target = str(tmp_path / "arena-index")
        sharded.save(target)
        files = sorted(os.listdir(target))
        assert files == ["arena.bin", "manifest.json"]
        loaded = ShardedVectorIndex.load(target, similarity=similarity)
        assert len(loaded) == len(sharded)
        assert loaded.get("i11").category == "Rewritten"
        assert loaded.shard_sizes() == sharded.shard_sizes()
        rng = np.random.default_rng(21)
        queries = rng.standard_normal((5, 8))
        days = rng.uniform(0.0, 140.0, size=5)
        assert_same_results(
            sharded.search_many(queries, days), loaded.search_many(queries, days)
        )
        # The mmap'd matrices are copy-on-grow: post-load inserts still work.
        loaded.add("fresh", rng.standard_normal(8), 130.0, "Fresh")
        assert "fresh" in loaded
        assert_same_results(
            sharded.search_many(queries, days, exclude_ids=[{"fresh"}] * 5),
            loaded.search_many(queries, days, exclude_ids=[{"fresh"}] * 5),
        )
        loaded.close()

    def test_in_place_save_of_a_loaded_index(self, tmp_path):
        """Saving a loaded index back to its own directory loses nothing.

        A loaded index's shard matrices are views into the mapped
        ``arena.bin``; the save must not truncate that file under them.
        Vectors stay bitwise equal — in memory and after reload — and
        neighbours identical, also after a post-load insert.
        """
        similarity = SimilarityConfig(alpha=0.3, k=4)
        original = populated(ShardedVectorIndex(similarity, window_days=20.0))
        ids = [f"i{i}" for i in range(len(original))]
        target = str(tmp_path / "index")
        original.save(target)
        rng = np.random.default_rng(12)
        queries = rng.standard_normal((6, 8))
        days = rng.uniform(0.0, 140.0, size=6)

        def assert_identical(index, expected_ids):
            for incident_id in expected_ids:
                np.testing.assert_array_equal(
                    index.get(incident_id).vector, original.get(incident_id).vector
                )
            expected = original.search_many(queries, days)
            actual = index.search_many(queries, days)
            assert [[(n.incident_id, n.similarity) for n in row] for row in actual] == [
                [(n.incident_id, n.similarity) for n in row] for row in expected
            ]

        loaded = ShardedVectorIndex.load(target, similarity=similarity)
        loaded.save(target)
        assert_identical(loaded, ids)
        reloaded = ShardedVectorIndex.load(target, similarity=similarity)
        assert_identical(reloaded, ids)

        fresh = rng.standard_normal(8)
        for index in (original, reloaded):
            index.add("fresh", fresh, 130.0, "Fresh")
        reloaded.save(target)
        assert_identical(reloaded, ids + ["fresh"])
        assert_identical(
            ShardedVectorIndex.load(target, similarity=similarity), ids + ["fresh"]
        )
        assert sorted(os.listdir(target)) == ["arena.bin", "manifest.json"]

    def test_reads_v3_arena_with_int8_fields(self):
        """A v3 index whose arena also carries the retired int8 fields
        (``q8``/``qscale``/``ql1``) still loads: the loader finds each field
        by its offset in the manifest and ignores the rest."""
        similarity = SimilarityConfig(alpha=0.3, k=4)
        fixture = os.path.join(os.path.dirname(__file__), "data", "int8-layout-v3")
        loaded = ShardedVectorIndex.load(fixture, similarity=similarity)
        expected = populated(
            ShardedVectorIndex(similarity, window_days=20.0),
            count=24, dim=4, categories=5, duration=60.0,
        )
        assert loaded.shard_sizes() == expected.shard_sizes()
        for incident_id in (f"i{i}" for i in range(24)):
            np.testing.assert_array_equal(
                loaded.get(incident_id).vector, expected.get(incident_id).vector
            )
        rng = np.random.default_rng(3)
        queries = rng.standard_normal((4, 4))
        days = rng.uniform(0.0, 70.0, size=4)
        assert_same_results(
            expected.search_many(queries, days), loaded.search_many(queries, days)
        )

    def test_store_and_index_accept_pathlib_paths(self, tmp_path):
        """Satellite: every save/load entry point takes ``pathlib.Path``."""
        store = VectorStore()
        rng = np.random.default_rng(15)
        store.add_many(
            incident_ids=[f"i{i}" for i in range(12)],
            vectors=rng.standard_normal((12, 4)),
            created_days=[float(i) for i in range(12)],
            categories=[f"cat{i % 3}" for i in range(12)],
        )
        store_path = tmp_path / "store.npz"  # a Path, not a str
        store.save(store_path)
        loaded_store = VectorStore.load(store_path)
        assert len(loaded_store) == 12
        np.testing.assert_array_equal(loaded_store.matrix(), store.matrix())
        # ...and without the .npz suffix (the legacy str path appended it).
        assert len(VectorStore.load(tmp_path / "store")) == 12

        similarity = SimilarityConfig(alpha=0.3, k=3)
        sharded = populated(ShardedVectorIndex(similarity, window_days=20.0), count=50)
        index_path = tmp_path / "path-index"
        sharded.save(index_path)
        reloaded = load_index(index_path, similarity=similarity)
        assert isinstance(reloaded, ShardedVectorIndex)
        assert len(reloaded) == 50
        query = rng.standard_normal(8)
        assert_same_results(
            [sharded.search(query, 60.0)], [reloaded.search(query, 60.0)]
        )
        reloaded.close()

    def test_load_index_dispatches_on_layout(self, tmp_path):
        similarity = SimilarityConfig(alpha=0.3, k=3)
        flat, sharded = both_indexes(similarity, count=30)
        flat_path = str(tmp_path / "flat.npz")
        sharded_path = str(tmp_path / "sharded")
        flat.save(flat_path)
        sharded.save(sharded_path)
        reloaded_flat = load_index(flat_path, similarity=similarity)
        reloaded_sharded = load_index(sharded_path, similarity=similarity)
        assert isinstance(reloaded_flat, FlatVectorIndex)
        assert isinstance(reloaded_sharded, ShardedVectorIndex)
        assert isinstance(reloaded_flat, VectorIndex)
        assert isinstance(reloaded_sharded, VectorIndex)
        rng = np.random.default_rng(2)
        query = rng.standard_normal(8)
        assert_same_results(
            [reloaded_flat.search(query, 50.0)], [reloaded_sharded.search(query, 50.0)]
        )


class TestBuildIndex:
    def test_build_index_backends(self):
        assert isinstance(build_index("flat"), FlatVectorIndex)
        assert isinstance(build_index("sharded", window_days=5.0), ShardedVectorIndex)
        with pytest.raises(ValueError):
            build_index("annoy")

    def test_sharded_rejects_bad_window(self):
        with pytest.raises(ValueError):
            ShardedVectorIndex(window_days=0.0)
        with pytest.raises(ValueError):
            time_bucket(10.0, -1.0)

    def test_empty_and_duplicate_handling(self):
        sharded = ShardedVectorIndex()
        assert len(sharded) == 0
        assert sharded.search_many(np.ones((2, 4)), [1.0, 2.0]) == [[], []]
        sharded.add("a", np.ones(4), 1.0, "A")
        with pytest.raises(ValueError):
            sharded.add("a", np.ones(4), 2.0, "B")
        with pytest.raises(ValueError):
            sharded.add_many(
                ["b", "b"], np.ones((2, 4)), [1.0, 2.0], ["X", "Y"]
            )
        with pytest.raises(ValueError):
            sharded.add("c", np.ones(3), 1.0, "C")  # dimension mismatch
        assert len(sharded) == 1  # failed inserts leave the index untouched

    def test_guarantee_min_k_eligible(self):
        # 6 entries across far-apart windows, k larger than any single shard:
        # the result must still be filled to min(k, eligible).
        similarity = SimilarityConfig(alpha=0.5, k=5, diverse_categories=True)
        sharded = ShardedVectorIndex(similarity, window_days=5.0)
        for index in range(6):
            sharded.add(f"i{index}", np.eye(6)[index], index * 30.0, f"cat{index % 2}")
        neighbors = sharded.search(np.ones(6), query_day=150.0)
        assert len(neighbors) == 5
