"""int8 quantize-then-exact-rerank: the prefilter must be invisible.

The contract of ``quantized_prefilter=True``: the int8 screen only
*skips* rows whose conservative upper bound proves they cannot enter the
candidate pool, and every surviving row is re-scored with the exact
float64 formula.  Selected neighbours — ids and ranking — and every scan
counter are identical to the pure-float path.  Scores agree to BLAS
shape-dependent rounding in general, and to the last bit whenever the
dot products are exactly representable (integer-valued vectors at any
power-of-two scale), which is what the hypothesis property pins down.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.vectordb import FlatVectorIndex, ShardedVectorIndex, SimilarityConfig


def pair(similarity, window_days=15.0, **kwargs):
    """(plain sequential, prefiltered sequential) sharded indexes."""
    plain = ShardedVectorIndex(
        similarity, window_days=window_days, max_workers=1, **kwargs
    )
    filtered = ShardedVectorIndex(
        similarity,
        window_days=window_days,
        max_workers=1,
        quantized_prefilter=True,
        **kwargs,
    )
    return plain, filtered


def assert_bitwise_results(reference, candidates):
    assert len(reference) == len(candidates)
    for ref_neighbors, cand_neighbors in zip(reference, candidates):
        assert [(n.incident_id, n.similarity) for n in ref_neighbors] == [
            (n.incident_id, n.similarity) for n in cand_neighbors
        ]


def assert_same_selection(reference, candidates, rel=1e-9):
    """Same ids in the same order; scores within the documented slack."""
    assert len(reference) == len(candidates)
    for ref_neighbors, cand_neighbors in zip(reference, candidates):
        assert [n.incident_id for n in ref_neighbors] == [
            n.incident_id for n in cand_neighbors
        ]
        assert [n.similarity for n in cand_neighbors] == pytest.approx(
            [n.similarity for n in ref_neighbors], rel=rel
        )


STAT_KEYS = (
    "queries",
    "shards_considered",
    "shards_scanned",
    "shards_pruned",
    "shards_skipped",
    "entries_scanned",
)


def assert_same_stats(plain, filtered):
    plain_stats, filtered_stats = plain.stats(), filtered.stats()
    for name in STAT_KEYS:
        assert plain_stats[name] == filtered_stats[name], name


class TestQuantizedExactness:
    @given(
        entries=st.lists(
            st.tuples(
                # Integer coordinates at a power-of-two scale: every dot
                # product, squared norm and distance argument is exactly
                # representable, so the rerank must reproduce the pure
                # float path to the last bit — including through the
                # subset rerank the prefilter uses for survivors.
                st.lists(st.integers(-8, 8), min_size=3, max_size=3),
                st.integers(0, 30).map(float),
                st.sampled_from(["A", "B", "C"]),
            ),
            min_size=1,
            max_size=40,
        ),
        query=st.lists(st.integers(-8, 8), min_size=3, max_size=3),
        query_day=st.integers(0, 40).map(float),
        scale_exp=st.sampled_from([-30, 0, 30]),
        alpha=st.sampled_from([0.0, 0.3, 1.0]),
        k=st.integers(1, 6),
        diverse=st.booleans(),
        window=st.sampled_from([3.0, 10.0, 50.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_integer_grid_bitwise_parity(
        self, entries, query, query_day, scale_exp, alpha, k, diverse, window
    ):
        scale = 2.0 ** scale_exp
        similarity = SimilarityConfig(alpha=alpha, k=k, diverse_categories=diverse)
        plain, filtered = pair(similarity, window_days=window)
        flat = FlatVectorIndex(similarity)
        for index, (vector, day, category) in enumerate(entries):
            row = np.array(vector, dtype=np.float64) * scale
            for target in (flat, plain, filtered):
                target.add(f"i{index}", row, day, category)
        scaled_query = np.array(query, dtype=np.float64) * scale
        reference = [plain.search(scaled_query, query_day)]
        assert_bitwise_results(reference, [filtered.search(scaled_query, query_day)])
        assert_same_selection(reference, [flat.search(scaled_query, query_day)])
        assert_same_stats(plain, filtered)

    def test_large_single_window_engages_prefilter(self):
        """A 300-row shard with k=3 guarantees the int8 screen actually runs."""
        similarity = SimilarityConfig(alpha=0.3, k=3)
        plain, filtered = pair(similarity, window_days=50.0)
        rng = np.random.default_rng(29)
        vectors = rng.integers(-50, 51, size=(300, 8)).astype(np.float64)
        days = rng.integers(0, 50, size=300).astype(np.float64)
        categories = [f"cat{i % 6}" for i in range(300)]
        ids = [f"i{i}" for i in range(300)]
        for target in (plain, filtered):
            target.add_many(ids, vectors, days, categories)
        queries = rng.integers(-50, 51, size=(8, 8)).astype(np.float64)
        query_days = rng.integers(0, 60, size=8).astype(np.float64)
        assert_bitwise_results(
            plain.search_many(queries, query_days),
            filtered.search_many(queries, query_days),
        )
        assert_same_stats(plain, filtered)

    def test_ties_at_pool_floor(self):
        """Many rows tied exactly at the k-th score: none may be skipped."""
        similarity = SimilarityConfig(alpha=0.0, k=4)
        plain, filtered = pair(similarity, window_days=50.0)
        # 40 duplicates of three distinct vectors: huge tie classes, so the
        # pool floor equals the score of dozens of rows at once.
        base = np.array(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]] * 14
        )[:40]
        days = np.arange(40, dtype=np.float64) % 30
        categories = ["A", "B"] * 20
        ids = [f"i{i}" for i in range(40)]
        for target in (plain, filtered):
            target.add_many(ids, base, days, categories)
        query = np.array([1.0, 1.0, 0.0])
        for query_day in (0.0, 15.0, 45.0):
            assert_bitwise_results(
                [plain.search(query, query_day)],
                [filtered.search(query, query_day)],
            )
        assert_same_stats(plain, filtered)

    def test_single_row_shards(self):
        similarity = SimilarityConfig(alpha=0.5, k=5, diverse_categories=True)
        plain, filtered = pair(similarity, window_days=5.0)
        for index in range(6):
            vector = np.eye(6)[index] * 4.0
            for target in (plain, filtered):
                target.add(f"i{index}", vector, index * 30.0, f"cat{index % 2}")
        assert_bitwise_results(
            [plain.search(np.ones(6), 150.0)],
            [filtered.search(np.ones(6), 150.0)],
        )

    def test_tiny_norms_near_subnormal(self):
        """Scales around 2^-500: underflow guards must fail safe (keep rows)."""
        similarity = SimilarityConfig(alpha=0.3, k=3)
        plain, filtered = pair(similarity, window_days=50.0)
        rng = np.random.default_rng(31)
        vectors = rng.integers(-8, 9, size=(60, 4)).astype(np.float64) * 2.0 ** -500
        vectors[5] = 0.0  # an exactly-zero row for good measure
        days = rng.integers(0, 50, size=60).astype(np.float64)
        ids = [f"i{i}" for i in range(60)]
        categories = [f"cat{i % 4}" for i in range(60)]
        for target in (plain, filtered):
            target.add_many(ids, vectors, days, categories)
        queries = rng.integers(-8, 9, size=(4, 4)).astype(np.float64) * 2.0 ** -500
        query_days = rng.integers(0, 60, size=4).astype(np.float64)
        assert_bitwise_results(
            plain.search_many(queries, query_days),
            filtered.search_many(queries, query_days),
        )
        assert_same_stats(plain, filtered)


class TestQuantizedContinuousData:
    def test_selection_identical_scores_approx(self):
        """General float data: same neighbours, scores to 1e-9, same stats."""
        similarity = SimilarityConfig(alpha=0.3, k=5, diverse_categories=True)
        plain, filtered = pair(similarity, window_days=10.0)
        flat = FlatVectorIndex(similarity)
        rng = np.random.default_rng(37)
        count = 1500
        ids = [f"i{i}" for i in range(count)]
        vectors = rng.standard_normal((count, 12))
        days = rng.uniform(0.0, 240.0, size=count)
        categories = [f"cat{i % 17}" for i in range(count)]
        for target in (flat, plain, filtered):
            target.add_many(ids, vectors, days, categories)
        queries = rng.standard_normal((12, 12))
        query_days = rng.uniform(0.0, 260.0, size=12)
        reference = plain.search_many(queries, query_days)
        assert_same_selection(
            reference, filtered.search_many(queries, query_days)
        )
        assert_same_selection(reference, flat.search_many(queries, query_days))
        assert_same_stats(plain, filtered)
        assert plain.stats()["shards_pruned"] == filtered.stats()["shards_pruned"]

    def test_prefilter_composes_with_filters_and_backends(self):
        """Filters force the slow path; backends change transport only."""
        similarity = SimilarityConfig(alpha=0.3, k=4)
        plain, filtered = pair(similarity, window_days=15.0)
        process = ShardedVectorIndex(
            similarity,
            window_days=15.0,
            max_workers=2,
            scoring_backend="process",
            quantized_prefilter=True,
        )
        rng = np.random.default_rng(41)
        count = 500
        ids = [f"i{i}" for i in range(count)]
        vectors = rng.standard_normal((count, 8))
        days = rng.uniform(0.0, 120.0, size=count)
        categories = [f"cat{i % 9}" for i in range(count)]
        try:
            for target in (plain, filtered, process):
                target.add_many(ids, vectors, days, categories)
            queries = rng.standard_normal((5, 8))
            query_days = rng.uniform(0.0, 130.0, size=5)
            kwargs = dict(
                exclude_ids=[{f"i{row}"} for row in range(5)],
                history_before_day=110.0,
                categories={f"cat{i}" for i in range(6)},
            )
            reference = plain.search_many(queries, query_days, **kwargs)
            assert_bitwise_results(
                reference, filtered.search_many(queries, query_days, **kwargs)
            )
            assert_bitwise_results(
                reference, process.search_many(queries, query_days, **kwargs)
            )
            # Unfiltered: prefiltered thread and process modes stay mutually
            # bitwise (same code, same shapes — transport is invisible).
            assert_bitwise_results(
                filtered.search_many(queries, query_days),
                process.search_many(queries, query_days),
            )
        finally:
            process.close()
