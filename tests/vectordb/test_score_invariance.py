"""Batch-shape invariance of retrieval scoring.

A query's similarity to a stored incident must not depend on which other
queries share its batch, on how many rows it is scored against, or on the
shard layout and worker count that scored it.  Otherwise exact score ties
(identical vectors at the same temporal distance, common with recurring
incidents) break differently between a batched and an unbatched run.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.vectordb import (
    FlatVectorIndex,
    NearestNeighborSearch,
    ShardedVectorIndex,
    SimilarityConfig,
    VectorStore,
)
from repro.vectordb.similarity import similarity_matrix

SHAPES = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "rows": st.integers(1, 60),
        "queries": st.integers(1, 7),
        "dim": st.integers(1, 20),
        "scale": st.sampled_from([1e-3, 1.0, 6.0, 1e3]),
        "alpha": st.sampled_from([0.0, 0.3, 0.9]),
    }
)


def draw_problem(shape):
    """Seeded vectors with deliberate duplicate rows and mirrored days."""
    rng = np.random.default_rng(shape["seed"])
    rows, dim = shape["rows"], shape["dim"]
    vectors = rng.standard_normal((rows, dim)) * shape["scale"]
    days = rng.uniform(0.0, 60.0, size=rows)
    # Duplicate some rows so that exact ties exist.
    if rows >= 2:
        vectors[rows // 2] = vectors[0]
    queries = rng.standard_normal((shape["queries"], dim)) * shape["scale"]
    queries[0] = vectors[0]
    query_days = rng.uniform(0.0, 60.0, size=shape["queries"])
    return vectors, days, queries, query_days


def flat_search(vectors, days, alpha):
    store = VectorStore()
    store.add_many(
        [f"i{i}" for i in range(len(vectors))],
        vectors,
        days,
        [f"c{i % 5}" for i in range(len(vectors))],
    )
    return NearestNeighborSearch(store, SimilarityConfig(alpha=alpha))


@settings(max_examples=60, deadline=None)
@given(shape=SHAPES, data=st.data())
def test_similarity_matrix_rows_independent_of_batch_and_row_subset(shape, data):
    vectors, days, queries, query_days = draw_problem(shape)
    alpha = shape["alpha"]
    batch = similarity_matrix(queries, query_days, vectors, days, alpha)
    subset = np.array(
        sorted(
            data.draw(
                st.sets(st.integers(0, len(vectors) - 1), min_size=1),
                label="row subset",
            )
        )
    )
    sub = similarity_matrix(queries, query_days, vectors[subset], days[subset], alpha)
    for i in range(len(queries)):
        single = similarity_matrix(queries[i : i + 1], query_days[i : i + 1], vectors, days, alpha)
        assert np.array_equal(batch[i], single[0])
        assert np.array_equal(sub[i], batch[i, subset])


@settings(max_examples=40, deadline=None)
@given(shape=SHAPES)
def test_flat_score_many_row_equals_single_query(shape):
    vectors, days, queries, query_days = draw_problem(shape)
    search = flat_search(vectors, days, shape["alpha"])
    batch = search.score_many(queries, query_days)
    for i in range(len(queries)):
        assert np.array_equal(batch[i], search.score_many(queries[i : i + 1], query_days[i : i + 1])[0])
        assert np.array_equal(batch[i], search.score_all(queries[i], query_days[i]))


@settings(max_examples=25, deadline=None)
@given(
    shape=SHAPES,
    window_days=st.sampled_from([3.0, 10.0, 45.0]),
    workers=st.sampled_from([1, 3]),
)
def test_sharded_batch_results_equal_single_query_results(shape, window_days, workers):
    """Sharded scoring (sequential and threaded, any shard layout) is
    bit-identical to scoring each query alone, and to the flat scores."""
    vectors, days, queries, query_days = draw_problem(shape)
    similarity = SimilarityConfig(alpha=shape["alpha"], k=4)
    index = ShardedVectorIndex(similarity, window_days=window_days, max_workers=workers)
    ids = [f"i{i}" for i in range(len(vectors))]
    index.add_many(
        incident_ids=ids,
        vectors=vectors,
        created_days=days,
        categories=[f"c{i % 5}" for i in range(len(vectors))],
    )
    flat_scores = flat_search(vectors, days, shape["alpha"]).score_many(queries, query_days)
    try:
        batch = index.search_many(queries, query_days)
        for i in range(len(queries)):
            single = index.search_many(queries[i : i + 1], query_days[i : i + 1])[0]
            assert [(n.incident_id, n.similarity) for n in batch[i]] == [
                (n.incident_id, n.similarity) for n in single
            ]
            for neighbor in batch[i]:
                assert neighbor.similarity == flat_scores[i, ids.index(neighbor.incident_id)]
    finally:
        index.close()


def test_midpoint_tie_breaks_by_insertion_in_every_batch_shape():
    """Identical vectors equidistant in time tie exactly; the earlier
    insertion wins whether the query is scored alone or in a batch."""
    rng = np.random.default_rng(5)
    vector = rng.standard_normal(64) * 6.0
    others = rng.standard_normal((6, 64)) * 6.0
    vectors = np.vstack([vector, others[:3], vector, others[3:]])
    days = np.array([1.0, 5.0, 9.0, 13.0, 3.0, 17.0, 21.0, 25.0])
    query_days = np.array([2.0, 30.0, 10.0])
    queries = np.vstack([vector + 1e-3, others[0], others[5]])
    for index in (
        FlatVectorIndex(SimilarityConfig(k=3, diverse_categories=False)),
        ShardedVectorIndex(SimilarityConfig(k=3, diverse_categories=False), window_days=4.0),
    ):
        index.add_many(
            incident_ids=[f"i{i}" for i in range(len(vectors))],
            vectors=vectors,
            created_days=days,
            categories=["c"] * len(vectors),
        )
        alone = index.search_many(queries[:1], query_days[:1])[0]
        batched = index.search_many(queries, query_days)[0]
        assert alone[0].similarity == alone[1].similarity
        assert [n.incident_id for n in alone[:2]] == ["i0", "i4"]
        assert [(n.incident_id, n.similarity) for n in batched] == [
            (n.incident_id, n.similarity) for n in alone
        ]
        if isinstance(index, ShardedVectorIndex):
            index.close()
