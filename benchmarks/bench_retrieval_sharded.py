"""Sharded vs. flat retrieval at a 100k-entry incident history.

The flat index scores every stored incident for every query; the sharded
index partitions the history into time-window shards and prunes temporally
irrelevant shards with an exact score bound (``exp(-alpha * dt_min)``), so
a live query — which, like the paper's deployment, arrives near "now" —
only touches the recent slice of the history.  On top of that, eligible
shards within one scan wave can be scored concurrently on a worker pool
(``max_workers``): numpy releases the GIL inside the BLAS product, so a
query batch whose waves span several shards parallelises across cores.

All layouts and execution modes return *identical* neighbour lists
(asserted below); what this benchmark measures is how much of the index
each query scans and what pruning + parallel scoring buy in latency:

* **live** profile — queries arrive near the end of the timeline (the
  paper's deployment shape): pruning dominates, waves touch few shards;
* **replay** profile — query days spread across the whole history (bulk
  re-triage/backfill): waves nominate many distinct shards, which is where
  wave-level parallelism pays.

Results are also written to ``BENCH_retrieval.json`` (override the
directory with ``BENCH_OUTPUT_DIR``) so CI can archive a perf trajectory.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_retrieval_sharded.py -q -s

Add ``--quick`` for the reduced CI smoke size (50k entries).
"""

from __future__ import annotations

import os
import platform
import time

import numpy as np

from bench_utils import write_results
from repro.vectordb import FlatVectorIndex, ShardedVectorIndex, SimilarityConfig

#: Full scale (the acceptance target): weekly shards over one year.
FULL_HISTORY = 100_000
FULL_WINDOW_DAYS = 7.0
#: CI smoke scale: fortnight shards keep the per-query shard-visit overhead
#: well below the flat scan even at the smaller history.
QUICK_HISTORY = 50_000
QUICK_WINDOW_DAYS = 14.0
DURATION_DAYS = 364.0
#: Live triage batch: queries arrive near the end of the timeline.
QUERY_BATCH = 32
QUERY_DAY_RANGE = (350.0, 364.0)
#: Replay batch: query days spread across the history (bulk re-triage).
REPLAY_DAY_RANGE = (30.0, 364.0)
DIM = 64
ROUNDS = 3


def _build_entries(total: int):
    rng = np.random.default_rng(2024)
    vectors = rng.standard_normal((total, DIM))
    vectors *= 6.0 / np.linalg.norm(vectors, axis=1, keepdims=True)
    return (
        [f"INC-{i:06d}" for i in range(total)],
        vectors,
        rng.uniform(0.0, DURATION_DAYS, size=total),
        [f"Category{i % 120}" for i in range(total)],
    )


def _query_batch(seed: int, day_range) -> tuple:
    rng = np.random.default_rng(seed)
    queries = rng.standard_normal((QUERY_BATCH, DIM))
    queries *= 6.0 / np.linalg.norm(queries, axis=1, keepdims=True)
    return queries, rng.uniform(*day_range, size=QUERY_BATCH)


def _timed_search(index, queries, days, rounds=ROUNDS) -> float:
    """Best-of-N wall time of one batched search (seconds)."""
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        index.search_many(queries, days)
        best = min(best, time.perf_counter() - started)
    return best


def _assert_parity(reference, candidates, label: str) -> None:
    for ref_neighbors, cand_neighbors in zip(reference, candidates):
        assert [n.incident_id for n in ref_neighbors] == [
            n.incident_id for n in cand_neighbors
        ], f"{label}: neighbour lists diverged"


def test_sharded_retrieval_speedup(quick_mode):
    """Sharded scans < 50% of shards, beats flat; parallel beats sequential."""
    total = QUICK_HISTORY if quick_mode else FULL_HISTORY
    window_days = QUICK_WINDOW_DAYS if quick_mode else FULL_WINDOW_DAYS
    cores = os.cpu_count() or 1
    ids, vectors, created_days, categories = _build_entries(total)
    similarity = SimilarityConfig(alpha=0.3, k=5, diverse_categories=True)
    flat = FlatVectorIndex(similarity)
    sequential = ShardedVectorIndex(similarity, window_days=window_days, max_workers=1)
    parallel = ShardedVectorIndex(similarity, window_days=window_days, max_workers=None)
    for index in (flat, sequential, parallel):
        index.add_many(ids, vectors, created_days, categories)

    live_queries, live_days = _query_batch(7, QUERY_DAY_RANGE)
    replay_queries, replay_days = _query_batch(11, REPLAY_DAY_RANGE)

    # Parity first: layout and execution mode are performance choices,
    # never result choices — flat == sequential-sharded == parallel-sharded.
    flat_live = flat.search_many(live_queries, live_days)
    assert all(len(neighbors) == similarity.k for neighbors in flat_live)
    _assert_parity(flat_live, sequential.search_many(live_queries, live_days), "seq/live")
    _assert_parity(flat_live, parallel.search_many(live_queries, live_days), "par/live")
    flat_replay = flat.search_many(replay_queries, replay_days)
    _assert_parity(
        flat_replay, sequential.search_many(replay_queries, replay_days), "seq/replay"
    )
    _assert_parity(
        flat_replay, parallel.search_many(replay_queries, replay_days), "par/replay"
    )

    flat_seconds = _timed_search(flat, live_queries, live_days)
    sequential_seconds = _timed_search(sequential, live_queries, live_days)
    parallel_live_seconds = _timed_search(parallel, live_queries, live_days)
    sequential_replay_seconds = _timed_search(sequential, replay_queries, replay_days)
    parallel_replay_seconds = _timed_search(parallel, replay_queries, replay_days)

    sharded_speedup = flat_seconds / sequential_seconds
    parallel_speedup = sequential_replay_seconds / parallel_replay_seconds
    stats = sequential.stats()

    print()
    print(
        f"{'entries':>9} {'shards':>7} {'scanned':>9} {'flat ms':>9} "
        f"{'seq ms':>8} {'par ms':>8} {'shard x':>8} {'par x':>7}"
    )
    print(
        f"{total:>9} {int(stats['shard_count']):>7} "
        f"{stats['scanned_shard_ratio']:>8.1%} "
        f"{flat_seconds * 1e3:>9.1f} {sequential_seconds * 1e3:>8.1f} "
        f"{parallel_live_seconds * 1e3:>8.1f} "
        f"{sharded_speedup:>7.1f}x {parallel_speedup:>6.1f}x"
    )
    print(
        f"replay profile: sequential {sequential_replay_seconds * 1e3:.1f} ms, "
        f"parallel {parallel_replay_seconds * 1e3:.1f} ms "
        f"({parallel_speedup:.2f}x on {cores} cores, "
        f"{int(parallel.stats()['max_workers'])} workers)"
    )

    path = write_results(
        "BENCH_retrieval.json",
        {
            "benchmark": "retrieval_sharded",
            "config": {
                "entries": total,
                "window_days": window_days,
                "query_batch": QUERY_BATCH,
                "dim": DIM,
                "alpha": similarity.alpha,
                "k": similarity.k,
                "rounds": ROUNDS,
                "quick_mode": bool(quick_mode),
                "cores": cores,
                "parallel_workers": int(parallel.stats()["max_workers"]),
                "machine": platform.machine(),
                "python": platform.python_version(),
            },
            "wall_seconds": {
                "flat_live": flat_seconds,
                "sequential_sharded_live": sequential_seconds,
                "parallel_sharded_live": parallel_live_seconds,
                "sequential_sharded_replay": sequential_replay_seconds,
                "parallel_sharded_replay": parallel_replay_seconds,
            },
            "speedups": {
                "sharded_over_flat_live": sharded_speedup,
                "parallel_over_sequential_live": (
                    sequential_seconds / parallel_live_seconds
                ),
                "parallel_over_sequential_replay": parallel_speedup,
            },
            "stats": {
                "shard_count": stats["shard_count"],
                "scanned_shard_ratio": stats["scanned_shard_ratio"],
                "shards_pruned": stats["shards_pruned"],
            },
        },
    )
    print(f"machine-readable results: {path}")

    expected_shards = DURATION_DAYS / window_days
    assert stats["shard_count"] >= expected_shards - 2, (
        f"expected ~{expected_shards:.0f} time-window shards over one year"
    )
    assert stats["scanned_shard_ratio"] < 0.5, (
        f"sharded retrieval must scan < 50% of shards, "
        f"scanned {stats['scanned_shard_ratio']:.1%}"
    )
    floor = 1.3 if quick_mode else 1.8
    assert sharded_speedup >= floor, (
        f"sharded retrieval must be >= {floor}x the flat scan at "
        f"{total} entries, got {sharded_speedup:.2f}x"
    )
    if cores >= 4 and not quick_mode:
        assert parallel_speedup >= 1.5, (
            f"parallel shard scoring must be >= 1.5x sequential on "
            f"{cores} cores at {total} entries, got {parallel_speedup:.2f}x"
        )
    else:
        # Too few cores (or smoke scale) for a speedup target; the pool
        # must still never wreck latency.
        assert parallel_speedup >= 0.6, (
            f"parallel shard scoring regressed badly on {cores} cores: "
            f"{parallel_speedup:.2f}x"
        )
