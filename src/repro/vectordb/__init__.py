"""Vector database: embedding store, similarity formula and the retrieval layer.

Retrieval is pluggable behind the :class:`VectorIndex` protocol: the flat
single-matrix index (:class:`FlatVectorIndex`) and the time-window sharded
index (:class:`ShardedVectorIndex`) return identical neighbours; the sharded
layout additionally prunes temporally irrelevant shards with an exact score
bound, scores a scan wave's eligible shards on a thread pool
(``max_workers``), self-compacts skewed layouts (:class:`CompactionPolicy`)
and persists as a single mmap-able arena file
(:mod:`~repro.vectordb.shardmem`).
"""

from .index import (
    FlatVectorIndex,
    VectorIndex,
    build_index,
    load_index,
)
from .knn import NearestNeighborSearch, Neighbor, select_complete_order
from .namespaces import NamespacedIndexMap
from .sharded import (
    DEFAULT_WINDOW_DAYS,
    CompactionPolicy,
    ShardedVectorIndex,
    time_bucket,
)
from .shardmem import (
    ArenaSpec,
    BlobSpec,
    ShardArena,
    SharedBlob,
)
from .similarity import (
    DEFAULT_ALPHA,
    DEFAULT_K,
    SimilarityConfig,
    euclidean_distance,
    similarity,
    temporal_decay,
)
from .store import VectorEntry, VectorStore

__all__ = [
    "FlatVectorIndex",
    "VectorIndex",
    "build_index",
    "load_index",
    "NearestNeighborSearch",
    "Neighbor",
    "select_complete_order",
    "NamespacedIndexMap",
    "DEFAULT_WINDOW_DAYS",
    "CompactionPolicy",
    "ShardedVectorIndex",
    "time_bucket",
    "ArenaSpec",
    "BlobSpec",
    "ShardArena",
    "SharedBlob",
    "DEFAULT_ALPHA",
    "DEFAULT_K",
    "SimilarityConfig",
    "euclidean_distance",
    "similarity",
    "temporal_decay",
    "VectorEntry",
    "VectorStore",
]
