"""Time-window sharded vector index with exact bound-based shard pruning.

At multi-100k histories the flat index scores every stored incident for
every query.  But the paper's similarity (Section 4.2.2) decays
exponentially with the temporal gap — ``exp(-alpha |dT|) / (1 + dist)`` —
so an incident far in the past can never outscore a moderately close recent
one.  :class:`ShardedVectorIndex` exploits this: entries are partitioned
into time-window shards and, per query, shards are visited nearest-in-time
first; a shard whose score *upper bound* ``exp(-alpha * dt_min)`` falls
below the already-collected candidate pool is pruned without any matrix
product.

Pruning is **exact**, not approximate.  The final selection (see
:func:`~repro.vectordb.knn.select_complete_order`) only ever picks from

* the global top ``2k`` entries by score (the k diverse picks that are not
  per-category argmaxes plus up to k fillers each have global rank <= 2k), and
* the per-category argmax entries (what the diversity pass picks first);

so a shard may be skipped exactly when (a) the candidate pool already holds
``2k`` entries all strictly above the shard's bound and (b) every category
present in the shard is already covered by a candidate strictly above the
bound.  Under those conditions no entry of the shard can enter the result,
and flat/sharded retrieval return identical neighbour lists — including tie
breaks, which use the global insertion sequence exactly like the flat scan.

With ``alpha == 0`` the bound is 1.0 and nothing is ever pruned (correct:
without decay every era of the history matters equally).

Eligible shards within one scan *wave* can be scored concurrently on a
thread pool (``max_workers``): numpy releases the GIL inside its
vectorised scoring loops.  Every pool/state mutation stays on the calling
thread, folded in the same deterministic order as the sequential path.
Prune decisions are taken against the pool state as of wave start, so
parallel and sequential scans visit the *same* shard set and return
identical neighbours and identical :meth:`ShardedVectorIndex.stats`.

Shards self-compact: :meth:`ShardedVectorIndex.compact` merges adjacent
cold shards below a size floor and splits hot shards above a ceiling
(:class:`CompactionPolicy`), so the scanned-shard ratio stays bounded as a
skewed history ages; ``max_rewrite_shards`` caps how many source shards a
single pass may rewrite, spreading the work across insert waves.
Compaction re-keys shards but never reorders entries against the global
insertion sequence, so search results are unchanged.

Persistence is manifest v3: every shard's scoring payload lives in one
aligned ``arena.bin`` (:mod:`~repro.vectordb.shardmem`) that
:meth:`ShardedVectorIndex.load` maps with ``np.memmap`` semantics — a
shard's vector pages fault in only when a query actually scans it.
"""

from __future__ import annotations

import bisect
import json
import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.errors import IndexCorruptionError
from .index import SHARDED_MANIFEST
from .knn import Neighbor, select_complete_order
from .shardmem import ArenaSpec, BlockSpec, ShardArena
from .similarity import SimilarityConfig, similarity_matrix
from .store import VectorEntry, VectorStore

#: Default shard width in days.
DEFAULT_WINDOW_DAYS = 30.0

#: Name of the file-backed arena inside a manifest-v3 index directory.
ARENA_FILENAME = "arena.bin"


def time_bucket(day: float, window_days: float) -> int:
    """Shard key of a creation day: which ``window_days``-wide window it is in."""
    if window_days <= 0:
        raise ValueError("window_days must be positive")
    return int(math.floor(day / window_days))


@dataclass(frozen=True)
class CompactionPolicy:
    """When shards are merged (cold tail) or split (hot head).

    A time-window layout skews as history ages: recent windows fill up
    while old windows stay tiny, so the per-query shard-visit overhead
    grows without bound and one hot shard dominates scan cost.  Compaction
    keeps shard sizes inside ``[min_entries, max_entries]`` where the data
    allows: runs of *adjacent* shards each below ``min_entries`` are merged
    (never past ``max_entries`` combined) and shards above ``max_entries``
    are split at day boundaries into roughly equal chunks.

    With ``auto`` enabled, :meth:`ShardedVectorIndex.add_many` triggers
    :meth:`ShardedVectorIndex.compact` after every ``check_every`` inserted
    entries; compaction never changes search results, only the layout.

    ``max_rewrite_shards`` bounds how many *source* shards one pass may
    rewrite (a split costs its one source, a merge costs the run length).
    Deferred work is reported and — under ``auto`` — re-primed so the next
    insert wave continues where this one stopped, keeping per-wave
    compaction latency flat instead of rewriting an arbitrarily large
    backlog at once.
    """

    #: Merge adjacent shards smaller than this (0 disables merging).
    min_entries: int = 256
    #: Split shards larger than this.
    max_entries: int = 8192
    #: Run compact() automatically as entries are inserted.
    auto: bool = False
    #: Auto-trigger cadence, counted in inserted entries.
    check_every: int = 4096
    #: Most source shards one compact() pass may rewrite (None: unlimited).
    max_rewrite_shards: Optional[int] = None

    def __post_init__(self) -> None:
        if self.min_entries < 0:
            raise ValueError("min_entries must be non-negative")
        if self.max_entries <= 0:
            raise ValueError("max_entries must be positive")
        if self.min_entries and self.max_entries < 2 * self.min_entries:
            raise ValueError(
                "max_entries must be at least twice min_entries, or merged "
                "shards would immediately re-qualify for splitting"
            )
        if self.check_every <= 0:
            raise ValueError("check_every must be positive")
        if self.max_rewrite_shards is not None and self.max_rewrite_shards < 1:
            raise ValueError(
                "max_rewrite_shards must be positive (or None for unlimited)"
            )


class _ShardData:
    """One shard's immutable scoring payload: plain arrays, no index state.

    The hand-off unit between the index and the extraction workers:
    everything scoring needs, as views into the shard's
    :class:`~repro.vectordb.store.VectorStore` buffers (which, after a v3
    load, are themselves views into the mapped arena file).
    """

    __slots__ = (
        "key", "total", "matrix", "days", "sq_norms", "seqs", "codes", "_groups",
    )

    def __init__(
        self,
        key: int,
        matrix: np.ndarray,
        days: np.ndarray,
        sq_norms: np.ndarray,
        seqs: np.ndarray,
        codes: np.ndarray,
    ) -> None:
        self.key = key
        self.total = matrix.shape[0]
        self.matrix = matrix
        self.days = days
        self.sq_norms = sq_norms
        self.seqs = seqs
        self.codes = codes
        self._groups: Optional[Tuple[np.ndarray, ...]] = None

    def groups(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Category grouping of the shard's rows, cached between queries.

        Returns ``(perm, starts, sizes, group_codes)``: ``perm`` lists row
        indices grouped by category code (rows ascending inside each group,
        via a stable sort, so "first in group" means "lowest insertion
        sequence"); ``starts``/``sizes`` delimit the groups inside ``perm``
        and ``group_codes`` is each group's category code.  Codes only
        change on insert/relabel (which rebuilds this payload), so
        per-query category argmaxes reduce to one ``np.maximum.reduceat``
        instead of a full sort.
        """
        if self._groups is None:
            codes = self.codes
            perm = np.argsort(codes, kind="stable")
            grouped = codes[perm]
            starts = np.flatnonzero(
                np.concatenate([[True], grouped[1:] != grouped[:-1]])
            )
            sizes = np.diff(np.concatenate([starts, [grouped.shape[0]]]))
            self._groups = (perm, starts, sizes, grouped[starts])
        return self._groups


class _Candidates:
    """One query's extracted candidates from one scored shard.

    The immutable hand-off between the (parallelisable) extraction phase
    and the (serial) fold phase of a scan wave: everything a worker computed
    from the shard's score row, with no references into mutable query
    state.
    ``rows`` index the shard's store; ``best_*`` carry the per-category
    argmax payload (None when diversity is off or no row survived the
    filters).
    """

    __slots__ = (
        "entries_scanned", "scores", "seqs", "rows",
        "best_codes", "best_scores", "best_seqs", "best_rows",
    )

    def __init__(
        self,
        entries_scanned: int,
        scores: np.ndarray,
        seqs: np.ndarray,
        rows: np.ndarray,
        best_codes: Optional[np.ndarray] = None,
        best_scores: Optional[np.ndarray] = None,
        best_seqs: Optional[np.ndarray] = None,
        best_rows: Optional[np.ndarray] = None,
    ) -> None:
        self.entries_scanned = entries_scanned
        self.scores = scores
        self.seqs = seqs
        self.rows = rows
        self.best_codes = best_codes
        self.best_scores = best_scores
        self.best_seqs = best_seqs
        self.best_rows = best_rows


def _select_candidates(
    total: int,
    scores: np.ndarray,
    seqs: np.ndarray,
    rows: np.ndarray,
    codes: Optional[np.ndarray],
    pool_size: int,
    diverse: bool,
) -> _Candidates:
    """Candidates for one query from its eligible (score, seq, row) subset.

    ``rows`` ascend, and rows are appended in insertion order, so within a
    shard the global sequence ascends with the row index: a *stable*
    argsort of the negated scores is the flat scan's (-score, seq) order.
    With diversity on, ``codes`` aligns with ``rows`` and the per-category
    argmaxes ride along (``np.unique``'s first-occurrence indices over the
    ordered codes are exactly the per-group (score desc, seq asc) winners).
    """
    order = np.argsort(-scores, kind="stable")
    keep = order[:pool_size]
    if not diverse:
        return _Candidates(total, scores[keep], seqs[keep], rows[keep].astype(np.int64))
    codes_in_order = codes[order]
    _, first = np.unique(codes_in_order, return_index=True)
    argmax = order[first]
    keep = np.union1d(keep, argmax)
    return _Candidates(
        total,
        scores[keep],
        seqs[keep],
        rows[keep].astype(np.int64),
        best_codes=codes_in_order[first],
        best_scores=scores[argmax],
        best_seqs=seqs[argmax],
        best_rows=rows[argmax].astype(np.int64),
    )


def _extract_filtered_row(
    data: _ShardData,
    scores_row: np.ndarray,
    exclude_rows: Tuple[int, ...],
    history_before_day: Optional[float],
    allowed_codes: Optional[Tuple[int, ...]],
    pool_size: int,
    diverse: bool,
) -> _Candidates:
    """Extract one *filtered* scored shard's candidates for one query.

    Only called when some filter actually removes rows of this shard (a
    look-ahead cut-off, a category filter, or an excluded id stored here);
    unfiltered shards take the batched fast path.
    """
    total = data.total
    mask: Optional[np.ndarray] = None
    if history_before_day is not None:
        mask = data.days < history_before_day
    if allowed_codes is not None:
        allowed = np.isin(data.codes, np.asarray(allowed_codes, dtype=np.int64))
        mask = allowed if mask is None else (mask & allowed)
    if exclude_rows:
        if mask is None:
            mask = np.ones(total, dtype=bool)
        mask[np.asarray(exclude_rows, dtype=np.int64)] = False
    assert mask is not None, "unfiltered queries must go through the fast path"
    eligible = np.flatnonzero(mask)
    if eligible.shape[0] == 0:
        empty = np.zeros(0, dtype=np.int64)
        return _Candidates(total, np.zeros(0), empty, empty)
    return _select_candidates(
        total,
        scores_row[eligible],
        data.seqs[eligible],
        eligible,
        data.codes[eligible] if diverse else None,
        pool_size,
        diverse,
    )


def _extract_fast(
    data: _ShardData,
    sub: np.ndarray,
    fast: List[int],
    pool_size: int,
    diverse: bool,
    payloads: List[Optional[_Candidates]],
) -> None:
    """Batched candidate extraction for the unfiltered queries of a block.

    Top-pool *sets* per row (ordering is irrelevant — the pool merge
    re-sorts): one batched argpartition, with boundary ties corrected per
    row so the kept set matches the flat (-score, seq) ranking, and one
    ``reduceat`` chain for the per-category argmaxes.
    """
    total = sub.shape[1]
    seqs = data.seqs
    if total <= pool_size:
        top_matrix = np.broadcast_to(np.arange(total), (sub.shape[0], total))
        tie_fix_rows = ()
    else:
        top_matrix = np.argpartition(-sub, pool_size - 1, axis=1)[:, :pool_size]
        boundary = np.take_along_axis(sub, top_matrix, axis=1).min(axis=1)
        ties_total = (sub == boundary[:, None]).sum(axis=1)
        above = (sub > boundary[:, None]).sum(axis=1)
        # Rows where ties straddle the partition boundary need the exact
        # lowest-sequence ties instead of argpartition's arbitrary pick.
        tie_fix_rows = np.flatnonzero(above + ties_total > pool_size)
    argmax_matrix = None
    group_codes = None
    if diverse:
        perm, starts, sizes, group_codes = data.groups()
        grouped = sub[:, perm]
        group_maxes = np.maximum.reduceat(grouped, starts, axis=1)
        # First (lowest-row, hence lowest-seq) position achieving each
        # group's maximum: positions where the max is attained, minimised
        # per group.  perm ascends inside each group, so "first" is exact.
        positions = np.where(
            grouped == np.repeat(group_maxes, sizes, axis=1),
            np.arange(total)[None, :],
            total,
        )
        first = np.minimum.reduceat(positions, starts, axis=1)
        argmax_matrix = perm[first]
    for offset, position in enumerate(fast):
        scores_row = sub[offset]
        if len(tie_fix_rows) and offset in tie_fix_rows:
            threshold = boundary[offset]
            keep_above = np.flatnonzero(scores_row > threshold)
            tied = np.flatnonzero(scores_row == threshold)
            top = np.concatenate(
                [keep_above, tied[: pool_size - keep_above.shape[0]]]
            )
        else:
            top = top_matrix[offset]
        if argmax_matrix is None:
            payloads[position] = _Candidates(
                total, scores_row[top], seqs[top], top.astype(np.int64)
            )
        else:
            argmax_rows = argmax_matrix[offset]
            keep_rows = np.union1d(top, argmax_rows)
            payloads[position] = _Candidates(
                total,
                scores_row[keep_rows],
                seqs[keep_rows],
                keep_rows.astype(np.int64),
                best_codes=group_codes,
                best_scores=scores_row[argmax_rows],
                best_seqs=seqs[argmax_rows],
                best_rows=argmax_rows.astype(np.int64),
            )


def _extract_block(
    data: _ShardData,
    queries_block: np.ndarray,
    days_block: np.ndarray,
    exclude_rows: List[Tuple[int, ...]],
    history_before_day: Optional[float],
    allowed_codes: Optional[Tuple[int, ...]],
    pool_size: int,
    diverse: bool,
    alpha: float,
) -> List[_Candidates]:
    """Score one shard and extract candidates for its nominating queries.

    The single extraction code path every execution mode runs — inline or
    on a thread worker — which is what makes parity between sequential
    and parallel scans structural rather than coincidental.  Read-only
    with respect to query state; the returned payloads are folded
    serially by ``_fold``.  The hot path (no look-ahead cut-off, no category filter,
    no excluded id stored in *this* shard) extracts candidates for the
    whole sub-batch at once; queries that do filter rows of this shard
    take the exact per-query path over full float scores.
    """
    block = queries_block.shape[0]
    payloads: List[Optional[_Candidates]] = [None] * block
    batch_filtered = history_before_day is not None or allowed_codes is not None
    fast: List[int] = []
    slow: List[int] = []
    for position in range(block):
        if batch_filtered or exclude_rows[position]:
            slow.append(position)
        else:
            fast.append(position)
    scores = similarity_matrix(queries_block, days_block, data.matrix, data.days, alpha)
    for position in slow:
        payloads[position] = _extract_filtered_row(
            data, scores[position], exclude_rows[position],
            history_before_day, allowed_codes, pool_size, diverse,
        )
    if fast:
        _extract_fast(data, scores[fast], fast, pool_size, diverse, payloads)
    return payloads


class _Shard:
    """One time-window shard: a VectorStore plus sharding bookkeeping.

    ``start_day``/``end_day`` are the half-open day range the shard *routes*
    (new inserts whose creation day falls inside it land here); fresh shards
    cover exactly one ``window_days`` bucket, compacted shards cover merged
    or subdivided ranges.  ``min_day``/``max_day`` track the actual stored
    entries and stay the (tighter) basis of the pruning bound.
    """

    __slots__ = (
        "key", "store", "seqs", "cat_codes", "cat_counts",
        "min_day", "max_day", "start_day", "end_day",
        "_seq_array", "_code_array", "_data",
    )

    def __init__(
        self,
        key: int,
        similarity: SimilarityConfig,
        start_day: float = -math.inf,
        end_day: float = math.inf,
    ) -> None:
        self.key = key
        self.store = VectorStore()
        self.seqs: List[int] = []       # global insertion sequence per row
        self.cat_codes: List[int] = []  # global category code per row
        self.cat_counts: Counter = Counter()
        self.min_day = math.inf
        self.max_day = -math.inf
        self.start_day = start_day
        self.end_day = end_day
        self._seq_array: Optional[np.ndarray] = None
        self._code_array: Optional[np.ndarray] = None
        self._data: Optional[_ShardData] = None

    def seq_array(self) -> np.ndarray:
        if self._seq_array is None or self._seq_array.shape[0] != len(self.seqs):
            self._seq_array = np.asarray(self.seqs, dtype=np.int64)
        return self._seq_array

    def code_array(self) -> np.ndarray:
        if self._code_array is None or self._code_array.shape[0] != len(self.cat_codes):
            self._code_array = np.asarray(self.cat_codes, dtype=np.int64)
        return self._code_array

    def invalidate_data(self) -> None:
        self._data = None

    def data(self) -> _ShardData:
        """The shard's scoring payload, rebuilt when rows were appended.

        Inserts only ever append (and relabels invalidate explicitly), so a
        row-count check suffices; the store's matrix/days/norm buffers are
        only replaced on growth, which implies a row-count change.
        """
        if self._data is None or self._data.total != len(self.store):
            self._data = _ShardData(
                self.key,
                matrix=self.store.matrix(),
                days=self.store.created_days(),
                sq_norms=self.store.squared_norms(),
                seqs=self.seq_array(),
                codes=self.code_array(),
            )
        return self._data

    def dt_min(self, query_day: float) -> float:
        """Smallest possible |query_day - entry_day| over the shard's entries."""
        if self.min_day <= query_day <= self.max_day:
            return 0.0
        return min(abs(query_day - self.min_day), abs(query_day - self.max_day))


class _QueryState:
    """Per-query scan state: shard cursor, candidate pool, per-category bests."""

    __slots__ = (
        "order", "pos", "pool_scores", "pool_seqs", "pool_keys", "pool_rows",
        "best_scores", "best_seqs", "best_keys", "best_rows", "covered_min",
        "done", "scanned", "pruned", "skipped",
    )

    def __init__(self, order: List[Tuple[float, int]], category_count: int) -> None:
        self.order = order
        self.pos = 0
        self.pool_scores = np.zeros(0)
        self.pool_seqs = np.zeros(0, dtype=np.int64)
        self.pool_keys = np.zeros(0, dtype=np.int64)
        self.pool_rows = np.zeros(0, dtype=np.int64)
        #: Per category code, the eligible argmax seen so far (score, seq,
        #: shard key, row) — what the diversity pass would pick first.
        #: -inf score means "category not covered yet".
        self.best_scores = np.full(category_count, -math.inf)
        self.best_seqs = np.zeros(category_count, dtype=np.int64)
        self.best_keys = np.zeros(category_count, dtype=np.int64)
        self.best_rows = np.zeros(category_count, dtype=np.int64)
        #: Lowest per-category best once *every* index category is covered,
        #: else -inf — an O(1) sufficient condition for the coverage part of
        #: the pruning test (any shard's categories are a subset of all).
        self.covered_min = -math.inf
        self.done = False
        self.scanned = 0
        self.pruned = 0
        self.skipped = 0

    def pool_min(self, pool_size: int) -> float:
        """Lowest retained pool score, or -inf while the pool is not full."""
        if self.pool_scores.shape[0] < pool_size:
            return -math.inf
        return float(self.pool_scores[-1])

    def update_category_bests(
        self,
        codes: np.ndarray,
        scores: np.ndarray,
        seqs: np.ndarray,
        rows: np.ndarray,
        shard_key: int,
    ) -> None:
        """Fold one shard's per-category argmaxes in (vectorised).

        ``codes`` are distinct within one call (one entry per category
        group), so the masked writes cannot collide; the (score desc, seq
        asc) comparison matches the flat scan's tie-breaking.
        """
        current_scores = self.best_scores[codes]
        improve = (scores > current_scores) | (
            (scores == current_scores) & (seqs < self.best_seqs[codes])
        )
        if improve.any():
            winners = codes[improve]
            self.best_scores[winners] = scores[improve]
            self.best_seqs[winners] = seqs[improve]
            self.best_keys[winners] = shard_key
            self.best_rows[winners] = rows[improve]
        if self.best_scores.shape[0]:
            self.covered_min = float(self.best_scores.min())


class ShardedVectorIndex:
    """Entries partitioned by time window; queries scan only relevant shards.

    Implements the same :class:`~repro.vectordb.index.VectorIndex` protocol
    as the flat index and returns identical results (see module docstring
    for the exactness argument); the difference is purely how much of the
    history each query touches, which :meth:`stats` reports.
    """

    backend = "sharded"

    def __init__(
        self,
        similarity: Optional[SimilarityConfig] = None,
        window_days: float = DEFAULT_WINDOW_DAYS,
        max_workers: Optional[int] = None,
        compaction: Optional[CompactionPolicy] = None,
    ) -> None:
        if window_days <= 0:
            raise ValueError("window_days must be positive")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive (or None for auto)")
        self.window_days = float(window_days)
        #: Workers scoring a wave's shards concurrently; None picks the
        #: machine's core count, 1 forces the sequential path.  Results
        #: and stats are identical in every mode.
        self.max_workers = max_workers
        self.compaction = compaction or CompactionPolicy()
        self._similarity = similarity or SimilarityConfig()
        self._shards: Dict[int, _Shard] = {}
        self._locator: Dict[str, int] = {}  # incident id -> shard key
        self._next_seq = 0
        self._dim: Optional[int] = None
        self._cat_code: Dict[str, int] = {}
        # routing ranges: (start_day, end_day, key) sorted by start_day
        self._ranges: List[Tuple[float, float, int]] = []
        self._range_starts: List[float] = []
        self._next_shard_key = 0
        self._inserts_since_compact = 0
        # lazily spawned scoring pool, reused across search_many calls
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_workers = 0
        # the mapped arena file of a v3 load, kept for the index lifetime
        self._arena: Optional[ShardArena] = None
        # scan statistics (cumulative over the index lifetime)
        self._queries = 0
        self._shards_considered = 0
        self._shards_scanned = 0
        self._shards_pruned = 0
        self._shards_skipped = 0
        self._entries_scanned = 0
        self._entries_considered = 0
        # compaction statistics (cumulative over the index lifetime)
        self._compactions = 0
        self._shards_merged = 0
        self._shards_split = 0

    #: Ceiling of the automatic (``max_workers=None``) pool size.  A wave
    #: submits one task per nominated shard — typically a handful after
    #: pruning — so beyond this the extra workers of a many-core host
    #: would only ever idle.  An explicit ``max_workers`` is honoured as
    #: given.
    AUTO_WORKERS_CAP = 16

    def _effective_workers(self) -> int:
        """Workers a scan wave may use (1 means sequential)."""
        if self.max_workers is not None:
            return max(1, int(self.max_workers))
        return max(1, min(os.cpu_count() or 1, self.AUTO_WORKERS_CAP))

    def _pool_for(self, workers: int) -> ThreadPoolExecutor:
        """The shared scoring pool, (re)spawned lazily on first parallel wave.

        Cached on the index so a streaming deployment does not pay
        spawn/teardown on every micro-batch; a changed ``max_workers`` or a
        :meth:`close` respawns it on next use.
        """
        if self._executor is None or self._executor_workers != workers:
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="shard-score"
            )
            self._executor_workers = workers
        return self._executor

    def close(self) -> None:
        """Release the scoring pool.  Idempotent; it respawns on next use."""
        executor, self._executor = self._executor, None
        self._executor_workers = 0
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def __getstate__(self) -> dict:
        # Worker pools and file mappings cannot be copied or pickled; the
        # copy respawns its own pool on first use, and its stores own
        # copies of the mapped arrays.
        state = dict(self.__dict__)
        state["_executor"] = None
        state["_executor_workers"] = 0
        state["_arena"] = None
        return state

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter-shutdown races
            pass

    # --------------------------------------------------------------- protocol
    @property
    def similarity(self) -> SimilarityConfig:
        """The similarity configuration shared by every shard's scorer."""
        return self._similarity

    @similarity.setter
    def similarity(self, config: SimilarityConfig) -> None:
        self._similarity = config

    @property
    def dim(self) -> Optional[int]:
        """Embedding dimensionality (None until the first insert)."""
        return self._dim

    def __len__(self) -> int:
        return len(self._locator)

    def __contains__(self, incident_id: str) -> bool:
        return incident_id in self._locator

    def get(self, incident_id: str) -> Optional[VectorEntry]:
        """Fetch one stored entry by incident id."""
        key = self._locator.get(incident_id)
        if key is None:
            return None
        return self._shards[key].store.get(incident_id)

    def categories(self) -> List[str]:
        """Distinct categories present across all shards (sorted)."""
        present: Set[str] = set()
        for shard in self._shards.values():
            present.update(category for category, count in shard.cat_counts.items() if count)
        return sorted(present)

    def shard_sizes(self) -> Dict[int, int]:
        """Entries per shard key (the index's time-window layout)."""
        return {key: len(shard.store) for key, shard in sorted(self._shards.items())}

    # ------------------------------------------------------------------ insert
    def _code_for(self, category: str) -> int:
        code = self._cat_code.get(category)
        if code is None:
            code = len(self._cat_code)
            self._cat_code[category] = code
        return code

    def _rebuild_ranges(self) -> None:
        self._ranges = sorted(
            (shard.start_day, shard.end_day, key)
            for key, shard in self._shards.items()
        )
        self._range_starts = [start for start, _, _ in self._ranges]

    def _next_key(self) -> int:
        """A shard key no live or bucket-derived shard has claimed yet."""
        key = self._next_shard_key
        if self._shards:
            key = max(key, max(self._shards) + 1)
        self._next_shard_key = key + 1
        return key

    def _shard_for(self, created_day: float) -> _Shard:
        """The shard routing ``created_day``, created on first use.

        Fresh shards cover exactly one ``window_days`` bucket (key == time
        bucket, like the original layout); once compaction has merged or
        split shards, their recorded day ranges take precedence, so inserts
        into a compacted region land in the compacted shard instead of
        resurrecting the pre-compaction bucket.
        """
        position = bisect.bisect_right(self._range_starts, created_day) - 1
        if position >= 0:
            start, end, key = self._ranges[position]
            if start <= created_day < end:
                return self._shards[key]
        bucket = time_bucket(created_day, self.window_days)
        key = bucket if bucket not in self._shards else self._next_key()
        shard = _Shard(
            key,
            self._similarity,
            start_day=bucket * self.window_days,
            end_day=(bucket + 1) * self.window_days,
        )
        self._shards[key] = shard
        self._rebuild_ranges()
        return shard

    def add(
        self,
        incident_id: str,
        vector: np.ndarray,
        created_day: float,
        category: str,
        text: str = "",
    ) -> None:
        """Insert one labelled incident embedding into its time-window shard."""
        self.add_many(
            incident_ids=[incident_id],
            vectors=np.asarray(vector, dtype=np.float64).reshape(1, -1),
            created_days=[created_day],
            categories=[category],
            texts=[text],
        )

    def add_many(
        self,
        incident_ids: Sequence[str],
        vectors: np.ndarray,
        created_days: Sequence[float],
        categories: Sequence[str],
        texts: Optional[Sequence[str]] = None,
    ) -> None:
        """Bulk insert, routing each row to its time-window shard.

        Validation happens up front (duplicate ids, alignment, dimension) so
        a rejected batch leaves every shard untouched; global insertion
        sequence numbers follow the batch order, preserving the flat index's
        tie-breaking exactly.
        """
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError("vectors must be a 2-D (batch, dim) array")
        count = vectors.shape[0]
        if not (len(incident_ids) == count == len(created_days) == len(categories)):
            raise ValueError("incident_ids, vectors, created_days and categories must align")
        if texts is not None and len(texts) != count:
            raise ValueError("texts must align with incident_ids")
        if count == 0:
            return
        seen: Set[str] = set()
        for incident_id in incident_ids:
            if incident_id in self._locator or incident_id in seen:
                raise ValueError(f"duplicate incident id in vector store: {incident_id}")
            seen.add(incident_id)
        if self._dim is None:
            self._dim = vectors.shape[1]
        elif vectors.shape[1] != self._dim:
            raise ValueError(
                f"vector dimension {vectors.shape[1]} does not match store dimension {self._dim}"
            )
        # Group batch rows by destination *shard* (not bucket: a compacted
        # shard can cover several buckets), preserving batch order within
        # each group so global sequence numbers stay ascending per shard —
        # the invariant the stable-sort candidate extraction relies on.
        rows_by_key: Dict[int, List[int]] = {}
        for row, day in enumerate(created_days):
            rows_by_key.setdefault(self._shard_for(float(day)).key, []).append(row)
        for key, rows in rows_by_key.items():
            shard = self._shards[key]
            shard.store.add_many(
                incident_ids=[incident_ids[row] for row in rows],
                vectors=vectors[rows],
                created_days=[float(created_days[row]) for row in rows],
                categories=[categories[row] for row in rows],
                texts=[texts[row] for row in rows] if texts is not None else None,
            )
            for row in rows:
                shard.seqs.append(self._next_seq + row)
                shard.cat_codes.append(self._code_for(categories[row]))
                shard.cat_counts[categories[row]] += 1
                day = float(created_days[row])
                shard.min_day = min(shard.min_day, day)
                shard.max_day = max(shard.max_day, day)
                self._locator[incident_ids[row]] = key
        self._next_seq += count
        self._inserts_since_compact += count
        if (
            self.compaction.auto
            and self._inserts_since_compact >= self.compaction.check_every
        ):
            self._inserts_since_compact = 0
            report = self.compact()
            if report.get("shards_deferred"):
                # A rewrite budget left work behind: stay primed so the
                # next insert wave continues the backlog instead of
                # waiting out another full cadence.
                self._inserts_since_compact = self.compaction.check_every

    # ------------------------------------------------------------------ update
    def update_category(self, incident_id: str, category: str) -> None:
        """Correct a stored category in place (OCE feedback path).

        Raises:
            KeyError: with the offending id, when the incident was never
                indexed — mislabelled feedback must fail loudly.
        """
        key = self._locator.get(incident_id)
        if key is None:
            raise KeyError(f"unknown incident id in vector index: {incident_id}")
        shard = self._shards[key]
        row = shard.store.index_of(incident_id)
        entry = shard.store.get(incident_id)
        previous = entry.category
        shard.store.update_category(incident_id, category)
        if previous != category:
            shard.cat_counts[previous] -= 1
            if shard.cat_counts[previous] <= 0:
                del shard.cat_counts[previous]
            shard.cat_counts[category] += 1
            shard.cat_codes[row] = self._code_for(category)
            shard._code_array = None
            shard.invalidate_data()

    # ------------------------------------------------------------------ search
    def search(
        self,
        query_vector: np.ndarray,
        query_day: float,
        k: Optional[int] = None,
        exclude_ids: Optional[Set[str]] = None,
        history_before_day: Optional[float] = None,
        categories: Optional[Set[str]] = None,
    ) -> List[Neighbor]:
        """Top-K neighbours of one query (delegates to the batch path)."""
        return self.search_many(
            np.asarray(query_vector, dtype=np.float64).reshape(1, -1),
            np.array([query_day], dtype=np.float64),
            k=k,
            exclude_ids=[exclude_ids] if exclude_ids is not None else None,
            history_before_day=history_before_day,
            categories=categories,
        )[0]

    def search_many(
        self,
        query_matrix: np.ndarray,
        query_days: Sequence[float],
        k: Optional[int] = None,
        exclude_ids: Optional[Sequence[Optional[Set[str]]]] = None,
        history_before_day: Optional[float] = None,
        categories: Optional[Set[str]] = None,
    ) -> List[List[Neighbor]]:
        """Top-K neighbours for a whole query batch, scanning eligible shards only.

        The batch is processed in *waves*: every query nominates the next
        shard it cannot skip (nearest-in-time first, after exact filters and
        the score-bound pruning test), nominations are grouped so each shard
        is scored once per wave in one vectorised pass over its
        nominating sub-batch, and candidate pools absorb the results.  Waves
        repeat until every query has either scanned or pruned every shard.
        Results are identical to the flat index's full scan.
        """
        k = k or self._similarity.k
        # An empty category filter means "no filter", matching the flat
        # backend's truthiness semantics.
        categories = categories or None
        queries = np.asarray(query_matrix, dtype=np.float64)
        if queries.ndim != 2:
            raise ValueError("query_matrix must be a 2-D (batch, dim) array")
        if exclude_ids is not None and len(exclude_ids) != queries.shape[0]:
            raise ValueError("exclude_ids must align with query_matrix rows")
        days = np.asarray(query_days, dtype=np.float64).ravel()
        if days.shape[0] != queries.shape[0]:
            raise ValueError("query_days must align with query_matrix rows")
        total_queries = queries.shape[0]
        if total_queries == 0:
            return []
        if not self._locator:
            return [[] for _ in range(total_queries)]
        if self._dim is not None and queries.shape[1] != self._dim:
            raise ValueError(
                f"query dimension {queries.shape[1]} does not match store dimension {self._dim}"
            )
        # Recurring incidents produce identical queries (paper Figure 2);
        # each distinct (vector, day, effective exclusions) group is scanned
        # once, exactly like the flat backend's in-batch dedup.  Exclusion
        # ids absent from the index cannot change the result.
        group_of: List[int] = []
        group_rows: List[int] = []
        group_excludes: List[Optional[Set[str]]] = []
        group_index: Dict[tuple, int] = {}
        for row in range(total_queries):
            raw_exclude = exclude_ids[row] if exclude_ids is not None else None
            effective = (
                frozenset(
                    incident_id
                    for incident_id in raw_exclude
                    if incident_id in self._locator
                )
                if raw_exclude
                else frozenset()
            )
            group_key = (queries[row].tobytes(), float(days[row]), effective)
            index = group_index.get(group_key)
            if index is None:
                index = len(group_rows)
                group_index[group_key] = index
                group_rows.append(row)
                group_excludes.append(set(effective) if effective else None)
            group_of.append(index)
        if len(group_rows) < total_queries:
            grouped = self.search_many(
                queries[group_rows],
                days[group_rows],
                k=k,
                exclude_ids=group_excludes,
                history_before_day=history_before_day,
                categories=categories,
            )
            # Deduplicated rows count toward queries and the considered
            # denominators (a naive scan would have scored them too) but
            # contribute no scans — they reuse a group's result.  Matches
            # the flat backend's accounting.
            duplicates = total_queries - len(group_rows)
            self._queries += duplicates
            self._shards_considered += duplicates * len(self._shards)
            self._entries_considered += duplicates * len(self._locator)
            return [list(grouped[group_of[row]]) for row in range(total_queries)]
        diverse = self._similarity.diverse_categories
        alpha = self._similarity.alpha
        # The candidate pool per query holds the global top 2k by score: the
        # selection's fillers have global rank <= 2k (see module docstring);
        # per-category argmaxes are tracked separately in ``cat_best``.
        pool_size = 2 * k
        shard_keys = sorted(self._shards)
        # Vectorised per-query shard ordering: dt_min of every (query, shard)
        # pair in one broadcast, stable argsort so ties fall back to
        # ascending shard key exactly like a (dt_min, key) tuple sort.
        min_days = np.array([self._shards[key].min_day for key in shard_keys])
        max_days = np.array([self._shards[key].max_day for key in shard_keys])
        day_column = days[:, None]
        dt_matrix = np.where(
            (min_days <= day_column) & (day_column <= max_days),
            0.0,
            np.minimum(np.abs(day_column - min_days), np.abs(day_column - max_days)),
        )
        orderings = np.argsort(dt_matrix, axis=1, kind="stable")
        category_count = len(self._cat_code)
        states: List[_QueryState] = []
        for qi in range(total_queries):
            order = [
                (float(dt_matrix[qi, position]), shard_keys[position])
                for position in orderings[qi]
            ]
            states.append(_QueryState(order, category_count))
        excludes = [
            exclude_ids[qi] if exclude_ids is not None else None
            for qi in range(total_queries)
        ]
        # The category filter compiled to integer codes once per call so
        # every extraction shares it.
        allowed_codes: Optional[Tuple[int, ...]] = None
        if categories is not None:
            allowed_codes = tuple(
                sorted(
                    self._cat_code[category]
                    for category in categories
                    if category in self._cat_code
                )
            )
        # Parallel mode: a wave's shards are independent — every query
        # nominates exactly one shard per wave and prune decisions were
        # taken against the pool state as of wave start — so scoring and
        # candidate extraction fan out to threads (numpy releases the GIL
        # inside its scoring loops) while every state mutation is folded
        # on this thread in sorted-key order, exactly like the sequential
        # path.  Parity is structural: both modes run the same
        # extract/fold code, only scheduling differs.
        workers = self._effective_workers()
        while True:
            nominations: Dict[int, List[int]] = {}
            for qi, state in enumerate(states):
                if state.done:
                    continue
                key = self._advance(
                    state, k, alpha, diverse, pool_size, history_before_day, categories
                )
                if key is None:
                    state.done = True
                else:
                    nominations.setdefault(key, []).append(qi)
            if not nominations:
                break
            keys = sorted(nominations)
            extract_args = [
                (
                    key,
                    nominations[key],
                    queries,
                    days,
                    excludes,
                    history_before_day,
                    allowed_codes,
                    pool_size,
                    diverse,
                )
                for key in keys
            ]
            if workers > 1 and len(keys) > 1:
                pool = self._pool_for(workers)
                futures = [pool.submit(self._extract_local, *args) for args in extract_args]
                extracted = [future.result() for future in futures]
            else:
                extracted = [self._extract_local(*args) for args in extract_args]
            for key, payloads in zip(keys, extracted):
                shard = self._shards[key]
                for qi, candidates in zip(nominations[key], payloads):
                    self._fold(states[qi], shard, candidates, pool_size)
                    states[qi].pos += 1
        results = [self._finalize(state, k, diverse) for state in states]
        shard_count = len(self._shards)
        self._queries += total_queries
        self._shards_considered += total_queries * shard_count
        self._entries_considered += total_queries * len(self._locator)
        for state in states:
            self._shards_scanned += state.scanned
            self._shards_pruned += state.pruned
            self._shards_skipped += state.skipped
        return results

    def _advance(
        self,
        state: _QueryState,
        k: int,
        alpha: float,
        diverse: bool,
        pool_size: int,
        history_before_day: Optional[float],
        categories: Optional[Set[str]],
    ) -> Optional[int]:
        """Next shard this query must scan, skipping filtered/pruned shards."""
        while state.pos < len(state.order):
            dt_min, key = state.order[state.pos]
            shard = self._shards[key]
            # Exact filters: no eligible entry can exist in the shard.
            if history_before_day is not None and shard.min_day >= history_before_day:
                state.skipped += 1
                state.pos += 1
                continue
            if categories is not None and not any(
                category in categories for category in shard.cat_counts
            ):
                state.skipped += 1
                state.pos += 1
                continue
            upper_bound = math.exp(-alpha * dt_min) if alpha > 0 else 1.0
            if self._can_prune(state, shard, upper_bound, pool_size, diverse, categories):
                state.pruned += 1
                state.pos += 1
                continue
            return key
        return None

    def _can_prune(
        self,
        state: _QueryState,
        shard: _Shard,
        upper_bound: float,
        pool_size: int,
        diverse: bool,
        categories: Optional[Set[str]],
    ) -> bool:
        """True when no entry of ``shard`` can possibly enter the result.

        Requires a full candidate pool strictly above the shard's score upper
        bound and — with diversity on — every category present in the shard
        already covered by a strictly better candidate.  Strict inequalities
        keep tie-breaking identical to the flat scan.

        The coverage test is tiered: an O(1) fast path (when every category
        of the *whole index* is covered above the bound, any shard's subset
        is too), a vectorised per-shard check against the query's
        per-category bests, and a Python walk only when a category filter
        restricts which categories matter.
        """
        if state.pool_min(pool_size) <= upper_bound:
            return False
        if diverse:
            if categories is None:
                if state.covered_min > upper_bound:
                    return True
                group_codes = shard.data().groups()[3]
                return bool(np.all(state.best_scores[group_codes] > upper_bound))
            for category in shard.cat_counts:
                if category not in categories:
                    continue
                code = self._cat_code.get(category)
                if code is None or state.best_scores[code] <= upper_bound:
                    return False
        return True

    def _exclude_rows(self, shard: _Shard, exclude: Optional[Set[str]]) -> Tuple[int, ...]:
        """A shard-local sorted row tuple for a query's exclusion ids."""
        if not exclude:
            return ()
        return tuple(
            sorted(
                shard.store.index_of(incident_id)
                for incident_id in exclude
                if self._locator.get(incident_id) == shard.key
            )
        )

    def _extract_local(
        self,
        key: int,
        qrows: List[int],
        queries: np.ndarray,
        days: np.ndarray,
        excludes: List[Optional[Set[str]]],
        history_before_day: Optional[float],
        allowed_codes: Optional[Tuple[int, ...]],
        pool_size: int,
        diverse: bool,
    ) -> List[_Candidates]:
        """Extract one shard's candidates (inline or on a pool thread)."""
        shard = self._shards[key]
        exclude_rows = [self._exclude_rows(shard, excludes[qi]) for qi in qrows]
        return _extract_block(
            shard.data(),
            queries[qrows],
            days[qrows],
            exclude_rows,
            history_before_day,
            allowed_codes,
            pool_size,
            diverse,
            self._similarity.alpha,
        )

    def _fold(
        self,
        state: _QueryState,
        shard: _Shard,
        candidates: _Candidates,
        pool_size: int,
    ) -> None:
        """Fold one extracted shard payload into a query's state (serial).

        The only place scan waves mutate query pools, per-category bests or
        the index-lifetime counters — always on the calling thread, in
        sorted-shard-key order, regardless of how many workers extracted.
        That makes the scanned/pruned statistics race-free by construction
        (per-shard payloads are the "per-worker accumulators", reduced here
        at wave end) and bit-identical between the execution modes.
        """
        state.scanned += 1
        self._entries_scanned += candidates.entries_scanned
        if candidates.best_codes is not None:
            state.update_category_bests(
                candidates.best_codes,
                candidates.best_scores,
                candidates.best_seqs,
                candidates.best_rows,
                shard.key,
            )
        if candidates.rows.shape[0]:
            self._merge_pool(
                state,
                shard.key,
                candidates.scores,
                candidates.seqs,
                candidates.rows,
                pool_size,
            )

    @staticmethod
    def _merge_pool(
        state: _QueryState,
        shard_key: int,
        cand_scores: np.ndarray,
        cand_seqs: np.ndarray,
        cand_rows: np.ndarray,
        pool_size: int,
    ) -> None:
        """Merge one shard's candidates into the query's top pool (exact)."""
        merged_scores = np.concatenate([state.pool_scores, cand_scores])
        merged_seqs = np.concatenate([state.pool_seqs, cand_seqs])
        merged_keys = np.concatenate(
            [state.pool_keys, np.full(cand_rows.shape[0], shard_key, dtype=np.int64)]
        )
        merged_rows = np.concatenate([state.pool_rows, cand_rows])
        retained = np.lexsort((merged_seqs, -merged_scores))[:pool_size]
        state.pool_scores = merged_scores[retained]
        state.pool_seqs = merged_seqs[retained]
        state.pool_keys = merged_keys[retained]
        state.pool_rows = merged_rows[retained]

    def _finalize(self, state: _QueryState, k: int, diverse: bool) -> List[Neighbor]:
        """Select the final neighbours from a query's merged candidates."""
        combined: Dict[Tuple[int, int], Tuple[float, int, int, int]] = {}
        for position in range(state.pool_scores.shape[0]):
            key = int(state.pool_keys[position])
            row = int(state.pool_rows[position])
            combined[(key, row)] = (
                float(state.pool_scores[position]),
                int(state.pool_seqs[position]),
                key,
                row,
            )
        for code in np.flatnonzero(state.best_scores > -math.inf):
            key = int(state.best_keys[code])
            row = int(state.best_rows[code])
            combined.setdefault(
                (key, row),
                (float(state.best_scores[code]), int(state.best_seqs[code]), key, row),
            )
        ordered = sorted(combined.values(), key=lambda item: (-item[0], item[1]))
        candidate_categories = [
            self._shards[key].store._entries[row].category  # noqa: SLF001
            for _, _, key, row in ordered
        ]
        picks = select_complete_order(candidate_categories, k, diverse)
        neighbors: List[Neighbor] = []
        for position in picks:
            score, _, key, row = ordered[position]
            neighbors.append(
                Neighbor(
                    entry=self._shards[key].store._entries[row],  # noqa: SLF001
                    similarity=score,
                )
            )
        return neighbors

    # ------------------------------------------------------------- compaction
    def _build_shard(
        self,
        start_day: float,
        end_day: float,
        entries: List[VectorEntry],
        seqs: List[int],
    ) -> _Shard:
        """A fresh shard holding ``entries`` (already in ascending-seq order)."""
        shard = _Shard(self._next_key(), self._similarity, start_day, end_day)
        shard.store.add_many(
            incident_ids=[entry.incident_id for entry in entries],
            vectors=np.stack([entry.vector for entry in entries]),
            created_days=[entry.created_day for entry in entries],
            categories=[entry.category for entry in entries],
            texts=[entry.text for entry in entries],
        )
        shard.seqs = list(seqs)
        for entry in entries:
            shard.cat_codes.append(self._code_for(entry.category))
            shard.cat_counts[entry.category] += 1
            shard.min_day = min(shard.min_day, entry.created_day)
            shard.max_day = max(shard.max_day, entry.created_day)
        return shard

    def _adopt(self, shard: _Shard) -> None:
        self._shards[shard.key] = shard
        for entry in shard.store:
            self._locator[entry.incident_id] = shard.key

    def _split_shard(self, shard: _Shard, ceiling: int, floor: int) -> List[_Shard]:
        """Split one hot shard into day-bounded chunks of roughly equal size.

        Cuts are placed at positions where the (sorted) creation day
        strictly increases, so the resulting routing ranges stay disjoint;
        rows inside each chunk keep their original (ascending-seq) order.
        When every entry shares one creation day no cut exists and the
        shard is left alone — splitting such a shard would break routing.
        """
        size = len(shard.store)
        target = max(1, floor, ceiling // 2)
        chunk_count = math.ceil(size / target)
        if chunk_count <= 1:
            return [shard]
        days = shard.store.created_days()
        order = np.argsort(days, kind="stable")
        sorted_days = days[order]
        cut_positions: List[int] = []
        for chunk in range(1, chunk_count):
            ideal = round(chunk * size / chunk_count)
            position = ideal
            while position < size and sorted_days[position] == sorted_days[position - 1]:
                position += 1
            if position >= size:
                position = ideal
                while position > 0 and sorted_days[position] == sorted_days[position - 1]:
                    position -= 1
                if position <= 0:
                    continue
            cut_positions.append(position)
        cut_days = sorted({float(sorted_days[position]) for position in cut_positions})
        if not cut_days:
            return [shard]
        edges = [shard.start_day, *cut_days, shard.end_day]
        entries = shard.store.entries()
        pieces: List[_Shard] = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            rows = [
                row for row in range(size)
                if lo <= entries[row].created_day < hi
            ]
            if not rows:
                continue
            pieces.append(
                self._build_shard(
                    lo, hi,
                    [entries[row] for row in rows],
                    [shard.seqs[row] for row in rows],
                )
            )
        # Stretch the first/last piece to the shard's full routing range so
        # the union of ranges is preserved exactly.
        pieces[0].start_day = shard.start_day
        pieces[-1].end_day = shard.end_day
        return pieces

    def _merge_shards(self, group: List[_Shard]) -> _Shard:
        """Merge adjacent cold shards, re-sorting rows by global sequence."""
        combined = sorted(
            (
                (shard.seqs[row], entry)
                for shard in group
                for row, entry in enumerate(shard.store.entries())
            ),
            key=lambda pair: pair[0],
        )
        return self._build_shard(
            min(shard.start_day for shard in group),
            max(shard.end_day for shard in group),
            [entry for _, entry in combined],
            [seq for seq, _ in combined],
        )

    def compact(
        self,
        min_entries: Optional[int] = None,
        max_entries: Optional[int] = None,
        max_rewrite_shards: Optional[int] = None,
    ) -> Dict[str, float]:
        """Rebalance the shard layout: split hot shards, merge cold runs.

        Splits every shard above the size ceiling at day boundaries, then
        merges runs of time-adjacent shards below the size floor (stopping
        before a merged shard would exceed the ceiling).  Entry metadata,
        global sequence numbers and therefore *search results* are
        untouched — only the layout (and the scanned-shard economics)
        changes.  Thresholds default to the index's
        :class:`CompactionPolicy`.

        ``max_rewrite_shards`` (default: the policy's) bounds how many
        *source* shards one call rewrites, keeping the pause a compaction
        inflicts on an ingest wave O(budget) instead of O(backlog): a
        split consumes one unit, merging a run consumes the run's length,
        and whatever does not fit is reported as ``shards_deferred`` so
        auto-compaction stays primed to continue on the next wave.

        Returns:
            A report: shards before/after, how many were merged/split, how
            many qualifying rewrites the budget deferred, and the
            resulting max/median shard sizes.
        """
        floor = self.compaction.min_entries if min_entries is None else min_entries
        ceiling = self.compaction.max_entries if max_entries is None else max_entries
        budget = (
            self.compaction.max_rewrite_shards
            if max_rewrite_shards is None
            else max_rewrite_shards
        )
        if ceiling <= 0:
            raise ValueError("max_entries must be positive")
        if floor < 0:
            raise ValueError("min_entries must be non-negative")
        if budget is not None and budget < 1:
            raise ValueError("max_rewrite_shards must be positive (or None for unlimited)")
        if floor and ceiling < 2 * floor:
            # Same invariant CompactionPolicy enforces: otherwise a split
            # produces sub-floor pieces the merge pass can never recombine
            # (their sum exceeds the ceiling), leaving the layout worse.
            raise ValueError(
                "max_entries must be at least twice min_entries, or split "
                "pieces would immediately re-qualify for merging"
            )
        remaining = math.inf if budget is None else float(budget)
        deferred = 0
        shards_before = len(self._shards)
        split_sources = 0
        merged_sources = 0
        # ---- split pass: hot shards above the ceiling
        for key in sorted(self._shards):
            shard = self._shards[key]
            if len(shard.store) <= ceiling:
                continue
            if shard.max_day <= shard.min_day:
                # Single-day shard: unsplittable regardless of budget, so
                # it must not occupy (or defer) rewrite slots forever.
                continue
            if remaining < 1:
                deferred += 1
                continue
            pieces = self._split_shard(shard, ceiling, floor)
            if len(pieces) <= 1:
                continue
            del self._shards[key]
            for piece in pieces:
                self._adopt(piece)
            split_sources += 1
            remaining -= 1
        # ---- merge pass: runs of time-adjacent shards below the floor
        if floor > 0:
            ordered = sorted(
                self._shards.values(), key=lambda shard: (shard.start_day, shard.key)
            )
            groups: List[List[_Shard]] = []
            run: List[_Shard] = []
            run_size = 0
            for shard in ordered:
                size = len(shard.store)
                if size < floor and run_size + size <= ceiling:
                    run.append(shard)
                    run_size += size
                    continue
                if len(run) >= 2:
                    groups.append(run)
                if size < floor:
                    run, run_size = [shard], size
                else:
                    run, run_size = [], 0
            if len(run) >= 2:
                groups.append(run)
            for group in groups:
                if remaining < len(group):
                    # Merge the prefix that fits (a merged prefix is still a
                    # valid, strictly better layout) and defer the rest.
                    take = int(remaining)
                    if take < 2:
                        deferred += len(group)
                        continue
                    deferred += len(group) - take
                    group = group[:take]
                merged = self._merge_shards(group)
                for shard in group:
                    del self._shards[shard.key]
                self._adopt(merged)
                merged_sources += len(group)
                remaining -= len(group)
        if split_sources or merged_sources:
            self._compactions += 1
            self._shards_split += split_sources
            self._shards_merged += merged_sources
            self._rebuild_ranges()
        sizes = sorted(len(shard.store) for shard in self._shards.values())
        return {
            "shards_before": float(shards_before),
            "shards_after": float(len(self._shards)),
            "shards_split": float(split_sources),
            "shards_merged": float(merged_sources),
            "shards_deferred": float(deferred),
            "max_shard_size": float(sizes[-1] if sizes else 0),
            "median_shard_size": float(sizes[len(sizes) // 2] if sizes else 0),
        }

    # ------------------------------------------------------------ persistence
    def save(self, path) -> None:
        """Persist to a directory: one mmap-able ``arena.bin`` + ``manifest.json``.

        The arena lays every shard's scoring payload — including the cached
        squared norms — into a single aligned file, so :meth:`load`
        memory-maps it instead of materializing per-shard arrays; pages
        fault in lazily as queries actually scan shards.  ``manifest.json``
        records the block layout plus the JSON-only metadata (ids, texts,
        category table, day ranges).

        Both files are written to temporaries beside their targets and
        renamed into place.  That makes saving a loaded index back to its
        own directory safe: its shards are views into the old
        ``arena.bin``, which stays mapped and intact after the rename
        unlinks it, instead of being truncated under the views.

        Accepts ``str`` or :class:`pathlib.Path`.
        """
        path = os.fspath(path)
        os.makedirs(path, exist_ok=True)
        payloads = []
        for key in sorted(self._shards):
            data = self._shards[key].data()
            payloads.append(
                (key, {
                    "matrix": data.matrix, "days": data.days,
                    "sq_norms": data.sq_norms, "seqs": data.seqs,
                    "codes": data.codes,
                })
            )
        arena_path = os.path.join(path, ARENA_FILENAME)
        manifest_path = os.path.join(path, SHARDED_MANIFEST)
        arena_temp = arena_path + ".tmp"
        manifest_temp = manifest_path + ".tmp"
        try:
            arena = ShardArena.build(payloads, arena_temp)
            blocks_meta = [
                {
                    "key": block.key,
                    "rows": block.rows,
                    "dim": block.dim,
                    "offsets": [[name, offset] for name, offset in block.offsets],
                }
                for block in arena.spec.blocks
            ]
            arena_size = arena.spec.size
            arena.close()
            code_to_name = {code: name for name, code in self._cat_code.items()}
            shards_meta = []
            for key in sorted(self._shards):
                shard = self._shards[key]
                shards_meta.append(
                    {
                        "key": key,
                        "start_day": shard.start_day,
                        "end_day": shard.end_day,
                        "min_day": shard.min_day,
                        "max_day": shard.max_day,
                        "ids": [entry.incident_id for entry in shard.store],
                        "texts": [entry.text for entry in shard.store],
                    }
                )
            manifest = {
                "format": "sharded-vector-index",
                "version": 3,
                "window_days": self.window_days,
                "next_seq": self._next_seq,
                "next_shard_key": self._next_shard_key,
                "dim": self._dim,
                "categories": [code_to_name[code] for code in range(len(code_to_name))],
                "arena": {
                    "file": ARENA_FILENAME,
                    "size": arena_size,
                    "blocks": blocks_meta,
                },
                "shards": shards_meta,
            }
            with open(manifest_temp, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(arena_temp, arena_path)
            os.replace(manifest_temp, manifest_path)
        finally:
            for temp in (arena_temp, manifest_temp):
                if os.path.exists(temp):
                    os.remove(temp)

    @classmethod
    def load(
        cls,
        path,
        similarity: Optional[SimilarityConfig] = None,
        max_workers: Optional[int] = None,
        compaction: Optional[CompactionPolicy] = None,
    ) -> "ShardedVectorIndex":
        """Re-open an index written by :meth:`save`.

        Memory-maps the ``arena.bin`` payload: shard arrays are views into
        the mapping, zero copies, and stores go copy-on-grow on the first
        subsequent insert.

        Raises :class:`~repro.core.errors.IndexCorruptionError` — a typed,
        permanent failure — whenever the on-disk state is corrupt, partial
        or unreadable: undecodable or structurally invalid
        ``manifest.json``, a manifest version other than 3, an
        ``arena.bin`` shorter than the manifest claims, or shard metadata
        that does not reconstruct.  A missing manifest stays a plain
        ``FileNotFoundError`` (absent, not corrupt).  Callers that must
        survive corruption go through
        :func:`repro.chaos.load_index_resilient`, which falls back to a
        rebuild-from-store callback.
        """
        path = os.fspath(path)
        manifest_path = os.path.join(path, SHARDED_MANIFEST)
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            raise
        except (json.JSONDecodeError, UnicodeDecodeError, OSError, ValueError) as exc:
            raise IndexCorruptionError(
                f"corrupt manifest at {manifest_path}: {exc}"
            ) from exc
        if not isinstance(manifest, dict):
            raise IndexCorruptionError(
                f"corrupt manifest at {manifest_path}: not a JSON object"
            )
        if manifest.get("format") != "sharded-vector-index":
            raise IndexCorruptionError(f"not a sharded vector index: {path}")
        if manifest.get("version") != 3:
            raise IndexCorruptionError(
                f"unsupported manifest version {manifest.get('version')!r} at "
                f"{manifest_path} (only version 3 is readable)"
            )
        try:
            return cls._load_from_manifest(
                path,
                manifest,
                similarity=similarity,
                max_workers=max_workers,
                compaction=compaction,
            )
        except IndexCorruptionError:
            raise
        except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
            raise IndexCorruptionError(f"corrupt index at {path}: {exc}") from exc

    @classmethod
    def _load_from_manifest(
        cls,
        path: str,
        manifest: dict,
        similarity: Optional[SimilarityConfig],
        max_workers: Optional[int],
        compaction: Optional[CompactionPolicy],
    ) -> "ShardedVectorIndex":
        """Reconstruct an index from a decoded v3 manifest (see :meth:`load`)."""
        index = cls(
            similarity=similarity,
            window_days=float(manifest["window_days"]),
            max_workers=max_workers,
            compaction=compaction,
        )
        # Seed the category code table in the exact order it was saved so
        # stored per-row codes stay valid.
        table = list(manifest["categories"])
        for name in table:
            index._code_for(name)
        blocks = tuple(
            BlockSpec(
                key=int(meta["key"]),
                rows=int(meta["rows"]),
                dim=int(meta["dim"]),
                offsets=tuple(
                    (str(name), int(offset)) for name, offset in meta["offsets"]
                ),
            )
            for meta in manifest["arena"]["blocks"]
        )
        arena_file = os.path.abspath(os.path.join(path, manifest["arena"]["file"]))
        arena_size = int(manifest["arena"]["size"])
        # A partial write (crashed save, torn copy) leaves the arena shorter
        # than the manifest's block layout expects; mmap'ing it anyway would
        # fault lazily on first scan of the missing pages, so fail fast with
        # the typed corruption error instead.
        try:
            actual_size = os.path.getsize(arena_file)
        except OSError as exc:
            raise IndexCorruptionError(
                f"missing arena file {arena_file}: {exc}"
            ) from exc
        if actual_size < arena_size:
            raise IndexCorruptionError(
                f"partial arena file {arena_file}: {actual_size} bytes on "
                f"disk, manifest expects {arena_size}"
            )
        arena = ShardArena.attach(
            ArenaSpec(path=arena_file, size=arena_size, blocks=blocks)
        )
        for meta in manifest["shards"]:
            key = int(meta["key"])
            views = arena.views(key)
            codes = [int(code) for code in views["codes"]]
            categories = [table[code] for code in codes]
            store = VectorStore.wrap(
                matrix=views["matrix"],
                created_days=views["days"],
                sq_norms=views["sq_norms"],
                incident_ids=meta["ids"],
                categories=categories,
                texts=meta["texts"],
            )
            shard = _Shard(
                key,
                index._similarity,
                start_day=float(meta["start_day"]),
                end_day=float(meta["end_day"]),
            )
            shard.store = store
            shard.seqs = [int(seq) for seq in views["seqs"]]
            shard.cat_codes = codes
            shard.cat_counts = Counter(categories)
            shard.min_day = float(meta["min_day"])
            shard.max_day = float(meta["max_day"])
            for incident_id in meta["ids"]:
                index._locator[incident_id] = key
            index._shards[key] = shard
            if store.dim is not None:
                index._dim = store.dim
        if index._dim is None and manifest.get("dim") is not None:
            index._dim = int(manifest["dim"])
        index._arena = arena
        index._next_seq = int(manifest["next_seq"])
        index._next_shard_key = int(manifest["next_shard_key"])
        index._rebuild_ranges()
        return index

    # ------------------------------------------------------------------ stats
    def stats(self) -> Dict[str, float]:
        """Layout and scan statistics.

        ``scanned_shard_ratio`` / ``scanned_entry_ratio`` are cumulative over
        the index lifetime: the fraction of (query, shard) and (query, entry)
        pairs that were actually scored rather than skipped or pruned.  All
        counters are accumulated on the thread calling ``search_many`` —
        workers only extract candidates and return them by value — so
        parallel and sequential scans report identical numbers.
        """
        sizes = sorted(len(shard.store) for shard in self._shards.values())
        return {
            "entries": float(len(self._locator)),
            "shard_count": float(len(self._shards)),
            "max_shard_size": float(sizes[-1] if sizes else 0),
            "median_shard_size": float(sizes[len(sizes) // 2] if sizes else 0),
            "max_workers": float(self._effective_workers()),
            "compactions": float(self._compactions),
            "shards_merged": float(self._shards_merged),
            "shards_split": float(self._shards_split),
            "queries": float(self._queries),
            "shards_considered": float(self._shards_considered),
            "shards_scanned": float(self._shards_scanned),
            "shards_pruned": float(self._shards_pruned),
            "shards_skipped": float(self._shards_skipped),
            "entries_scanned": float(self._entries_scanned),
            "scanned_shard_ratio": (
                self._shards_scanned / self._shards_considered
                if self._shards_considered
                else 0.0
            ),
            "scanned_entry_ratio": (
                self._entries_scanned / self._entries_considered
                if self._entries_considered
                else 0.0
            ),
        }
