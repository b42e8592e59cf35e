"""Configuration of the RCACopilot pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from ..vectordb import DEFAULT_ALPHA, DEFAULT_K, CompactionPolicy
from .autoscale import AutoscalePolicy


class ContextSource(str, Enum):
    """Prompt context sources used by the Table 3 ablation."""

    ALERT_INFO = "alert_info"
    DIAGNOSTIC_INFO = "diagnostic_info"
    SUMMARIZED_DIAGNOSTIC_INFO = "summarized_diagnostic_info"
    ACTION_OUTPUT = "action_output"


@dataclass
class PredictionConfig:
    """Knobs of the root cause prediction stage."""

    #: Number of neighbour demonstrations in the CoT prompt (paper: K = 5).
    k: int = DEFAULT_K
    #: Temporal decay coefficient of the similarity formula (paper: 0.3).
    alpha: float = DEFAULT_ALPHA
    #: Draw the K demonstrations from distinct categories.
    diverse_categories: bool = True
    #: Summarize diagnostic information before prompting (Section 4.2.3).
    summarize: bool = True
    #: Context sources concatenated into the prompt input (Table 3).
    context_sources: tuple = (ContextSource.SUMMARIZED_DIAGNOSTIC_INFO,)
    #: Summary word budget.
    summary_min_words: int = 120
    summary_max_words: int = 140

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if not self.context_sources:
            raise ValueError("at least one context source is required")


@dataclass
class CollectionConfig:
    """Knobs of the diagnostic information collection stage."""

    #: How far back from the alert the telemetry queries look, in seconds.
    lookback_seconds: float = 3600.0
    #: Whether execution failures should raise (True) or degrade to an
    #: alert-info-only report (False), as the production system does.
    strict: bool = False
    #: Team freshly parsed incidents are routed to when the alert carries no
    #: routing information (the paper's deployment started with Exchange's
    #: Transport team before expanding to other teams).
    default_owning_team: str = "Transport"
    #: Wall-clock budget for one handler execution, in seconds (None = no
    #: budget).  Checked between action steps, so a runaway handler stops at
    #: the next node boundary with a
    #: :class:`~repro.handlers.HandlerExecutionError` instead of occupying a
    #: collection worker forever.
    handler_wall_budget_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.lookback_seconds <= 0:
            raise ValueError("lookback_seconds must be positive")
        if (
            self.handler_wall_budget_seconds is not None
            and self.handler_wall_budget_seconds <= 0
        ):
            raise ValueError("handler_wall_budget_seconds must be positive (or None)")


@dataclass
class IndexConfig:
    """Knobs of the retrieval index behind the prediction stage.

    The index backend is pluggable (the :class:`~repro.vectordb.VectorIndex`
    protocol): ``sharded`` — the default — partitions the history into
    time-window shards, prunes temporally irrelevant shards per query with
    an exact score bound, scores eligible shards on a thread pool, and
    self-compacts skewed layouts; ``flat`` keeps the whole history in one
    matrix.  Both return identical neighbours; ``sharded`` scales retrieval
    to multi-100k histories.  Four knobs: the backend, the shard width, the
    scoring pool size and the compaction policy.
    """

    #: Index layout: ``sharded`` (time windows, the default) or ``flat``
    #: (single matrix).
    backend: str = "sharded"
    #: Width of each time-window shard, in days (sharded backend only).
    #: None (the default) derives it from the indexed history's
    #: :meth:`~repro.incidents.IncidentStore.shard_counts`, targeting a
    #: median shard size (see :func:`~repro.core.prediction.select_window_days`).
    window_days: Optional[float] = None
    #: Worker threads scoring a scan wave's shards concurrently (sharded
    #: backend only).  None picks the machine's core count (capped at 16,
    #: since a wave submits one task per nominated shard); 1 forces the
    #: sequential path.  Results are identical either way.
    max_workers: Optional[int] = None
    #: Shard merge/split thresholds and the auto-compaction trigger
    #: (sharded backend only); None uses :class:`CompactionPolicy` defaults
    #: (compaction available via ``compact()`` but not auto-triggered).
    compaction: Optional[CompactionPolicy] = None

    def __post_init__(self) -> None:
        if self.backend not in ("flat", "sharded"):
            raise ValueError(
                f"unknown index backend: {self.backend!r} (expected 'flat' or 'sharded')"
            )
        if self.window_days is not None and self.window_days <= 0:
            raise ValueError("window_days must be positive")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be positive (or None for auto)")


@dataclass
class IngestConfig:
    """Knobs of the streaming micro-batch ingestion front.

    A continuous alert stream is grouped into ``observe_many`` batches
    automatically: a batch is flushed as soon as it reaches ``max_batch``
    alerts or the oldest queued alert has waited ``max_latency_seconds``.

    Within a flushed micro-batch the *collection* phase (alert parsing +
    handler action graphs — log pulls, probe queries, correlation lookups)
    can run concurrently on a worker pool while the *prediction* phase stays
    batched: ``collect_workers`` sizes the pool and ``collect_backend``
    picks threads (I/O-bound handlers; the default) or processes
    (pure-Python-heavy handlers; requires serializable handlers).  Outcomes
    are folded back in submission order before the single batched
    ``predict_many`` call, so reports, feedback routing, and ingest counters
    are identical to the serial path.

    With ``pipeline_depth`` >= 2 the two phases run as a double-buffered
    pipeline: while wave N's prediction runs on a dedicated single-slot
    prediction executor, the flushing thread already collects wave N+1 on
    the worker pool.  Predictions stay strictly serialized in submission
    order (wave N's feedback/index updates commit before wave N+1's
    prediction reads the index), so reports, feedback effects, and ingest
    counters remain value-identical to the barrier execution — the pipeline
    only removes the inter-wave stall.  ``predict_chunk_size`` additionally
    overlaps work *inside* the prediction phase: the batch is predicted in
    chunks so chunk k+1's embedding/retrieval runs while chunk k's LLM
    calls are in flight.
    """

    #: Flush as soon as this many alerts are queued.
    max_batch: int = 16
    #: Flush when the oldest queued alert has waited this long, in seconds.
    max_latency_seconds: float = 0.05
    #: Bounded queue capacity; submissions beyond it block or fail.
    queue_capacity: int = 1024
    #: When the queue is full: block the submitter (True, backpressure) or
    #: raise :class:`~repro.core.errors.IngestQueueFull` (False, load shed).
    block_when_full: bool = True
    #: Collection worker pool size: None runs collection serially inside the
    #: flushing thread (the pre-pool behaviour), N >= 1 fans each
    #: micro-batch's parse+collect calls out to N workers.
    collect_workers: Optional[int] = None
    #: Worker pool backend: ``thread`` (default — handler queries release
    #: the GIL on I/O and the telemetry hub is shared read-only) or
    #: ``process`` (pure-Python-heavy handlers; handlers are shipped through
    #: their JSON serialization, so script actions and unregistered
    #: classifiers cannot cross the process boundary).
    collect_backend: str = "thread"
    #: Utilization-driven autoscaling of the collection pool: an
    #: :class:`~repro.core.autoscale.AutoscalePolicy` enables the control
    #: loop (grow on sustained high utilization, shrink when idle,
    #: hysteresis + cooldown against flapping; resizes only at batch
    #: boundaries, so reports and counters stay identical to a static
    #: pool).  None (the default) keeps the pool at ``collect_workers``.
    autoscale: Optional[AutoscalePolicy] = None
    #: Autoscaler floor: the pool never shrinks below this many workers.
    collect_workers_min: int = 1
    #: Autoscaler ceiling: the pool never grows beyond this many workers.
    collect_workers_max: int = 8
    #: Micro-batches in flight at once: 1 (the default) is the classic
    #: barrier execution — collect and predict of one wave finish before the
    #: next wave starts; N >= 2 double-buffers the two phases, overlapping
    #: wave N's prediction with the collection of up to N-1 later waves
    #: (collect results hand off through a bounded in-flight slot with
    #: backpressure).  Reports, feedback effects, and ingest counters are
    #: identical at every depth.
    pipeline_depth: int = 1
    #: Chunk size of the prediction phase: None (the default) predicts the
    #: whole micro-batch in one pass; N >= 1 splits it so chunk k+1's
    #: embedding/retrieval overlaps chunk k's LLM calls.  Cross-chunk LLM
    #: deduplication is preserved (chunks pre-split on the prompt content
    #: key), so predictions are identical at every chunk size.
    predict_chunk_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if self.max_latency_seconds <= 0:
            raise ValueError("max_latency_seconds must be positive")
        if self.queue_capacity <= 0:
            raise ValueError("queue_capacity must be positive")
        if self.collect_workers is not None and self.collect_workers < 1:
            raise ValueError("collect_workers must be positive (or None for serial)")
        if self.collect_backend not in ("thread", "process"):
            raise ValueError(
                f"unknown collect backend: {self.collect_backend!r} "
                "(expected 'thread' or 'process')"
            )
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be positive")
        if self.predict_chunk_size is not None and self.predict_chunk_size < 1:
            raise ValueError("predict_chunk_size must be positive (or None)")
        if self.collect_workers_min < 1:
            raise ValueError("collect_workers_min must be positive")
        if self.collect_workers_max < self.collect_workers_min:
            raise ValueError("collect_workers_max must be >= collect_workers_min")
        if self.autoscale is not None and self.collect_workers is not None:
            if not (
                self.collect_workers_min
                <= self.collect_workers
                <= self.collect_workers_max
            ):
                raise ValueError(
                    "with autoscaling enabled, collect_workers is the starting "
                    "size and must lie within "
                    "[collect_workers_min, collect_workers_max]"
                )

    def initial_collect_workers(self) -> Optional[int]:
        """The pool size an ingestor starts with under this config.

        ``collect_workers`` when set; with autoscaling enabled and no
        explicit start, the autoscaler's floor (the loop grows from there).
        """
        if self.collect_workers is not None:
            return self.collect_workers
        if self.autoscale is not None:
            return self.collect_workers_min
        return None


@dataclass
class PipelineConfig:
    """Top-level configuration of the on-call system."""

    collection: CollectionConfig = field(default_factory=CollectionConfig)
    prediction: PredictionConfig = field(default_factory=PredictionConfig)
    index: IndexConfig = field(default_factory=IndexConfig)
    ingest: IngestConfig = field(default_factory=IngestConfig)
    #: Embedding backend: ``fasttext`` (paper default) or ``hashed`` (the
    #: GPT-4 Embed. variant stand-in).
    embedding_backend: str = "fasttext"

    def __post_init__(self) -> None:
        if self.embedding_backend not in ("fasttext", "hashed"):
            raise ValueError(
                f"unknown embedding backend: {self.embedding_backend!r} "
                "(expected 'fasttext' or 'hashed')"
            )
