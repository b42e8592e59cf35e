"""Multi-tenant routing over the pipeline's ingestion, collection and retrieval.

One RCACopilot deployment typically serves several teams ("tenants") whose
alert streams differ wildly in volume and whose retrieval histories must
not bleed into each other.  :class:`TenantRouter` is the multi-tenant
ingestion front: one shared
:class:`~repro.core.collect_pool.CollectionPool` (handler execution has
no per-tenant state beyond the incident id), one retrieval namespace per
tenant (each tenant's own index over its own history, aggregated through
a :class:`~repro.vectordb.NamespacedIndexMap`), and a single
:class:`~repro.core.streaming.StreamIngestor` face that routes between
them.

Three properties define the router:

* **Isolation** — each tenant gets its own incident-id space, incident
  history, embedding index, and feedback loop; a quota breach on tenant A
  (:class:`TenantQueueFull`) sheds only A's traffic, never B's, and a
  fault in A's handlers fails only A's futures.
* **Fair share** — pending alerts are composed into shared micro-batches
  by deficit round-robin (:class:`TenantQueue`): each tenant is served up
  to its quantum (``TenantQuota.weight``) per ring visit, so a bursty
  tenant cannot starve steady ones, and a tenant at its ``max_inflight``
  cap is *skipped* (its alerts stay queued) rather than shed.
* **Shared economies** — tenants share the collection pool, the
  content-addressed summary cache, and (for stateless embedders) the
  embedding cache; the prediction phase composes every tenant's slice of
  a wave into **one** deduplicated LLM batch
  (:func:`~repro.core.prediction.predict_many_grouped`), so an incident
  storm hitting several tenants with identical content costs one
  completion, while each tenant's neighbours still come from its own
  index.

Reports, feedback effects, and index state per tenant are identical to
running that tenant through its own single-tenant
:class:`~repro.core.streaming.StreamIngestor` over the same clock — the
parity property the test suite checks; batching only changes *cost*, never
results.

Quota semantics: ``max_queue_depth`` bounds a tenant's *queued* alerts —
the cap is enforced at submit time and always sheds
(:class:`TenantQueueFull`), regardless of the base config's
``block_when_full`` (blocking one tenant's producer on its own quota would
be indistinguishable from backpressure caused by *other* tenants, which is
exactly what quotas exist to prevent).  ``max_inflight`` bounds a tenant's
alerts concurrently dequeued into waves — the scheduler defers the tenant
until earlier waves retire, without shedding.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence, Tuple

from ..incidents import Incident, IncidentStore
from ..monitors import Alert
from ..telemetry import TelemetryHub
from ..vectordb import NamespacedIndexMap
from ..core.clock import Clock
from ..core.collect_pool import CollectResult
from ..core.config import IngestConfig, PipelineConfig
from ..core.errors import IngestQueueFull
from ..core.pipeline import DiagnosisReport, RCACopilot
from ..core.prediction import predict_many_grouped
from ..core.streaming import IngestStats, StreamIngestor, _Wave

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..handlers import HandlerRegistry
    from ..llm import ChatModel

#: Tenant alerts are routed to when the caller names none.
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission and scheduling limits.

    ``max_queue_depth`` caps the tenant's queued-but-not-yet-dequeued
    alerts; a submit beyond it sheds with :class:`TenantQueueFull` (None =
    unbounded, up to the router's global queue capacity).  ``max_inflight``
    caps the tenant's alerts concurrently dequeued into waves; the
    scheduler skips the tenant while at the cap (None = unbounded).
    ``weight`` is the deficit-round-robin quantum — how many alerts the
    tenant may contribute per scheduler ring visit; tenants with weight 2
    get twice the batch share of weight-1 tenants under contention.
    """

    max_queue_depth: Optional[int] = None
    max_inflight: Optional[int] = None
    weight: int = 1

    def __post_init__(self) -> None:
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be positive (or None)")
        if self.max_inflight is not None and self.max_inflight < 1:
            # 0 would park the tenant's alerts forever and deadlock
            # stop()'s drain loop.
            raise ValueError("max_inflight must be positive (or None)")
        if self.weight < 1:
            raise ValueError("weight must be positive")


class TenantQueueFull(IngestQueueFull):
    """A tenant's quota (or the router's global capacity) shed a submit.

    Tenant-scoped load shed: carries the tenant whose traffic was shed so
    callers can back off *that* stream; other tenants' submissions are
    unaffected by construction.  For burst submits, ``enqueued`` carries
    the already-queued prefix's futures, as in the base class.
    """

    def __init__(self, message: str, tenant: str, enqueued=None) -> None:
        super().__init__(message, enqueued=enqueued)
        #: The tenant whose submit was shed.
        self.tenant = tenant


class _Lane:
    """One tenant's scheduler state inside :class:`TenantQueue`."""

    __slots__ = ("quota", "pending", "inflight", "credits")

    def __init__(self, quota: TenantQuota) -> None:
        self.quota = quota
        self.pending: Deque[Tuple[Alert, Future]] = deque()
        self.inflight = 0
        self.credits = quota.weight

    def capped(self) -> bool:
        return (
            self.quota.max_inflight is not None
            and self.inflight >= self.quota.max_inflight
        )


class TenantQueue:
    """Deficit-round-robin queue discipline over per-tenant lanes.

    Duck-types the subset of :class:`queue.Queue` the ingestion machinery
    touches — ``get(timeout=...)``, ``get_nowait()``, ``qsize()``,
    ``empty()`` (the :meth:`~repro.core.clock.Clock.wait_queue` contract
    plus the flush/stop drain paths) — while replacing FIFO order with
    fair-share scheduling: each registered tenant owns a lane, and a
    dequeue serves the ring cursor's tenant until its quantum
    (``quota.weight``) or backlog is exhausted, then advances.  A tenant at
    its ``max_inflight`` cap is skipped (items stay queued); the lane's
    inflight count rises on dequeue and falls on :meth:`task_done`, which
    wakes any parked consumer — including one parked on a virtual clock.

    ``put_item`` (tenant-aware; there is no tenant-less ``put``) enforces
    the tenant's ``max_queue_depth`` and the global capacity, shedding with
    :class:`TenantQueueFull`.
    """

    def __init__(self, clock: Clock, capacity: int = 0) -> None:
        self._clock = clock
        self._capacity = capacity
        self._mutex = threading.Lock()
        self._not_empty = threading.Condition(self._mutex)
        self._lanes: Dict[str, _Lane] = {}
        self._ring: List[str] = []
        self._cursor = 0
        self._total = 0

    # -------------------------------------------------------------- tenants
    def register(self, tenant: str, quota: TenantQuota) -> None:
        """Add a tenant lane (or update an existing lane's quota)."""
        with self._mutex:
            lane = self._lanes.get(tenant)
            if lane is None:
                self._lanes[tenant] = _Lane(quota)
                self._ring.append(tenant)
            else:
                lane.quota = quota
                lane.credits = min(lane.credits, quota.weight)

    def depth(self, tenant: str) -> int:
        """The tenant's queued-but-not-dequeued alert count."""
        with self._mutex:
            lane = self._lanes.get(tenant)
            return len(lane.pending) if lane is not None else 0

    def inflight(self, tenant: str) -> int:
        """The tenant's alerts currently dequeued into unretired waves."""
        with self._mutex:
            lane = self._lanes.get(tenant)
            return lane.inflight if lane is not None else 0

    # ------------------------------------------------------------------ put
    def put_item(self, tenant: str, item: Tuple[Alert, Future]) -> None:
        """Enqueue one alert on the tenant's lane, shedding over quota."""
        with self._not_empty:
            lane = self._lanes.get(tenant)
            if lane is None:
                raise KeyError(f"tenant {tenant!r} is not registered")
            if self._capacity and self._total >= self._capacity:
                raise TenantQueueFull(
                    f"ingest queue full ({self._capacity} alerts queued "
                    "across tenants)",
                    tenant=tenant,
                )
            if (
                lane.quota.max_queue_depth is not None
                and len(lane.pending) >= lane.quota.max_queue_depth
            ):
                raise TenantQueueFull(
                    f"tenant {tenant!r} ingest queue full "
                    f"({lane.quota.max_queue_depth} alerts queued)",
                    tenant=tenant,
                )
            lane.pending.append(item)
            self._total += 1
            self._not_empty.notify()

    # ------------------------------------------------------------------ get
    def _advance_locked(self) -> None:
        """Move the cursor to the next lane, refilling the one we leave."""
        lane = self._lanes[self._ring[self._cursor]]
        lane.credits = lane.quota.weight
        self._cursor = (self._cursor + 1) % len(self._ring)

    def _pop_locked(self) -> Optional[Tuple[Alert, Future]]:
        """One DRR scheduling step: pop the next fair-share item, if any.

        Returns None when every lane is empty *or* inflight-capped — the
        queue then behaves as empty toward consumers (capped backlogs are
        deferred, not shed).
        """
        if not self._ring:
            return None
        for _ in range(len(self._ring)):
            tenant = self._ring[self._cursor]
            lane = self._lanes[tenant]
            if lane.pending and lane.credits > 0 and not lane.capped():
                item = lane.pending.popleft()
                lane.inflight += 1
                lane.credits -= 1
                self._total -= 1
                if not lane.pending or lane.credits == 0:
                    self._advance_locked()
                return item
            self._advance_locked()
        return None

    def get(
        self, block: bool = True, timeout: Optional[float] = None
    ) -> Tuple[Alert, Future]:
        """Blocking DRR dequeue (the real clock's ``wait_queue`` path)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._not_empty:
            while True:
                item = self._pop_locked()
                if item is not None:
                    return item
                if not block:
                    raise queue.Empty
                if deadline is None:
                    self._not_empty.wait()
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise queue.Empty
                self._not_empty.wait(remaining)

    def get_nowait(self) -> Tuple[Alert, Future]:
        """Non-blocking DRR dequeue (virtual clock and flush drain paths)."""
        with self._mutex:
            item = self._pop_locked()
        if item is None:
            raise queue.Empty
        return item

    def task_done(self, tenant: str) -> None:
        """Retire one dequeued item of a tenant, freeing inflight capacity.

        Wakes blocked consumers twice over: the condition for real-clock
        ``get`` waiters, and the clock for a worker parked on a virtual
        clock's sleep — a freed cap may make deferred backlog schedulable.
        """
        with self._not_empty:
            lane = self._lanes.get(tenant)
            if lane is not None and lane.inflight > 0:
                lane.inflight -= 1
            self._not_empty.notify_all()
        self._clock.wake()

    # ---------------------------------------------------------------- depth
    def qsize(self) -> int:
        with self._mutex:
            return self._total

    def empty(self) -> bool:
        with self._mutex:
            return self._total == 0


class _TenantState:
    """One tenant's service bindings (guarded by the router's tenant lock)."""

    __slots__ = ("copilot", "quota")

    def __init__(self, copilot: RCACopilot, quota: TenantQuota) -> None:
        self.copilot = copilot
        self.quota = quota


class TenantRouter(StreamIngestor):
    """Fair-share multi-tenant front over the shared pipeline stages.

    Subclasses :class:`~repro.core.streaming.StreamIngestor`, inheriting
    the worker loop, flush window, pipelined execution, autoscaling, and
    stop/drain machinery unchanged; the base class's FIFO queue is replaced
    by a :class:`TenantQueue` (deficit-round-robin lanes with per-tenant
    quotas) and the per-wave hooks are overridden to route incident ids,
    prediction, stats, and telemetry per tenant.

    The substrate copilot built internally serves only as the shared
    collection service (its :class:`~repro.core.collection.CollectionStage`
    backs the collection pool; alert parsing against a pre-reserved id
    touches no shared state).  Each registered tenant gets its own
    :class:`~repro.core.pipeline.RCACopilot` sharing the hub, registry,
    model, config, and clock — plus the router-wide summary cache, so one
    tenant's summarization warms another's identical content — while
    history, incident-id counter, feedback loop, and retrieval index stay
    tenant-private.  Tenants are created lazily on first submit (with
    ``default_quota``) or explicitly via :meth:`register`.
    """

    def __init__(
        self,
        hub: TelemetryHub,
        registry: Optional["HandlerRegistry"] = None,
        model: Optional["ChatModel"] = None,
        config: Optional[PipelineConfig] = None,
        ingest: Optional[IngestConfig] = None,
        clock: Optional[Clock] = None,
        default_quota: Optional[TenantQuota] = None,
    ) -> None:
        substrate = RCACopilot(
            hub, registry=registry, model=model, config=config, clock=clock
        )
        super().__init__(substrate, config=ingest, clock=substrate.clock)
        self.default_quota = default_quota or TenantQuota()
        #: The DRR queue replaces the FIFO queue built by the base
        #: constructor; every base code path reaches it through
        #: ``self._queue``'s duck-typed get/qsize/empty surface.
        self._tqueue = TenantQueue(
            clock=self._clock, capacity=self.config.queue_capacity
        )
        self._queue = self._tqueue  # type: ignore[assignment]
        #: Guards the tenant map (lazy registration races submit calls).
        self._tenants_lock = threading.Lock()
        self._tenants: Dict[str, _TenantState] = {}
        #: future -> tenant routing, plus the per-tenant counters; all
        #: guarded by the base ``_stats_lock`` so per-tenant and global
        #: stats move together in every locked snapshot
        #: (``processed <= submitted`` holds per tenant, not just globally).
        self._tenant_of: Dict[Future, str] = {}
        self._tenant_stats: Dict[str, IngestStats] = {}
        self._tenant_shed: Dict[str, int] = {}
        #: Content-addressed summary cache shared by every tenant's
        #: prediction stage: the summarizer is deterministic by content, so
        #: sharing changes cost, never results.
        self._shared_summary_cache: Dict[str, str] = {}
        #: Embedding cache shared only between stages whose embedder is
        #: stateless (no ``fit``): a fitted embedder's vectors depend on
        #: the tenant's own history, so those caches must stay private.
        self._shared_embedding_cache: Dict[str, object] = {}
        #: Aggregate retrieval view: each tenant's live index is attached
        #: under its tenant id when the tenant indexes history.
        self.retrieval = NamespacedIndexMap()

    # -------------------------------------------------------------- tenants
    def register(
        self,
        tenant: str,
        quota: Optional[TenantQuota] = None,
        history: Optional[IncidentStore] = None,
    ) -> RCACopilot:
        """Create (or re-quota) a tenant; returns the tenant's copilot.

        Idempotent: re-registering keeps the existing copilot and its
        state; an explicit ``quota`` updates the tenant's lane.  With
        ``history``, the tenant's index is built immediately (otherwise
        call :meth:`index_history` later; an unindexed tenant's reports
        carry no prediction, exactly as an unindexed single-tenant
        pipeline's do).
        """
        if not tenant:
            raise ValueError("tenant id must be non-empty")
        effective = quota if quota is not None else self.default_quota
        copilot = RCACopilot(
            self.hub,
            registry=self.copilot.registry,
            model=self.copilot.model,
            config=self.copilot.config,
            clock=self._clock,
        )
        stage = copilot.prediction
        stage._summary_cache = self._shared_summary_cache  # noqa: SLF001 - intra-package
        if not hasattr(stage.embedder, "fit"):
            stage._embedding_cache = self._shared_embedding_cache  # noqa: SLF001
        with self._tenants_lock:
            state = self._tenants.get(tenant)
            if state is None:
                state = _TenantState(copilot, effective)
                self._tenants[tenant] = state
            elif quota is not None:
                state.quota = effective
        with self._stats_lock:
            self._tenant_stats.setdefault(tenant, IngestStats())
            self._tenant_shed.setdefault(tenant, 0)
        self._tqueue.register(tenant, state.quota)
        if history is not None:
            self.index_history(tenant, history)
        return state.copilot

    def _ensure_tenant(self, tenant: str) -> _TenantState:
        with self._tenants_lock:
            state = self._tenants.get(tenant)
        if state is not None:
            return state
        self.register(tenant)
        with self._tenants_lock:
            return self._tenants[tenant]

    def tenant_ids(self) -> List[str]:
        """The registered tenants, sorted."""
        with self._tenants_lock:
            return sorted(self._tenants)

    def tenant_copilot(self, tenant: str) -> RCACopilot:
        """The tenant's private pipeline (history, index, feedback loop)."""
        return self._ensure_tenant(tenant).copilot

    def index_history(self, tenant: str, history: IncidentStore) -> None:
        """Build the tenant's retrieval index, serialized with the stream."""
        state = self._ensure_tenant(tenant)
        with self._lock:
            state.copilot.index_history(history)
            index = state.copilot.prediction.index
            if index is not None:
                self.retrieval.attach(tenant, index)

    # --------------------------------------------------------------- submit
    def submit(  # type: ignore[override]
        self, alert: Alert, tenant: str = DEFAULT_TENANT
    ) -> "Future[DiagnosisReport]":
        """Queue one alert on the tenant's lane.

        Sheds with :class:`TenantQueueFull` when the tenant's
        ``max_queue_depth`` (or the router's global capacity) is reached —
        tenant quotas always shed rather than block, so one tenant's
        producer can never be stalled by its own quota in a way it cannot
        distinguish from cross-tenant backpressure.
        """
        self._ensure_tenant(tenant)
        future: "Future[DiagnosisReport]" = Future()
        # Count (and route) before enqueueing, exactly as the base submit
        # does: once queued, a concurrent flush may process the item
        # immediately, and both the global and the tenant's snapshot must
        # never show processed > submitted nor an unroutable future.
        with self._stats_lock:
            self._ingest_stats.submitted += 1
            self._tenant_stats[tenant].submitted += 1
            self._tenant_of[future] = tenant
        try:
            self._tqueue.put_item(tenant, (alert, future))
        except TenantQueueFull:
            with self._stats_lock:
                self._ingest_stats.submitted -= 1
                self._tenant_stats[tenant].submitted -= 1
                self._tenant_shed[tenant] += 1
                del self._tenant_of[future]
            raise
        with self._stats_lock:
            self._ingest_stats.max_queue_depth = max(
                self._ingest_stats.max_queue_depth, self._tqueue.qsize()
            )
            stats = self._tenant_stats[tenant]
            stats.max_queue_depth = max(
                stats.max_queue_depth, self._tqueue.depth(tenant)
            )
        return future

    def submit_many(  # type: ignore[override]
        self, alerts: Sequence[Alert], tenant: str = DEFAULT_TENANT
    ) -> List["Future[DiagnosisReport]"]:
        """Queue a burst for one tenant, one future per alert.

        On quota shed mid-burst the raised :class:`TenantQueueFull` carries
        the already-enqueued prefix's futures (``exc.enqueued``); that
        prefix stays queued and resolves at the next flush.
        """
        futures: List["Future[DiagnosisReport]"] = []
        try:
            for alert in alerts:
                futures.append(self.submit(alert, tenant=tenant))
        except TenantQueueFull as exc:
            exc.enqueued = list(futures)
            self._clock.wake()
            raise
        if futures:
            self._clock.wake()
        return futures

    # ------------------------------------------------------------- feedback
    def record_feedback(  # type: ignore[override]
        self,
        incident: Incident,
        confirmed_category: str,
        tenant: Optional[str] = None,
    ) -> None:
        """Fold OCE feedback into the owning tenant's history and index.

        The tenant is taken from the argument, else from
        ``incident.owning_tenant`` (stamped on every incident the router
        diagnoses), else the default tenant.  Serialized with the stream
        exactly as the single-tenant path is: the correction is visible to
        every wave whose prediction starts after this returns.
        """
        resolved = tenant or incident.owning_tenant or DEFAULT_TENANT
        state = self._ensure_tenant(resolved)
        with self._lock:
            state.copilot.record_feedback(incident, confirmed_category)

    # ----------------------------------------------------------- wave hooks
    def _tenant_for(self, future: Future) -> str:
        with self._stats_lock:
            return self._tenant_of.get(future, DEFAULT_TENANT)

    def _retire_future(self, future: Future) -> None:
        """Drop a future's routing entry and release its inflight slot.

        Idempotent — the containment path may retire a batch whose finish
        path already retired some items; the pop makes the second retire a
        no-op.
        """
        with self._stats_lock:
            tenant = self._tenant_of.pop(future, None)
        if tenant is not None:
            self._tqueue.task_done(tenant)

    def _collect_wave(
        self, items: List[Tuple[Alert, Future]], reason: str
    ) -> Optional[_Wave]:
        wave = super()._collect_wave(items, reason)
        # Items whose futures were cancelled while queued are dropped from
        # the wave by the base class; retire them here or their tenants'
        # inflight slots would leak.
        kept = (
            {id(future) for _, future in wave.items} if wave is not None else set()
        )
        for _, future in items:
            if id(future) not in kept:
                self._retire_future(future)
        return wave

    def _reserve_incident_ids(
        self, items: List[Tuple[Alert, Future]]
    ) -> List[str]:
        """Draw each alert's incident id from its tenant's own counter.

        Tenant-private id spaces: the ids a tenant sees are exactly the
        ids it would see running alone (``INC-LIVE-000001`` onward per
        tenant).  Ids may therefore coincide *across* tenants — safe,
        because histories, indexes, and summaries are tenant-private.
        """
        with self._stats_lock:
            tenants = [
                self._tenant_of.get(future, DEFAULT_TENANT) for _, future in items
            ]
        stages = {
            tenant: self._ensure_tenant(tenant).copilot.collection
            for tenant in dict.fromkeys(tenants)
        }
        return [stages[tenant].next_incident_id() for tenant in tenants]

    def _diagnose_wave(
        self, succeeded: List[CollectResult], wave: _Wave
    ) -> List[DiagnosisReport]:
        """Per-tenant prediction over one shared, deduplicated LLM batch.

        The wave's surviving outcomes are grouped by tenant; each group
        embeds and retrieves against its own tenant's index, then every
        indexed group joins one combined ``predict_many`` call
        (:func:`~repro.core.prediction.predict_many_grouped`) so LLM
        request deduplication spans tenants.  Unindexed tenants get
        prediction-less reports, as the single-tenant path gives them.
        Reports align 1:1 with ``succeeded``; each incident is stamped
        with its ``owning_tenant`` so feedback routes itself.

        ``predict_chunk_size`` is not applied to the combined batch — the
        grouped call is a single pass (chunking would re-split what
        grouping just merged); predictions are identical either way.
        """
        if not succeeded:
            return []
        with self._stats_lock:
            tenant_by_pos = [
                self._tenant_of.get(wave.items[result.index][1], DEFAULT_TENANT)
                for result in succeeded
            ]
        groups: Dict[str, List[int]] = {}
        for pos, tenant in enumerate(tenant_by_pos):
            groups.setdefault(tenant, []).append(pos)
        states = {tenant: self._ensure_tenant(tenant) for tenant in groups}
        incidents_of: Dict[str, List[Incident]] = {}
        for tenant, positions in groups.items():
            incidents = [succeeded[p].outcome.incident for p in positions]
            for incident in incidents:
                if not incident.owning_tenant:
                    incident.owning_tenant = tenant
            incidents_of[tenant] = incidents
        indexed = [
            tenant
            for tenant in groups
            if states[tenant].copilot._indexed  # noqa: SLF001 - intra-package
        ]
        grouped_outcomes = predict_many_grouped(
            [
                (states[tenant].copilot.prediction, incidents_of[tenant])
                for tenant in indexed
            ]
        )
        prediction_by_pos: Dict[int, object] = {}
        for tenant, outcomes in zip(indexed, grouped_outcomes):
            for pos, outcome in zip(groups[tenant], outcomes):
                prediction_by_pos[pos] = outcome
        timestamp = self._clock.time()
        reports: List[Optional[DiagnosisReport]] = [None] * len(succeeded)
        for tenant, positions in groups.items():
            elapsed = (
                self._clock.monotonic() - wave.collect_started
            ) / len(positions)
            stage = states[tenant].copilot.prediction
            stage.export_cache_metrics(
                self.hub, timestamp=timestamp, machine=f"prediction-stage/{tenant}"
            )
            stage.export_index_metrics(
                self.hub, timestamp=timestamp, machine=f"prediction-stage/{tenant}"
            )
            for pos in positions:
                result = succeeded[pos]
                reports[pos] = DiagnosisReport(
                    incident=result.outcome.incident,
                    collection=result.outcome,
                    prediction=prediction_by_pos.get(pos),  # type: ignore[arg-type]
                    elapsed_seconds=elapsed,
                )
        return reports  # type: ignore[return-value]

    def _fold_wave_locked(self, wave: _Wave) -> None:
        """Fold the wave into its tenants' counters (under the stats lock)."""
        counts: Dict[str, int] = {}
        failures: Dict[str, int] = {}
        for result in wave.results:
            tenant = self._tenant_of.get(
                wave.items[result.index][1], DEFAULT_TENANT
            )
            counts[tenant] = counts.get(tenant, 0) + 1
            if not result.ok:
                failures[tenant] = failures.get(tenant, 0) + 1
        for tenant, count in counts.items():
            stats = self._tenant_stats.setdefault(tenant, IngestStats())
            stats.processed += count
            stats.batches += 1
            stats.last_flush_size = count
            stats.collect_failures += failures.get(tenant, 0)
            stats.flush_reasons[wave.reason] = (
                stats.flush_reasons.get(wave.reason, 0) + 1
            )

    def _fold_failed_locked(
        self, failed_items: List[Tuple[Alert, Future]], reason: str
    ) -> None:
        counts: Dict[str, int] = {}
        for _, future in failed_items:
            tenant = self._tenant_of.get(future, DEFAULT_TENANT)
            counts[tenant] = counts.get(tenant, 0) + 1
        for tenant, count in counts.items():
            stats = self._tenant_stats.setdefault(tenant, IngestStats())
            stats.processed += count
            stats.batches += 1
            stats.last_flush_size = count
            stats.worker_errors += 1
            stats.flush_reasons[reason] = stats.flush_reasons.get(reason, 0) + 1

    def _wave_metrics(self, wave: _Wave) -> Dict[str, float]:
        """Per-tenant gauges for the wave's tenants, plus the aggregate view."""
        with self._stats_lock:
            tenants = sorted(
                {
                    self._tenant_of.get(future, DEFAULT_TENANT)
                    for _, future in wave.items
                }
            )
            snapshots = {
                tenant: replace(
                    self._tenant_stats[tenant],
                    flush_reasons=dict(self._tenant_stats[tenant].flush_reasons),
                )
                for tenant in tenants
                if tenant in self._tenant_stats
            }
            shed = dict(self._tenant_shed)
        metrics: Dict[str, float] = {}
        for tenant, stats in snapshots.items():
            prefix = f"rcacopilot.tenant.{tenant}."
            for suffix, value in stats.as_dict().items():
                metrics[prefix + suffix] = value
            metrics[prefix + "shed"] = float(shed.get(tenant, 0))
            metrics[prefix + "queue_depth"] = float(self._tqueue.depth(tenant))
            metrics[prefix + "inflight"] = float(self._tqueue.inflight(tenant))
        with self._tenants_lock:
            tenant_count = len(self._tenants)
        metrics["rcacopilot.tenancy.tenants"] = float(tenant_count)
        metrics["rcacopilot.tenancy.shed_total"] = float(sum(shed.values()))
        return metrics

    def _wave_finished(self, wave: _Wave) -> None:
        for _, future in wave.items:
            self._retire_future(future)

    def _batch_failed(self, items: List[Tuple[Alert, Future]]) -> None:
        for _, future in items:
            self._retire_future(future)

    # ---------------------------------------------------------------- stats
    def tenant_stats(self, tenant: str) -> IngestStats:
        """A consistent snapshot of one tenant's ingestion counters.

        Taken under the same stats lock as the global counters and the
        per-wave folds, so ``processed <= submitted`` holds in every
        snapshot — per tenant, not just globally.
        """
        with self._stats_lock:
            stats = self._tenant_stats.get(tenant, IngestStats())
            return replace(stats, flush_reasons=dict(stats.flush_reasons))

    def tenant_stats_dict(self) -> Dict[str, Dict[str, float]]:
        """Every tenant's counters as flat metric mappings, plus lane gauges."""
        with self._stats_lock:
            snapshots = {
                tenant: replace(stats, flush_reasons=dict(stats.flush_reasons))
                for tenant, stats in self._tenant_stats.items()
            }
            shed = dict(self._tenant_shed)
        out: Dict[str, Dict[str, float]] = {}
        for tenant, stats in sorted(snapshots.items()):
            flat = stats.as_dict()
            flat["shed"] = float(shed.get(tenant, 0))
            flat["queue_depth"] = float(self._tqueue.depth(tenant))
            flat["inflight"] = float(self._tqueue.inflight(tenant))
            out[tenant] = flat
        return out

    def stats_dict(self) -> Dict[str, float]:
        """The global rollup, extended with the tenancy and service views.

        On top of the base ingestion counters: ``tenants`` (registered
        tenant count), ``shed_total`` (quota sheds across tenants),
        ``tenant.<id>.*`` (each tenant's flattened counters), the shared
        collect service's ``collect.*`` rollup, and the aggregate
        ``retrieval.*`` view over the per-tenant index namespaces.
        """
        flat = super().stats_dict()
        per_tenant = self.tenant_stats_dict()
        flat["tenants"] = float(len(per_tenant))
        flat["shed_total"] = float(
            sum(stats["shed"] for stats in per_tenant.values())
        )
        for tenant, stats in per_tenant.items():
            for suffix, value in stats.items():
                flat[f"tenant.{tenant}.{suffix}"] = value
        for suffix, value in self._collect_pool.stats_dict().items():
            flat[f"collect.{suffix}"] = value
        for suffix, value in self.retrieval.stats_dict().items():
            flat[f"retrieval.{suffix}"] = value
        return flat
