"""Concurrent collection worker pool for the streaming ingestion front.

The paper's pipeline splits incident *collection* (handler action graphs:
log pulls, probe queries, correlation lookups) from *prediction* (embed +
retrieve + LLM).  Collection is per-incident and latency-bound — one slow
probe stalls nothing but its own incident — while prediction is throughput-
bound and wants the whole micro-batch at once.  :class:`CollectionPool`
exploits that split: each flushed micro-batch's ``parse_alert`` + ``collect``
calls fan out to a worker pool, and the outcomes are folded back **in
submission order** so the batched prediction phase (and therefore reports,
feedback routing, and ingest counters) is identical to the serial path.

Three execution modes share one result contract:

* ``workers=None`` — serial: the exact pre-pool behaviour, run inline in the
  flushing thread.  The parity baseline.
* ``backend="thread"`` — a :class:`~concurrent.futures.ThreadPoolExecutor`.
  The default: handler queries are read-only over the shared telemetry hub
  and sleep/IO-bound work overlaps even under the GIL.
* ``backend="process"`` — a :class:`~concurrent.futures.ProcessPoolExecutor`
  for pure-Python-heavy handlers.  Handlers cross the process boundary
  through their JSON serialization (script actions and unregistered
  classifiers cannot), are rebuilt once per (alert type, name, version) in a
  worker-side :class:`~repro.handlers.HandlerCache`, and each worker owns a
  registry-less :class:`~repro.core.collection.CollectionStage` built from
  the hub shipped at pool creation.

Failures are contained per item: a handler raising in a worker (strict mode,
wall-budget overrun, serialization error) marks only that alert's
:class:`CollectResult` as failed — the rest of the batch still predicts and
the pool survives for the next wave.  A worker *process* dying outright
(OOM kill, native crash) breaks every in-flight item of its wave, but the
broken executor is detected and discarded so the next wave runs on a fresh
pool.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..handlers import HandlerCache, HandlerRegistry, handler_to_dict
from ..incidents import Incident
from ..monitors import Alert
from ..vectordb.shardmem import BlobSpec, SharedBlob
from .clock import MONOTONIC_CLOCK, Clock
from .collection import CollectionOutcome, CollectionStage


@dataclass
class CollectResult:
    """Outcome of one alert's parse+collect, tagged with its submission slot.

    Exactly one of (``incident`` and ``outcome``) or ``error`` is set.
    ``seconds`` is the worker-side wall time of the parse+collect call — the
    numerator of the pool utilisation metric.
    """

    index: int
    alert: Alert
    incident: Optional[Incident] = None
    outcome: Optional[CollectionOutcome] = None
    error: Optional[BaseException] = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when collection produced an outcome for this alert."""
        return self.error is None


# --------------------------------------------------------------------- workers
#: Worker-process globals, set once per worker by :func:`_init_collect_worker`
#: (inherited state is per-process; the parent never sees these).
_WORKER_STAGE: Optional[CollectionStage] = None
_WORKER_HANDLERS = HandlerCache()


def _init_collect_worker(hub, config) -> None:
    """Process-pool initializer: build this worker's private collection stage.

    The stage gets an empty registry — handlers arrive per task in serialized
    form (matched in the parent, where the live registry is) — and the
    telemetry hub shipped when the pool was created.  Workers therefore see
    the hub *as of pool creation*.  Under the ingestor's documented contract
    (producers must not write telemetry while the stream runs) the only
    mid-stream writer is the ingestor's own per-batch metric export, whose
    wall-clock timestamps fall outside handler query windows in the
    simulated deployments — but a handler that does read telemetry written
    after the pool started will see the stale snapshot here and the live hub
    on the serial/thread paths.  Keep such handlers on the thread backend.
    """
    global _WORKER_STAGE
    _WORKER_STAGE = CollectionStage(HandlerRegistry(), hub, config)


def _init_collect_worker_from_blob(spec: BlobSpec) -> None:
    """Initializer shipping only a shared-memory address, not the hub.

    The parent pickles ``(hub, config)`` into a :class:`SharedBlob` once
    per pool lifetime; every worker — including workers of executors
    rebuilt after a crash or a resize — attaches the segment by name and
    unpickles from the mapped buffer.  Large telemetry hubs therefore
    cross the executor plumbing as a ~100-byte spec instead of a fresh
    pickle per worker per rebuild.
    """
    hub, config = SharedBlob.read(spec)
    _init_collect_worker(hub, config)


def _collect_in_worker(
    alert: Alert, incident_id: str, handler_doc: Optional[Dict[str, Any]]
) -> Tuple[Incident, CollectionOutcome, float]:
    """Parse + collect one alert inside a pool worker process."""
    started = time.perf_counter()
    stage = _WORKER_STAGE
    if stage is None:  # pragma: no cover - initializer always runs first
        raise RuntimeError("collection worker used before initialization")
    incident = stage.parse_alert(alert, incident_id=incident_id)
    outcome = stage.collect_with(incident, _WORKER_HANDLERS.resolve(handler_doc))
    return incident, outcome, time.perf_counter() - started


class CollectionPool:
    """Fans a micro-batch's parse+collect calls out to a worker pool.

    One pool is owned by one :class:`~repro.core.streaming.StreamIngestor`
    and reused across micro-batches; executors are created lazily on the
    first pooled batch and torn down by :meth:`close`.
    """

    def __init__(
        self,
        stage: CollectionStage,
        workers: Optional[int] = None,
        backend: str = "thread",
        clock: Optional[Clock] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be positive (or None for serial)")
        if backend not in ("thread", "process"):
            raise ValueError(
                f"unknown collect backend: {backend!r} (expected 'thread' or 'process')"
            )
        self.stage = stage
        self.workers = workers
        self.backend = backend
        #: Time source for per-task wall times and worker-second accounting.
        #: Process-backend tasks still time themselves with the real clock —
        #: a step-controlled clock cannot coordinate across the process
        #: boundary (see :func:`_collect_in_worker`).
        self.clock = clock or MONOTONIC_CLOCK
        self._executor: Optional[Executor] = None
        #: Shared-memory snapshot of (hub, config) for process workers:
        #: created on the first process executor, reused by every rebuild
        #: (crash recovery, resize), destroyed by :meth:`close`.
        self._hub_blob: Optional[SharedBlob] = None
        #: Executors retired by :meth:`resize`; their threads exit on their
        #: own, and :meth:`close` joins them so a stopped ingestor provably
        #: leaks nothing.
        self._retired: List[Executor] = []
        #: Scale events applied to this pool (grow + shrink + rebuilds).
        self.resize_events = 0
        #: Collect waves currently inside :meth:`run`.  Under pipelined
        #: ingestion the *prediction* of an earlier wave may still be in
        #: flight while the pool sits at a collect boundary — this counter
        #: is what lets :meth:`resize` tell "collect idle" (safe) apart
        #: from "fully idle", and is exported to the autoscaler's caller.
        self.inflight_waves = 0
        #: Σ pool_size × wave wall time: the capacity paid for, whether or
        #: not it was used.  The autoscaling benchmark's economy metric.
        self.worker_seconds = 0.0
        #: Parent-side cache of serialized handler documents, keyed by the
        #: same (alert type, name, version) triple the worker-side
        #: :class:`HandlerCache` uses — each handler version is serialized
        #: once per pool, not once per alert.
        self._handler_docs: Dict[tuple, Optional[Dict[str, Any]]] = {}

    # ------------------------------------------------------------------- sizing
    @property
    def pool_size(self) -> int:
        """Workers in the pool (0 = serial mode)."""
        return 0 if self.workers is None else self.workers

    def resize(self, workers: int) -> None:
        """Change the worker count; callers must be at a collect boundary.

        Only valid between :meth:`run` calls (the stream ingestor resizes
        under its collection lock, after one wave's collection and before
        the next), so no task is ever in flight across a resize — enforced
        via :attr:`inflight_waves`.  Growing a
        thread pool is in-place — :class:`ThreadPoolExecutor` spawns
        threads lazily up to its ceiling, so raising the ceiling suffices.
        Shrinking a thread pool, and any resize of a process pool, retires
        the idle executor instead; the next wave lazily rebuilds at the new
        size (the rebuild-at-wave path the process backend already uses
        after a worker crash).
        """
        if workers < 1:
            raise ValueError("workers must be positive")
        if self.workers is None:
            raise RuntimeError("cannot resize a serial pool")
        if self.inflight_waves:
            raise RuntimeError(
                "cannot resize the collection pool while a collect wave is "
                "in flight (resizes belong at collect boundaries)"
            )
        if workers == self.workers:
            return
        growing = workers > self.workers
        self.workers = workers
        self.resize_events += 1
        if self._executor is None:
            return
        if (
            growing
            and self.backend == "thread"
            and hasattr(self._executor, "_max_workers")
        ):
            # CPython's ThreadPoolExecutor checks this ceiling on every
            # submit and spawns workers lazily up to it.
            self._executor._max_workers = workers
            return
        self._executor.shutdown(wait=False)
        self._retired.append(self._executor)
        self._executor = None

    # -------------------------------------------------------------------- run
    def run(
        self, alerts: Sequence[Alert], incident_ids: Sequence[str]
    ) -> List[CollectResult]:
        """Parse + collect every alert; results come back in submission order.

        ``incident_ids`` must be pre-reserved (one per alert, in submission
        order) so id assignment is independent of worker interleaving.
        Per-item failures are captured in the results, never raised.
        """
        if len(alerts) != len(incident_ids):
            raise ValueError("one pre-reserved incident id is required per alert")
        # Join executors retired by earlier resizes: their workers were told
        # to exit at retire time (the pool was idle), so this is effectively
        # instant — and it keeps _retired from growing without bound on a
        # long-lived stream whose autoscaler flaps.
        self._prune_retired()
        wave_started = self.clock.monotonic()
        self.inflight_waves += 1
        try:
            return self._run_wave(alerts, incident_ids)
        finally:
            self.inflight_waves -= 1
            lanes = self.workers if self.workers else 1
            self.worker_seconds += lanes * (self.clock.monotonic() - wave_started)

    def _run_wave(
        self, alerts: Sequence[Alert], incident_ids: Sequence[str]
    ) -> List[CollectResult]:
        if self.workers is None:
            return [
                self._collect_guarded(index, alert, incident_id)
                for index, (alert, incident_id) in enumerate(zip(alerts, incident_ids))
            ]
        futures: List[Tuple[int, Alert, Optional[Future], Optional[BaseException]]] = []
        for index, (alert, incident_id) in enumerate(zip(alerts, incident_ids)):
            try:
                future = self._submit(alert, incident_id)
            except Exception as exc:  # noqa: BLE001 - e.g. unserializable handler
                futures.append((index, alert, None, exc))
            else:
                futures.append((index, alert, future, None))
        results: List[CollectResult] = []
        broken = False
        for index, alert, future, prep_error in futures:
            if future is None:
                broken = broken or isinstance(prep_error, BrokenExecutor)
                results.append(CollectResult(index=index, alert=alert, error=prep_error))
                continue
            try:
                incident, outcome, seconds = future.result()
            except Exception as exc:  # noqa: BLE001 - contained per item
                broken = broken or isinstance(exc, BrokenExecutor)
                results.append(CollectResult(index=index, alert=alert, error=exc))
            else:
                results.append(
                    CollectResult(
                        index=index,
                        alert=alert,
                        incident=incident,
                        outcome=outcome,
                        seconds=seconds,
                    )
                )
        if broken:
            # A dead worker process poisons the whole executor; discard it so
            # the next wave runs on a freshly created pool instead of
            # failing every future batch with BrokenProcessPool.
            self._discard_executor()
        return results

    def _collect_guarded(
        self, index: int, alert: Alert, incident_id: str
    ) -> CollectResult:
        """Serial-mode parse+collect with the same per-item containment."""
        started = self.clock.monotonic()
        try:
            incident, outcome, seconds = self._collect_local(alert, incident_id)
        except Exception as exc:  # noqa: BLE001 - contained per item
            return CollectResult(
                index=index,
                alert=alert,
                error=exc,
                seconds=self.clock.monotonic() - started,
            )
        return CollectResult(
            index=index,
            alert=alert,
            incident=incident,
            outcome=outcome,
            seconds=seconds,
        )

    def _submit(self, alert: Alert, incident_id: str) -> Future:
        """Submit one alert to the pooled backend."""
        executor = self._ensure_executor()
        if self.backend == "thread":
            return executor.submit(self._collect_local, alert, incident_id)
        handler = self.stage.registry.match(alert.alert_type)
        if handler is None:
            handler_doc = None
        else:
            key = (handler.alert_type, handler.name, handler.version)
            if key not in self._handler_docs:
                self._handler_docs[key] = handler_to_dict(handler)
            handler_doc = self._handler_docs[key]
        return executor.submit(_collect_in_worker, alert, incident_id, handler_doc)

    def _collect_local(
        self, alert: Alert, incident_id: str
    ) -> Tuple[Incident, CollectionOutcome, float]:
        """Thread-backend task: parse + collect against the live stage."""
        started = self.clock.monotonic()
        incident = self.stage.parse_alert(alert, incident_id=incident_id)
        outcome = self.stage.collect(incident)
        return incident, outcome, self.clock.monotonic() - started

    def _ensure_executor(self) -> Executor:
        if self._executor is None:
            if self.backend == "thread":
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="rcacopilot-collect",
                )
            else:
                # The process backend's semantics — classifiers registered by
                # decorator in parent modules are resolvable in workers, and
                # workers inherit a consistent hub snapshot — rely on
                # fork-style workers, so pin the start method explicitly
                # rather than inheriting a platform default of spawn (which
                # would import bare modules and miss runtime registrations).
                try:
                    context = multiprocessing.get_context("fork")
                except ValueError as exc:  # pragma: no cover - Windows only
                    raise RuntimeError(
                        "collect_backend='process' requires the fork start "
                        "method, which this platform does not provide; use "
                        "the thread backend instead"
                    ) from exc
                if self._hub_blob is None:
                    self._hub_blob = SharedBlob.create(
                        (self.stage.hub, self.stage.config)
                    )
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=context,
                    initializer=_init_collect_worker_from_blob,
                    initargs=(self._hub_blob.spec,),
                )
        return self._executor

    def _discard_executor(self) -> None:
        """Drop a (broken) executor without waiting on its corpse."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    # ------------------------------------------------------------------- stats
    def stats_dict(self) -> Dict[str, float]:
        """The pool's gauges as a flat metric mapping.

        Read without a lock (each value is a single attribute read): a
        reader racing a wave may see one gauge a step ahead of another,
        exactly like the ingestor's autoscale gauges.  Used by the tenant
        router's service rollup, where the shared pool is the one every
        tenant's collection fans into.
        """
        return {
            "pool_size": float(self.pool_size),
            "inflight_waves": float(self.inflight_waves),
            "resize_events": float(self.resize_events),
            "worker_seconds_total": float(self.worker_seconds),
        }

    # ------------------------------------------------------------------- close
    def close(self) -> None:
        """Shut the executor down; a later :meth:`run` lazily recreates it.

        Also joins every executor retired by earlier :meth:`resize` calls —
        their workers were told to exit when they were retired, so this is
        normally instant, but it makes "no threads survive a stopped
        ingestor" a guarantee rather than a likelihood.

        Idempotent and exception safe: the executor, hub blob, and retired
        list are detached before any teardown call, and the teardown steps
        are chained in ``finally`` blocks — so a broken pool whose
        shutdown raises still unlinks its shared-memory blob and joins its
        retired executors, and a repeated ``close()`` (or one racing a
        crash) is a no-op.
        """
        executor, self._executor = self._executor, None
        blob, self._hub_blob = self._hub_blob, None
        try:
            if executor is not None:
                executor.shutdown(wait=True)
        finally:
            try:
                if blob is not None:
                    blob.destroy()
            finally:
                self._prune_retired()

    def _prune_retired(self) -> None:
        """Join and drop executors retired by :meth:`resize`.

        Pops before joining so an executor whose shutdown raises is still
        dropped — the next close() retries only the survivors.
        """
        while self._retired:
            self._retired.pop().shutdown(wait=True)

    def __enter__(self) -> "CollectionPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
