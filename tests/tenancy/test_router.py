"""Multi-tenant router suite: fair share, isolation, and single-tenant parity.

The load-bearing property is **parity-by-determinism**: N tenants
interleaved through one :class:`~repro.tenancy.TenantRouter` must produce
bit-identical reports, failures, feedback effects, and index state to N
isolated single-tenant :class:`~repro.core.streaming.StreamIngestor` runs
over the same alert streams — DRR batch composition, shared caches, and the
combined cross-tenant LLM batch change *cost*, never results.  All streams
run on a FakeClock over the idle/flaky handlers, so the suite takes zero
real sleeps.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import streamtest_utils as stu

from repro.bus import AlertEvent, BusReplayer, Recording, TrafficRecorder, build_recording
from repro.bus.jsonl import event_from_record
from repro.core import (
    CollectionConfig,
    IndexConfig,
    IngestConfig,
    PipelineConfig,
)
from repro.core.collect_pool import CollectionPool
from repro.core.errors import IngestQueueFull
from repro.datagen import generate_corpus
from repro.handlers import HandlerRegistry
from repro.llm import SimulatedLLM
from repro.telemetry import TelemetryHub
from repro.tenancy import (
    DEFAULT_TENANT,
    TenantQueue,
    TenantQueueFull,
    TenantQuota,
    TenantRouter,
)
from repro.vectordb import NamespacedIndexMap

TENANTS = ("alpha", "beta", "gamma")

#: One random stream element: (tenant pick, alert type, flaky marker?).
#: Idle/flaky only — both are sleep-free, so parity runs entirely virtual.
TENANT_STREAM_ELEMENT = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.sampled_from([stu.IDLE_TYPE, stu.FLAKY_TYPE]),
    st.booleans(),
)


def tenant_history():
    """The same labelled corpus ``build_stream_copilot`` indexes."""
    return generate_corpus(
        total_incidents=40, total_categories=12, seed=11, duration_days=60.0
    )


def build_router(
    n_tenants=2,
    clock=None,
    quotas=None,
    ingest=None,
    with_history=True,
    model=None,
    default_quota=None,
):
    """A router configured exactly like ``stu.build_stream_copilot``."""
    hub = TelemetryHub()
    stu.seed_hub(hub)
    config = PipelineConfig(
        collection=CollectionConfig(strict=True),
        index=IndexConfig(backend="flat", window_days=20.0),
    )
    router = TenantRouter(
        hub,
        registry=stu.stream_test_registry(),
        model=model if model is not None else SimulatedLLM(),
        config=config,
        ingest=ingest if ingest is not None else stu.ingest_config(None),
        clock=clock,
        default_quota=default_quota,
    )
    for name in TENANTS[:n_tenants]:
        router.register(
            name,
            quota=(quotas or {}).get(name),
            history=tenant_history() if with_history else None,
        )
    return router


def assigned_stream(spec, n_tenants):
    """Materialize a spec into (tenant, alert) pairs; fresh alert objects."""
    return [
        (TENANTS[pick % n_tenants], stu.make_stream_alert(i, alert_type=t, flaky=f))
        for i, (pick, t, f) in enumerate(spec)
    ]


# ----------------------------------------------------------------- quotas
class TestTenantQuota:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_queue_depth": 0},
            {"max_inflight": 0},  # would park a lane forever: must be rejected
            {"weight": 0},
        ],
    )
    def test_rejects_non_positive_limits(self, kwargs):
        with pytest.raises(ValueError):
            TenantQuota(**kwargs)


# ------------------------------------------------------------- DRR queue
def make_queue(quotas, capacity=0):
    tq = TenantQueue(clock=stu.FakeClock(), capacity=capacity)
    for tenant, quota in quotas.items():
        tq.register(tenant, quota)
    return tq


def put_all(tq, tenant, labels):
    for label in labels:
        tq.put_item(tenant, (label, Future()))


def pop_labels(tq):
    labels = []
    while True:
        try:
            labels.append(tq.get_nowait()[0])
        except queue.Empty:
            return labels


class TestTenantQueue:
    def test_put_requires_registration(self):
        tq = make_queue({"alpha": TenantQuota()})
        with pytest.raises(KeyError):
            tq.put_item("ghost", ("x", Future()))

    def test_equal_weights_alternate(self):
        tq = make_queue({"alpha": TenantQuota(), "beta": TenantQuota()})
        put_all(tq, "alpha", ["a1", "a2", "a3", "a4"])
        put_all(tq, "beta", ["b1", "b2"])
        assert pop_labels(tq) == ["a1", "b1", "a2", "b2", "a3", "a4"]
        assert tq.empty()

    def test_weights_set_the_batch_share(self):
        tq = make_queue({"alpha": TenantQuota(weight=2), "beta": TenantQuota()})
        put_all(tq, "alpha", ["a1", "a2", "a3", "a4"])
        put_all(tq, "beta", ["b1", "b2"])
        assert pop_labels(tq) == ["a1", "a2", "b1", "a3", "a4", "b2"]

    def test_inflight_cap_defers_without_shedding(self):
        tq = make_queue(
            {"alpha": TenantQuota(max_inflight=1), "beta": TenantQuota()}
        )
        put_all(tq, "alpha", ["a1", "a2"])
        put_all(tq, "beta", ["b1"])
        # a1 takes alpha's only inflight slot; a2 is deferred, not shed.
        assert pop_labels(tq) == ["a1", "b1"]
        assert tq.qsize() == 1  # a2 still queued
        assert tq.inflight("alpha") == 1
        tq.task_done("alpha")
        assert pop_labels(tq) == ["a2"]
        tq.task_done("beta")
        tq.task_done("alpha")
        assert tq.inflight("alpha") == 0

    def test_tenant_depth_quota_sheds_with_tenant(self):
        tq = make_queue(
            {"alpha": TenantQuota(max_queue_depth=2), "beta": TenantQuota()}
        )
        put_all(tq, "alpha", ["a1", "a2"])
        with pytest.raises(TenantQueueFull) as err:
            tq.put_item("alpha", ("a3", Future()))
        assert err.value.tenant == "alpha"
        assert isinstance(err.value, IngestQueueFull)
        # The other tenant's lane is untouched by alpha's quota.
        put_all(tq, "beta", ["b1"])
        assert tq.depth("alpha") == 2
        assert tq.depth("beta") == 1

    def test_global_capacity_sheds(self):
        tq = make_queue(
            {"alpha": TenantQuota(), "beta": TenantQuota()}, capacity=2
        )
        put_all(tq, "alpha", ["a1", "a2"])
        with pytest.raises(TenantQueueFull) as err:
            tq.put_item("beta", ("b1", Future()))
        assert err.value.tenant == "beta"

    def test_blocking_get_times_out_empty(self):
        tq = make_queue({"alpha": TenantQuota()})
        with pytest.raises(queue.Empty):
            tq.get(timeout=0.01)


# ----------------------------------------------------------- namespaces
class _FakeIndex:
    def __init__(self, size):
        self._size = size

    def __len__(self):
        return self._size


class TestNamespacedIndexMap:
    def test_attach_get_and_stats(self):
        spaces = NamespacedIndexMap()
        spaces.attach("alpha", _FakeIndex(3))
        spaces.attach("beta", _FakeIndex(5))
        assert "alpha" in spaces
        assert len(spaces) == 2
        assert spaces.namespaces() == ["alpha", "beta"]
        stats = spaces.stats_dict()
        assert stats["namespaces"] == 2.0
        assert stats["entries_total"] == 8.0
        assert stats["namespace.alpha.entries"] == 3.0

    def test_get_or_create_needs_a_factory(self):
        with pytest.raises(KeyError):
            NamespacedIndexMap().get_or_create("alpha")
        spaces = NamespacedIndexMap(factory=lambda namespace: _FakeIndex(0))
        created = spaces.get_or_create("alpha")
        assert spaces.get("alpha") is created


# ------------------------------------------------------------ fair share
class TestFairShareScheduling:
    def flush_order(self, router):
        return [r.incident.alert_message for r in router.flush()]

    def test_drr_composes_shared_batches(self):
        """A bursty tenant's backlog cannot push a steady tenant out of the
        head of the shared micro-batches: equal weights interleave 1:1."""
        router = build_router(2, with_history=False)
        try:
            for i in range(6):
                router.submit(
                    stu.make_stream_alert(i, alert_type=stu.IDLE_TYPE),
                    tenant="alpha",
                )
            for i in (10, 11):
                router.submit(
                    stu.make_stream_alert(i, alert_type=stu.IDLE_TYPE),
                    tenant="beta",
                )
            expected = [0, 10, 1, 11, 2, 3, 4, 5]
            assert self.flush_order(router) == [
                f"synthetic stream alert {i}" for i in expected
            ]
        finally:
            router.stop()

    def test_weights_skew_the_share(self):
        router = build_router(
            2, with_history=False, quotas={"alpha": TenantQuota(weight=2)}
        )
        try:
            for i in range(6):
                router.submit(
                    stu.make_stream_alert(i, alert_type=stu.IDLE_TYPE),
                    tenant="alpha",
                )
            for i in (10, 11):
                router.submit(
                    stu.make_stream_alert(i, alert_type=stu.IDLE_TYPE),
                    tenant="beta",
                )
            expected = [0, 1, 10, 2, 3, 11, 4, 5]
            assert self.flush_order(router) == [
                f"synthetic stream alert {i}" for i in expected
            ]
        finally:
            router.stop()

    def test_max_inflight_defers_across_waves(self):
        """An inflight-capped tenant's backlog waits for its waves to
        retire; nothing is shed and nothing deadlocks the drain."""
        router = build_router(
            2,
            with_history=False,
            ingest=stu.ingest_config(None, max_batch=4),
            quotas={"alpha": TenantQuota(max_inflight=2)},
        )
        try:
            alpha = [
                router.submit(
                    stu.make_stream_alert(i, alert_type=stu.IDLE_TYPE),
                    tenant="alpha",
                )
                for i in range(6)
            ]
            beta = [
                router.submit(
                    stu.make_stream_alert(10 + i, alert_type=stu.IDLE_TYPE),
                    tenant="beta",
                )
                for i in range(2)
            ]
            # Wave 1 = [a0, b0, a1, b1] (alpha capped at 2 inflight); its
            # retirement frees the cap, so the flush drains [a2, a3] next —
            # then stops at the cap-induced Empty.  Nothing is shed: the
            # deferred [a4, a5] are simply still queued for the next drive.
            order = self.flush_order(router)
            assert order == [
                f"synthetic stream alert {i}" for i in (0, 10, 1, 11, 2, 3)
            ]
            assert router.queue_depth == 2
            order += self.flush_order(router)
            assert order == [
                f"synthetic stream alert {i}" for i in (0, 10, 1, 11, 2, 3, 4, 5)
            ]
            assert all(f.done() for f in alpha + beta)
            stats = router.tenant_stats("alpha")
            assert stats.processed == stats.submitted == 6
            assert stats.batches == 3
            assert router.tenant_stats("beta").batches == 1
            assert router._tqueue.inflight("alpha") == 0
        finally:
            router.stop()


# -------------------------------------------------------------- isolation
class TestTenantIsolation:
    def test_queue_quota_sheds_only_the_offender(self):
        router = build_router(
            2, with_history=False, quotas={"alpha": TenantQuota(max_queue_depth=2)}
        )
        try:
            kept = [
                router.submit(
                    stu.make_stream_alert(i, alert_type=stu.IDLE_TYPE),
                    tenant="alpha",
                )
                for i in range(2)
            ]
            with pytest.raises(TenantQueueFull) as err:
                router.submit(
                    stu.make_stream_alert(2, alert_type=stu.IDLE_TYPE),
                    tenant="alpha",
                )
            assert err.value.tenant == "alpha"
            # The victim quota never touches the other tenant.
            beta = router.submit(
                stu.make_stream_alert(3, alert_type=stu.IDLE_TYPE), tenant="beta"
            )
            router.flush()
            assert all(f.result(timeout=30.0) for f in kept + [beta])
            assert router.tenant_stats("alpha").submitted == 2
            per_tenant = router.tenant_stats_dict()
            assert per_tenant["alpha"]["shed"] == 1.0
            assert per_tenant["beta"]["shed"] == 0.0
            flat = router.stats_dict()
            assert flat["shed_total"] == 1.0
            assert flat["tenant.alpha.shed"] == 1.0
            assert flat["tenants"] == 2.0
        finally:
            router.stop()

    def test_burst_shed_carries_the_enqueued_prefix(self):
        router = build_router(
            1, with_history=False, quotas={"alpha": TenantQuota(max_queue_depth=2)}
        )
        try:
            alerts = [
                stu.make_stream_alert(i, alert_type=stu.IDLE_TYPE) for i in range(4)
            ]
            with pytest.raises(TenantQueueFull) as err:
                router.submit_many(alerts, tenant="alpha")
            assert len(err.value.enqueued) == 2
            router.flush()
            for future in err.value.enqueued:
                assert future.result(timeout=30.0) is not None
        finally:
            router.stop()

    def test_faults_fail_only_their_own_tenant(self):
        router = build_router(2)
        try:
            bad = router.submit_many(
                [
                    stu.make_stream_alert(i, alert_type=stu.FLAKY_TYPE, flaky=True)
                    for i in range(3)
                ],
                tenant="alpha",
            )
            good = router.submit_many(
                [
                    stu.make_stream_alert(10 + i, alert_type=stu.IDLE_TYPE)
                    for i in range(3)
                ],
                tenant="beta",
            )
            router.flush()
            for future in bad:
                with pytest.raises(Exception, match="simulated telemetry outage"):
                    future.result(timeout=30.0)
            for future in good:
                assert future.result(timeout=30.0).incident.owning_tenant == "beta"
            assert router.tenant_stats("alpha").collect_failures == 3
            assert router.tenant_stats("beta").collect_failures == 0
        finally:
            router.stop()

    def test_tenants_get_private_incident_id_spaces(self):
        router = build_router(2, with_history=False)
        try:
            fa = router.submit(
                stu.make_stream_alert(0, alert_type=stu.IDLE_TYPE), tenant="alpha"
            )
            fb = router.submit(
                stu.make_stream_alert(1, alert_type=stu.IDLE_TYPE), tenant="beta"
            )
            router.flush()
            # Each tenant sees the ids it would see running alone.
            assert fa.result(timeout=30.0).incident.incident_id == "INC-LIVE-000001"
            assert fb.result(timeout=30.0).incident.incident_id == "INC-LIVE-000001"
        finally:
            router.stop()


# ----------------------------------------------------------------- parity
def run_router_variant(spec, n_tenants, depth=1, workers=None, backend="thread"):
    """Two-pass (feedback in between) multi-tenant run; per-tenant telemetry."""
    tenants = TENANTS[:n_tenants]
    router = build_router(
        n_tenants,
        clock=stu.FakeClock(),
        ingest=stu.ingest_config(workers, backend, pipeline_depth=depth),
    )
    try:

        def ingest_pass():
            futures = {tenant: [] for tenant in tenants}
            for tenant, alert in assigned_stream(spec, n_tenants):
                futures[tenant].append(router.submit(alert, tenant=tenant))
            router.flush()
            return futures

        futures1 = ingest_pass()
        pass1 = {tenant: stu.drain_futures(futures1[tenant]) for tenant in tenants}
        fed = {tenant: [] for tenant in tenants}
        for tenant in tenants:
            reports1, _ = pass1[tenant]
            for position in sorted(reports1):
                incident = futures1[tenant][position].result().incident
                # No tenant argument: the stamped owning_tenant routes it.
                router.record_feedback(incident, f"ConfirmedCategory{position % 3}")
                fed[tenant].append(incident.incident_id)
        futures2 = ingest_pass()
        pass2 = {tenant: stu.drain_futures(futures2[tenant]) for tenant in tenants}
        return {
            tenant: {
                "reports1": pass1[tenant][0],
                "failures1": pass1[tenant][1],
                "reports2": pass2[tenant][0],
                "failures2": pass2[tenant][1],
                "index_state": stu.index_state(
                    router.tenant_copilot(tenant), fed[tenant]
                ),
            }
            for tenant in tenants
        }
    finally:
        router.stop()


def run_isolated(spec, n_tenants, tenant):
    """The tenant's slice of the stream through its own single-tenant pipeline."""
    copilot = stu.build_stream_copilot(strict=True)
    ingestor = copilot.stream(stu.ingest_config(None), clock=stu.FakeClock())
    try:

        def ingest_pass():
            return [
                ingestor.submit(alert)
                for owner, alert in assigned_stream(spec, n_tenants)
                if owner == tenant
            ]

        futures1 = ingest_pass()
        ingestor.flush()
        reports1, failures1 = stu.drain_futures(futures1)
        fed = []
        for position in sorted(reports1):
            incident = futures1[position].result().incident
            ingestor.record_feedback(incident, f"ConfirmedCategory{position % 3}")
            fed.append(incident.incident_id)
        futures2 = ingest_pass()
        ingestor.flush()
        reports2, failures2 = stu.drain_futures(futures2)
        return {
            "reports1": reports1,
            "failures1": failures1,
            "reports2": reports2,
            "failures2": failures2,
            "index_state": stu.index_state(copilot, fed),
        }
    finally:
        ingestor.stop()


class TestTenantParity:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        spec=st.lists(TENANT_STREAM_ELEMENT, min_size=1, max_size=10),
        n_tenants=st.integers(min_value=1, max_value=3),
        depth=st.sampled_from([1, 2]),
    )
    def test_router_matches_isolated_pipelines(self, spec, n_tenants, depth):
        """Reports, failures, feedback effects, and index state per tenant are
        bit-identical to N isolated single-tenant runs of the same streams."""
        routed = run_router_variant(spec, n_tenants, depth=depth)
        for tenant in TENANTS[:n_tenants]:
            assert routed[tenant] == run_isolated(spec, n_tenants, tenant)

    def test_parity_holds_on_pooled_and_process_collection(self):
        spec = [
            (0, stu.IDLE_TYPE, False),
            (1, stu.FLAKY_TYPE, True),
            (0, stu.FLAKY_TYPE, False),
            (1, stu.IDLE_TYPE, False),
        ] * 2
        expected = {
            tenant: run_isolated(spec, 2, tenant) for tenant in TENANTS[:2]
        }
        for workers, backend in ((2, "thread"), (2, "process")):
            routed = run_router_variant(spec, 2, workers=workers, backend=backend)
            assert routed == expected

    def test_noisy_neighbor_changes_nothing_for_the_steady_tenant(self):
        """Beta's results with a shedding, fault-heavy alpha alongside equal
        beta's results with no alpha traffic at all."""
        spec_with_noise = [
            (0, stu.FLAKY_TYPE, True),
            (1, stu.IDLE_TYPE, False),
            (0, stu.FLAKY_TYPE, True),
            (1, stu.FLAKY_TYPE, False),
            (0, stu.IDLE_TYPE, False),
            (1, stu.IDLE_TYPE, False),
        ]
        routed = run_router_variant(spec_with_noise, 2)
        assert routed["beta"] == run_isolated(spec_with_noise, 2, "beta")


# ------------------------------------------------------ shared economies
class TestSharedEconomies:
    def test_identical_cross_tenant_content_costs_one_completion(self):
        """An incident storm hitting two tenants with identical content runs
        one deduplicated LLM batch — same completions as a solo tenant."""
        shared_model = SimulatedLLM()
        router = build_router(2, model=shared_model)
        try:
            before = shared_model.usage.calls
            fa = router.submit(
                stu.make_stream_alert(7, alert_type=stu.IDLE_TYPE), tenant="alpha"
            )
            fb = router.submit(
                stu.make_stream_alert(7, alert_type=stu.IDLE_TYPE), tenant="beta"
            )
            router.flush()
            shared_calls = shared_model.usage.calls - before
            assert stu.report_fingerprint(
                fa.result(timeout=30.0)
            ) == stu.report_fingerprint(fb.result(timeout=30.0))
        finally:
            router.stop()
        solo_model = SimulatedLLM()
        solo = build_router(1, model=solo_model)
        try:
            before = solo_model.usage.calls
            solo.submit(
                stu.make_stream_alert(7, alert_type=stu.IDLE_TYPE), tenant="alpha"
            )
            solo.flush()
            solo_calls = solo_model.usage.calls - before
        finally:
            solo.stop()
        assert shared_calls == solo_calls


# -------------------------------------------------------------- telemetry
class TestTenantTelemetry:
    def test_wave_exports_per_tenant_gauges(self):
        router = build_router(2, with_history=False)
        try:
            router.submit(
                stu.make_stream_alert(0, alert_type=stu.IDLE_TYPE), tenant="alpha"
            )
            router.submit(
                stu.make_stream_alert(1, alert_type=stu.IDLE_TYPE), tenant="beta"
            )
            router.flush()
            metrics = router.hub.metrics
            for tenant in ("alpha", "beta"):
                assert (
                    metrics.latest(
                        f"rcacopilot.tenant.{tenant}.processed", "stream-ingestor"
                    )
                    == 1.0
                )
                assert (
                    metrics.latest(
                        f"rcacopilot.tenant.{tenant}.inflight", "stream-ingestor"
                    )
                    is not None
                )
            assert (
                metrics.latest("rcacopilot.tenancy.tenants", "stream-ingestor")
                == 2.0
            )
            assert (
                metrics.latest("rcacopilot.tenancy.shed_total", "stream-ingestor")
                == 0.0
            )
        finally:
            router.stop()

    def test_stats_dict_rolls_up_every_service(self):
        router = build_router(2)
        try:
            router.submit(
                stu.make_stream_alert(0, alert_type=stu.IDLE_TYPE), tenant="alpha"
            )
            router.flush()
            flat = router.stats_dict()
            assert flat["tenants"] == 2.0
            assert flat["tenant.alpha.processed"] == 1.0
            assert flat["tenant.beta.processed"] == 0.0
            assert any(key.startswith("collect.") for key in flat)
            assert isinstance(router._collect_pool, CollectionPool)
            assert flat["retrieval.namespaces"] == 2.0
            assert flat["retrieval.entries_total"] == 80.0
            # The retrieval rollup reads each tenant's own pipeline index.
            index = router.tenant_copilot("alpha").prediction.index
            assert index is not None
            assert router.retrieval.get("alpha") is index
        finally:
            router.stop()


# -------------------------------------------------------------------- bus
class TestTenantBus:
    def test_tenant_field_round_trips_and_stays_optional(self):
        plain = AlertEvent(1.0, stu.make_stream_alert(0))
        assert "tenant" not in plain.to_record()
        tagged = AlertEvent(2.0, stu.make_stream_alert(1), tenant="alpha")
        record = tagged.to_record()
        assert record["tenant"] == "alpha"
        assert event_from_record(record) == tagged
        # Pre-tenancy recordings decode (empty tenant) and re-encode
        # byte-identically.
        assert event_from_record(plain.to_record()) == plain
        recording = build_recording([plain, tagged])
        assert Recording.loads(recording.dumps()).dumps() == recording.dumps()

    def test_recorded_tenants_replay_to_their_lanes(self):
        spec = [(0, stu.IDLE_TYPE, False), (1, stu.IDLE_TYPE, False)] * 3
        live = build_router(2, clock=stu.FakeClock())
        recorder = TrafficRecorder(live)
        try:
            futures = [
                recorder.submit(alert, tenant=tenant)
                for tenant, alert in assigned_stream(spec, 2)
            ]
            live.flush()
            live_prints = [
                stu.report_fingerprint(f.result(timeout=30.0)) for f in futures
            ]
            recording = recorder.recording()
        finally:
            live.stop()
        assert all(event.tenant for event in recording.alerts)

        fresh = build_router(2, clock=stu.FakeClock())
        try:
            result = BusReplayer(recording, speed=60.0).replay(fresh)
            assert not result.failures
            assert [
                stu.report_fingerprint(report) for report in result.reports
            ] == live_prints
            for tenant in TENANTS[:2]:
                assert fresh.tenant_stats(tenant).processed == 3
        finally:
            fresh.stop()
