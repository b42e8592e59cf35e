"""The three workloads.  Each returns (attempted, failed, metrics, info).

Every workload builds its inputs from the seed, times set-up once, measures
for the requested number of seconds, checks the program's outputs and raises
:class:`CheckFailed` when a check breaks.  With ``trace`` set it instead runs
one untraced and one traced round from the same set-up snapshot and returns
the per-layer metrics.  ``info`` holds the numbers printed as comments:
sample counts, the tail percentile used, accuracy.
"""

from __future__ import annotations

import copy
import queue
import random
import resource
import threading
import time
from concurrent.futures import wait as futures_wait
from dataclasses import replace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.cloudsim import TransportService
from repro.cloudsim.faults import FAULT_INJECTORS
from repro.core import RCACopilot
from repro.datagen import CategoryCatalogue, CorpusConfig, CorpusGenerator
from repro.eval.metrics import f1_report
from repro.incidents import Incident, IncidentStore
from repro.telemetry import TelemetryHub

import layers
from spans import Tracer
from stats import arrival_offsets, due_latencies, median, more_rounds, percentile, tail

clock = time.perf_counter


class CheckFailed(Exception):
    """A correctness check of the program's outputs did not hold."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise CheckFailed(message)


# ------------------------------------------------------------------ shared
def corpus(seed: int, incidents: int, categories: int, days: float) -> IncidentStore:
    """A seeded incident corpus over the library's default category catalogue.

    The catalogue (the service's root causes) is the library default; the
    seed draws which incidents happen, when and on which machines.
    """
    config = CorpusConfig(
        total_incidents=incidents,
        total_categories=categories,
        seed=seed,
        duration_days=days,
    )
    catalogue = CategoryCatalogue.default(total_categories=categories)
    return CorpusGenerator(config, catalogue=catalogue).generate()


def accuracy(truths: Sequence[str], labels: Sequence[str]) -> Dict[str, float]:
    """Micro- and macro-F1 of predicted labels against ground truth."""
    report = f1_report(list(truths), list(labels))
    return {"micro_f1": report.micro_f1, "macro_f1": report.macro_f1}


def run_setup(build: Callable[[Optional[Tracer]], RCACopilot], trace: bool):
    """Time ``build``; returns (copilot, seconds, tracer or None).

    Traced, the wrappers are removed before returning, so the snapshot the
    rounds copy carries no tracing.
    """
    tracer = Tracer(layers.HOME_KEYS) if trace else None
    started = clock()
    try:
        copilot = build(tracer)
    finally:
        if tracer is not None:
            tracer.unwrap_all()
    return copilot, clock() - started, tracer


def end_to_end(
    setup_s: float, latencies: Sequence[float], completed: int, busy_seconds: float
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The end-to-end metrics, and the latency median and tail printed beside them.

    The tail is the highest percentile with ten samples beyond it.  Neither
    it nor the median is bounded (see DESIGN.md): a handful of pauses
    decides the tail, and the median of a closed loop's 32 repeating
    incidents jumps between cost clusters from seed to seed.
    """
    q, tail_value = tail(latencies)
    metrics = {
        "setup_s": setup_s,
        "label_mean_ms": 1000.0 * sum(latencies) / len(latencies),
        "label_p90_ms": 1000.0 * percentile(latencies, 90.0),
        "incidents_per_s": completed / busy_seconds,
        # Linux reports the peak resident set size in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"samples": len(latencies), "p50_ms": 1000.0 * median(latencies),
            "tail_percentile": q, "tail_ms": 1000.0 * tail_value}
    return metrics, info


def cache_delta(before, after) -> Dict[str, int]:
    """Cache counter increments between two prediction stages' readings."""
    start = before.cache_stats.as_dict()
    return {name: value - start[name] for name, value in after.cache_stats.as_dict().items()}


def trace_overhead(untraced: Sequence[float], traced: Sequence[float]) -> float:
    """Relative change of the median latency under tracing."""
    return median(traced) / median(untraced) - 1.0


def check_thread_budget(*tracers: Tracer) -> None:
    """Self times on one thread never exceed the thread's traced wall time."""
    for tracer in tracers:
        for thread, (self_total, wall) in tracer.thread_budget().items():
            check(
                self_total <= wall * (1 + 1e-9) + 1e-9,
                f"thread {thread}: self times sum to {self_total:.6f}s > wall {wall:.6f}s",
            )


# ------------------------------------------------------------ closed loops
class Round(NamedTuple):
    """One closed-loop round: labels, per-incident latencies, busy time."""

    labels: List[str]
    latencies: List[float]
    busy: float


def closed_round(copilot: RCACopilot, inputs: List[Incident], body,
                 tracer: Optional[Tracer] = None):
    """Run ``body(stage, incidents)`` on a fresh copy of the set-up snapshot.

    Returns (round, the copied stage).  Every round starts from the same
    state, so rounds repeat the same work and must return the same labels.
    """
    stage, incidents = copy.deepcopy((copilot.prediction, inputs))
    if tracer is not None:
        layers.instrument_stage(tracer, stage)
        layers.instrument_index(tracer, stage.index)
    try:
        result = Round(*body(stage, incidents))
    finally:
        if tracer is not None:
            tracer.unwrap_all()
    return result, stage


def closed_loop(build, inputs: List[Incident], body, truths: Sequence[str],
                seconds: float, trace: bool, verify=None):
    """Drive a closed-loop workload: set up, run rounds, check, measure.

    ``verify(copilot, labels)`` runs the workload's own checks on the
    labels of a round.
    """
    copilot, setup_s, setup_tracer = run_setup(build, trace)
    if trace:
        untraced, _ = closed_round(copilot, inputs, body)
        tracer = Tracer(layers.HOME_KEYS)
        started = clock()
        traced, stage = closed_round(copilot, inputs, body, tracer)
        round_s = clock() - started
        check(traced.labels == untraced.labels, "traced labels differ from untraced labels")
        if verify is not None:
            verify(copilot, traced.labels)
        check_thread_budget(setup_tracer, tracer)
        metrics = layers.per_layer_metrics(
            setup_tracer, setup_s, tracer, round_s,
            cache_delta(copilot.prediction, stage),
            stage.index.stats(), copilot.hub, accuracy(truths, traced.labels),
            trace_overhead(untraced.latencies, traced.latencies),
        )
        return 2 * len(inputs), 0, metrics, {}
    rounds: List[Round] = []
    started = clock()
    while more_rounds(len(rounds), clock() - started, seconds):
        rounds.append(closed_round(copilot, inputs, body)[0])
        check(rounds[-1].labels == rounds[0].labels, "labels differ between identical rounds")
    if verify is not None:
        verify(copilot, rounds[0].labels)
    latencies = [latency for result in rounds for latency in result.latencies]
    metrics, info = end_to_end(setup_s, latencies, len(latencies),
                               sum(result.busy for result in rounds))
    info.update(rounds=len(rounds), **accuracy(truths, rounds[0].labels))
    return len(latencies), 0, metrics, info


# ------------------------------------------------------------ paper-replay
#: Paper-shaped corpus (Table 2 protocol at reduced scale).
PAPER_INCIDENTS = 130
PAPER_CATEGORIES = 30
PAPER_DAYS = 180.0
PAPER_TRAIN_FRACTION = 0.75


def _replay(stage, incidents: List[Incident]):
    """Continuous labelling: predict, then fold the confirmed label back in."""
    labels: List[str] = []
    latencies: List[float] = []
    for incident in incidents:
        started = clock()
        label = stage.predict(incident).label
        stage.add_to_index(incident)
        latencies.append(clock() - started)
        labels.append(label)
    return labels, latencies, sum(latencies)


def paper_replay(seed: int, seconds: float, trace: bool):
    """Closed loop, one caller: the paper's Table 2 continuous-labelling replay."""
    train, test = corpus(seed, PAPER_INCIDENTS, PAPER_CATEGORIES, PAPER_DAYS).chronological_split(
        PAPER_TRAIN_FRACTION
    )
    replayed = test.labelled()
    check(len(train) > 0 and len(replayed) > 0, "empty paper-replay split")

    def build(tracer: Optional[Tracer]) -> RCACopilot:
        copilot = RCACopilot(TelemetryHub())
        if tracer is not None:
            layers.instrument_stage(tracer, copilot.prediction)
        copilot.index_history(train)
        return copilot

    truths = [incident.category or "" for incident in replayed]
    return closed_loop(build, replayed, _replay, truths, seconds, trace)


# ------------------------------------------------------------- history-10k
HISTORY_INCIDENTS = 10_400
HISTORY_CATEGORIES = 163
HISTORY_DAYS = 365.0
HISTORY_SEED_SLICE = 60
HISTORY_ROWS = 10_000
HISTORY_HELD_OUT = 100
HISTORY_RECURRENCES = 4
HISTORY_BATCH = 16
HISTORY_SCALAR_SAMPLE = 16


def _history_inputs(seed: int):
    """(seed slice, growth rows, recurring held-out stream) from one corpus.

    The index starts from 60 consecutive incidents at the middle of the
    indexed year — the labelled history a deployment starts from — and then
    grows with the rest of the oldest ``HISTORY_ROWS`` incidents, in time
    order.  A slice from the dense middle spans one or two days on every
    seed, so the sharded index always auto-picks its narrowest window and
    keeps it as the index grows; a slice from the sparse start of the
    corpus would span 3 to 30 days depending on the seed.  The held-out
    incidents are drawn from the newest remainder and each recurs
    ``HISTORY_RECURRENCES`` times (paper Figure 2) in a seeded order.
    """
    incidents = corpus(seed, HISTORY_INCIDENTS, HISTORY_CATEGORIES, HISTORY_DAYS).labelled()
    middle = HISTORY_ROWS // 2
    seed_slice = incidents[middle:middle + HISTORY_SEED_SLICE]
    growth = incidents[:middle] + incidents[middle + HISTORY_SEED_SLICE:HISTORY_ROWS]
    rng = random.Random(seed)
    held_out = rng.sample(incidents[HISTORY_ROWS:], HISTORY_HELD_OUT)
    stream = [
        replace(base, incident_id=f"INC-RECUR-{occurrence}-{index:04d}",
                summary="", predicted_category=None, explanation="")
        for occurrence in range(HISTORY_RECURRENCES)
        for index, base in enumerate(held_out)
    ]
    rng.shuffle(stream)
    return seed_slice, growth, stream


def _triage(stage, incidents: List[Incident]):
    """Batches of 16 through ``predict_many``.

    An incident's latency is its batch's wall time: its label arrives when
    the batch returns.
    """
    labels: List[str] = []
    latencies: List[float] = []
    busy = 0.0
    for start in range(0, len(incidents), HISTORY_BATCH):
        batch = incidents[start:start + HISTORY_BATCH]
        started = clock()
        outcomes = stage.predict_many(batch)
        elapsed = clock() - started
        labels.extend(outcome.label for outcome in outcomes)
        latencies.extend([elapsed] * len(batch))
        busy += elapsed
    return labels, latencies, busy


def history_10k(seed: int, seconds: float, trace: bool):
    """Closed loop, batches of 16, over a 10,000-row index."""
    seed_slice, growth, stream = _history_inputs(seed)

    def build(tracer: Optional[Tracer]) -> RCACopilot:
        """Index the seed slice, then grow the index through public calls."""
        copilot = RCACopilot(TelemetryHub())
        stage = copilot.prediction
        if tracer is not None:
            layers.instrument_stage(tracer, stage)
        copilot.index_history(IncidentStore(seed_slice))
        if tracer is not None:
            layers.instrument_index(tracer, stage.index)
        vectors = stage.embedder.embed_many(
            [incident.diagnostic_info() or incident.alert_info() for incident in growth]
        )
        summaries = stage.summarizer.summarize_many(
            [incident.diagnostic_info() for incident in growth]
        )
        stage.index.add_many(
            incident_ids=[incident.incident_id for incident in growth],
            vectors=vectors,
            created_days=[incident.created_day for incident in growth],
            categories=[incident.category or "" for incident in growth],
            texts=[summary.text for summary in summaries],
        )
        rows = len(stage.index)
        check(rows == HISTORY_ROWS, f"index holds {rows} rows before triage, not {HISTORY_ROWS}")
        return copilot

    def verify(copilot: RCACopilot, labels: List[str]) -> None:
        """Scalar ``predict`` must label a sample exactly as ``predict_many`` did."""
        rows = sorted(random.Random(seed + 1).sample(range(len(stream)), HISTORY_SCALAR_SAMPLE))
        stage, incidents = copy.deepcopy((copilot.prediction, [stream[row] for row in rows]))
        for row, incident in zip(rows, incidents):
            scalar = stage.predict(incident).label
            check(scalar == labels[row],
                  f"scalar predict labels {incident.incident_id} {scalar!r}, "
                  f"predict_many labelled it {labels[row]!r}")

    truths = [incident.category or "" for incident in stream]
    return closed_loop(build, stream, _triage, truths, seconds, trace, verify)


# -------------------------------------------------------------- stream-live
#: Mean arrival rate: a fifth of the ~52 alerts/s the pipeline sustains with
#: every batch full against this hub on a 2-core VM, so latency is mostly
#: service time and the batching window.  Queueing would amplify the shared
#: host's speed drift into the latency tail.
STREAM_RATE = 10.0
#: Alerts the fault schedule raises before timing.  Fixed, so the hub the
#: handlers query has the same size whatever ``--seconds`` is.
STREAM_SCHEDULE_ALERTS = 1024
STREAM_HISTORY_INCIDENTS = 60
STREAM_HISTORY_CATEGORIES = 20
STREAM_HISTORY_DAYS = 90.0
STREAM_FEEDBACK_FRACTION = 0.3
STREAM_FEEDBACK_DELAY = 2.0
STREAM_WARMUP_HOURS = 1.0
#: Real seconds any one future or the feedback thread may take to finish
#: after the schedule ends before the run fails.
STREAM_DRAIN_TIMEOUT = 60.0


def _stream_alerts(seed: int, count: int):
    """(service, alerts, truths): a fault schedule's real alerts.

    Faults of every Table 1 category are injected round-robin across the
    forests, in a seeded order, until the monitors have raised ``count``
    alerts.  Each alert's ground truth is the category whose fault raises
    that alert type.
    """
    service = TransportService(seed=seed)
    service.warm_up(hours=STREAM_WARMUP_HOURS)
    truth_of = {injector.expected_alert_type: category
                for category, injector in FAULT_INJECTORS.items()}
    categories = sorted(FAULT_INJECTORS)
    forests = [forest.name for forest in service.topology.forests]
    rng = random.Random(seed)
    alerts = []
    cycle = 0
    while len(alerts) < count:
        rng.shuffle(categories)
        for category in categories:
            outcome = service.inject_and_detect(category, forest=forests[cycle % len(forests)])
            alerts.extend(outcome.alerts)
        cycle += 1
    alerts = alerts[:count]
    return service, alerts, [truth_of[alert.alert_type] for alert in alerts]


class OpenLoop:
    """One open-loop stream: the generator on the calling thread, feedback on another.

    Alert ``row`` is due ``offsets[row]`` seconds after the stream starts.
    The generator sleeps until an alert is due and submits it; rows picked
    for feedback are handed to the feedback thread, which confirms each one
    ``STREAM_FEEDBACK_DELAY`` after its due time.  A feedback call that
    blocks on the ingest lock therefore never delays a submission.
    """

    def __init__(self, copilot: RCACopilot, alerts, truths, offsets: Sequence[float],
                 feedback_rows: Sequence[int], tracer: Optional[Tracer] = None) -> None:
        self.copilot = copilot
        self.alerts = alerts
        self.truths = truths
        self.offsets = offsets
        self.feedback_rows = set(feedback_rows)
        self.tracer = tracer
        self.due: List[float] = []
        self.sent: List[float] = []
        self.done: List[Optional[float]] = [None] * len(alerts)
        self.feedback_delivered = 0
        self.feedback_errors: List[BaseException] = []
        self.queue_waits: List[float] = []
        #: Submit times per alert object, oldest first (past the end of the
        #: schedule the same alert is submitted again).
        self._submitted: Dict[int, List[float]] = {}
        self._handoff: "queue.Queue[Optional[Tuple[int, object]]]" = queue.Queue()

    # Queue wait: from submit to the start of parse_alert.
    def _stamp_submit(self, args, kwargs) -> None:
        self._submitted.setdefault(id(args[0]), []).append(clock())

    def _stamp_parse(self, args, kwargs) -> None:
        stamps = self._submitted.get(id(args[0]))
        if stamps:
            self.queue_waits.append(clock() - stamps.pop(0))

    def _send_feedback(self, ingestor) -> None:
        while True:
            item = self._handoff.get()
            if item is None:
                return
            row, future = item
            try:
                delay = self.due[row] + STREAM_FEEDBACK_DELAY - clock()
                if delay > 0:
                    time.sleep(delay)
                report = future.result(timeout=STREAM_DRAIN_TIMEOUT)
                ingestor.record_feedback(report.incident, self.truths[row])
                self.feedback_delivered += 1
            except Exception as exc:  # noqa: BLE001 - reported as a failed check
                self.feedback_errors.append(exc)

    def _generate(self, ingestor, futures: list) -> None:
        for row, alert in enumerate(self.alerts):
            delay = self.due[row] - clock()
            if delay > 0:
                time.sleep(delay)
            self.sent.append(clock())
            future = ingestor.submit(alert)
            future.add_done_callback(lambda _, row=row: self.done.__setitem__(row, clock()))
            futures.append(future)
            if row in self.feedback_rows:
                self._handoff.put((row, future))

    def run(self) -> "OpenLoop":
        tracer = self.tracer
        if tracer is not None:
            layers.instrument_copilot(tracer, self.copilot, on_parse=self._stamp_parse)
        ingestor = self.copilot.stream()
        if tracer is not None:
            tracer.wrap(ingestor, "submit", "core.streaming", "core.streaming.submit",
                        on_enter=self._stamp_submit)
            tracer.wrap(ingestor, "record_feedback", "core.streaming",
                        "core.streaming.feedback")
        feedback = threading.Thread(target=self._send_feedback, args=(ingestor,),
                                    name="perfbench-feedback")
        futures: list = []
        pending: set = set()
        ingestor.start()
        try:
            feedback.start()
            start = clock() + 0.05
            self.due = [start + offset for offset in self.offsets]
            self._generate(ingestor, futures)
            self.backlog_end = ingestor.queue_depth + sum(1 for f in futures if not f.done())
            _, pending = futures_wait(futures, timeout=STREAM_DRAIN_TIMEOUT)
        finally:
            self._handoff.put(None)
            feedback.join(timeout=STREAM_DRAIN_TIMEOUT + STREAM_FEEDBACK_DELAY)
            ingestor.stop()
            if tracer is not None:
                tracer.unwrap_all()
        check(not feedback.is_alive(), "feedback thread did not finish")
        check(not pending, f"{len(pending)} alerts never resolved")
        stats = ingestor.stats()
        check(stats.processed == stats.submitted == len(self.alerts),
              f"processed {stats.processed}, submitted {stats.submitted}, "
              f"sent {len(self.alerts)}")
        check(stats.worker_errors == 0, f"{stats.worker_errors} ingest worker errors")
        check(not self.feedback_errors, f"feedback failed: {self.feedback_errors[:1]!r}")
        check(self.feedback_delivered == len(self.feedback_rows),
              f"{self.feedback_delivered} of {len(self.feedback_rows)} feedbacks delivered")
        ok = [f.exception() is None for f in futures]
        self.failed = ok.count(False)
        self.labels = [f.result().predicted_label if good else "" for f, good in zip(futures, ok)]
        self.latencies = due_latencies(
            self.due, [t if good else None for t, good in zip(self.done, ok)]
        )
        self.generator_lag = max(s - d for s, d in zip(self.sent, self.due))
        self.ingest = stats.as_dict()
        self.completed_span = max(t for t, good in zip(self.done, ok) if good) - self.due[0]
        return self


def stream_live(seed: int, seconds: float, trace: bool):
    """Open loop at a fixed mean rate with mid-stream OCE feedback.

    The stream submits the schedule's alerts in order, ``STREAM_RATE`` per
    second for ``seconds``; past the end of the schedule it starts over.
    """
    count = max(1, int(round(STREAM_RATE * seconds)))
    service, scheduled, scheduled_truths = _stream_alerts(seed, STREAM_SCHEDULE_ALERTS)
    alerts = [scheduled[row % len(scheduled)] for row in range(count)]
    truths = [scheduled_truths[row % len(scheduled)] for row in range(count)]
    history = corpus(seed, STREAM_HISTORY_INCIDENTS, STREAM_HISTORY_CATEGORIES, STREAM_HISTORY_DAYS)
    rng = random.Random(seed + 2)
    offsets = arrival_offsets(STREAM_RATE, count, rng)
    feedback_rows = rng.sample(range(count), int(STREAM_FEEDBACK_FRACTION * count))
    hub = service.hub

    def build(tracer: Optional[Tracer]) -> RCACopilot:
        copilot = RCACopilot(hub)
        if tracer is not None:
            layers.instrument_stage(tracer, copilot.prediction)
        copilot.index_history(history)
        return copilot

    copilot, setup_s, setup_tracer = run_setup(build, trace)
    if trace:
        # Both streams start from copies of the set-up snapshot that share
        # the simulated cloud's telemetry hub.
        untraced = OpenLoop(copy.deepcopy(copilot, {id(hub): hub}), alerts, truths,
                            offsets, feedback_rows).run()
        tracer = Tracer(layers.HOME_KEYS)
        traced_copilot = copy.deepcopy(copilot, {id(hub): hub})
        started = clock()
        loop = OpenLoop(traced_copilot, alerts, truths, offsets, feedback_rows, tracer).run()
        round_s = clock() - started
        check_thread_budget(setup_tracer, tracer)
        metrics = layers.per_layer_metrics(
            setup_tracer, setup_s, tracer, round_s,
            cache_delta(copilot.prediction, traced_copilot.prediction),
            traced_copilot.prediction.index.stats(), hub, accuracy(truths, loop.labels),
            trace_overhead(untraced.latencies, loop.latencies),
            ingest=loop.ingest, queue_waits=loop.queue_waits,
            generator_lag=loop.generator_lag, backlog_end=loop.backlog_end,
        )
        return 2 * count, untraced.failed + loop.failed, metrics, {}
    loop = OpenLoop(copilot, alerts, truths, offsets, feedback_rows).run()
    metrics, info = end_to_end(setup_s, loop.latencies, count - loop.failed,
                               loop.completed_span)
    info.update(generator_lag_ms=1000.0 * loop.generator_lag, backlog_end=loop.backlog_end,
                batches=loop.ingest["batches"], feedback=loop.feedback_delivered,
                **accuracy(truths, loop.labels))
    return count, loop.failed, metrics, info


WORKLOADS = {
    "paper-replay": paper_replay,
    "stream-live": stream_live,
    "history-10k": history_10k,
}
