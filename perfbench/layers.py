"""Which methods of which layer objects the traced run wraps, and the
per-layer metrics computed from the spans.

Layer names follow the modules under ``src/repro``.  Every metric below is
printed by every traced run; a layer a workload does not exercise reads 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional

from repro.llm.tokenizer import DEFAULT_TOKENIZER

from metric_defs import PER_LAYER
from spans import Tracer

#: Layer -> key for spans that neither name a key nor nest in their own layer.
HOME_KEYS = {
    "llm": "llm.model",
    "llm.tokenizer": "llm.tokenizer.encode",
}

#: Span key -> the metric its self time is reported as.
TIME_METRICS = {
    "embedding.embed_many": "embedding.embed_many_s",
    "llm.summarize_many": "llm.summarize_many_s",
    "llm.cot_predict_many": "llm.cot_predict_many_s",
    "llm.tokenizer.encode": "llm.tokenizer.encode_s",
    "core.prediction": "core.prediction.self_s",
    "vectordb.search_many": "vectordb.search_many_s",
    "vectordb.write": "vectordb.write_s",
    "core.collection.collect": "core.collection.collect_s",
}


def _texts(args: tuple, kwargs: dict) -> int:
    return len(list(args[0] if args else next(iter(kwargs.values()))))


def instrument_stage(tracer: Tracer, stage) -> None:
    """Wrap a :class:`PredictionStage` and the layer objects it owns.

    The index is wrapped separately (:func:`instrument_index`) because
    ``index_history`` creates it.  The tokenizer is the library's shared
    default instance; :meth:`Tracer.unwrap_all` restores it.
    """
    embedder = stage.embedder
    tracer.wrap(embedder, "fit", "embedding", "embedding.fit",
                count=lambda a, k, r: {"embedding.texts": _texts(a, k)})
    tracer.wrap(embedder, "embed_many", "embedding", "embedding.embed_many",
                count=lambda a, k, r: {"embedding.texts": len(r)})
    tracer.wrap(embedder, "embed", "embedding", "embedding.embed_many",
                count=lambda a, k, r: {"embedding.texts": 1})
    tracer.wrap(stage.summarizer, "summarize_many", "llm", "llm.summarize_many",
                count=lambda a, k, r: {"llm.summaries": len(r)})
    tracer.wrap(stage.summarizer, "summarize", "llm", "llm.summarize_many",
                count=lambda a, k, r: {"llm.summaries": 1})
    tracer.wrap(stage.predictor, "predict_many", "llm", "llm.cot_predict_many",
                count=lambda a, k, r: {"llm.prompts": len(r)})
    tracer.wrap(stage.predictor, "predict", "llm", "llm.cot_predict_many",
                count=lambda a, k, r: {"llm.prompts": 1})
    tracer.wrap(stage.model, "complete_many", "llm")
    tracer.wrap(stage.model, "complete", "llm",
                count=lambda a, k, r: {"llm.completions": 1,
                                       "llm.prompt_tokens": r.prompt_tokens})
    tracer.wrap(DEFAULT_TOKENIZER, "encode", "llm.tokenizer", "llm.tokenizer.encode",
                count=lambda a, k, r: {"llm.tokenizer.encode_calls": 1})
    tracer.wrap(DEFAULT_TOKENIZER, "count", "llm.tokenizer")
    tracer.wrap(DEFAULT_TOKENIZER, "truncate", "llm.tokenizer")
    for method in ("index_history", "add_to_index", "update_category", "predict",
                   "predict_many", "retrieve", "retrieve_many", "build_context"):
        tracer.wrap(stage, method, "core.prediction", "core.prediction")


def instrument_index(tracer: Tracer, index) -> None:
    """Wrap the retrieval index's search and write calls."""
    tracer.wrap(index, "search_many", "vectordb", "vectordb.search_many",
                count=lambda a, k, r: {"vectordb.queries": len(r)})
    tracer.wrap(index, "search", "vectordb", "vectordb.search_many",
                count=lambda a, k, r: {"vectordb.queries": 1})
    tracer.wrap(index, "add_many", "vectordb", "vectordb.write",
                count=lambda a, k, r: {"vectordb.writes": _texts(a, k)})
    tracer.wrap(index, "add", "vectordb", "vectordb.write",
                count=lambda a, k, r: {"vectordb.writes": 1})
    tracer.wrap(index, "update_category", "vectordb", "vectordb.write",
                count=lambda a, k, r: {"vectordb.writes": 1})


def instrument_copilot(tracer: Tracer, copilot, on_parse=None) -> None:
    """Wrap the copilot's prediction stage, index and collection stage.

    ``on_parse(args, kwargs)`` runs as ``parse_alert`` starts, which is where
    an alert's queue wait ends.
    """
    instrument_stage(tracer, copilot.prediction)
    if copilot.prediction.index is not None:
        instrument_index(tracer, copilot.prediction.index)
    tracer.wrap(copilot.collection, "parse_alert", "core.collection",
                "core.collection.collect", on_enter=on_parse)
    tracer.wrap(copilot.collection, "collect", "core.collection", "core.collection.collect",
                count=lambda a, k, r: {"core.collection.collects": 1,
                                       "core.collection.collected": float(r.collected)})
    tracer.wrap(copilot, "record_feedback", "core.pipeline", "core.pipeline.feedback")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def hub_records(hub) -> int:
    """Records held by a telemetry hub: logs, metric samples, spans, events."""
    samples = sum(
        len(series)
        for name in hub.metrics.metric_names()
        for series in hub.metrics.series_for_metric(name)
    )
    return len(hub.logs) + samples + len(hub.traces) + len(hub.events)


def per_layer_metrics(
    setup: Tracer,
    setup_seconds: float,
    run: Tracer,
    round_seconds: float,
    cache_delta: Dict[str, int],
    index_stats: Dict[str, float],
    hub,
    accuracy: Dict[str, float],
    trace_overhead: float,
    ingest: Optional[Dict[str, float]] = None,
    queue_waits: Optional[List[float]] = None,
    generator_lag: float = 0.0,
    backlog_end: int = 0,
) -> Dict[str, float]:
    """Assemble every per-layer metric from the two traced phases."""
    setup_self = setup.self_seconds()
    run_self = run.self_seconds()
    counters = run.counters
    ingest = ingest or {}
    feedback_waits = run.span_self_seconds("core.streaming.feedback")
    requests = counters["llm.prompts"] + counters["llm.summaries"]
    values: Dict[str, float] = {
        "embedding.fit_s": setup_self.get("embedding.fit", 0.0)
        + run_self.get("embedding.fit", 0.0),
        "setup.traced_s": setup_seconds,
        "embedding.texts": counters["embedding.texts"],
        "llm.summaries": counters["llm.summaries"],
        "llm.prompts": counters["llm.prompts"],
        "llm.completions": counters["llm.completions"],
        "llm.prompt_tokens": counters["llm.prompt_tokens"],
        "llm.dedup_ratio": 1.0 - _ratio(counters["llm.completions"], requests)
        if requests else 0.0,
        "llm.tokenizer.encode_calls": counters["llm.tokenizer.encode_calls"],
        "core.prediction.summary_hit_ratio": _ratio(
            cache_delta["summary_hits"],
            cache_delta["summary_hits"] + cache_delta["summary_misses"],
        ),
        "core.prediction.embedding_hit_ratio": _ratio(
            cache_delta["embedding_hits"],
            cache_delta["embedding_hits"] + cache_delta["embedding_misses"],
        ),
        "vectordb.queries": counters["vectordb.queries"],
        "vectordb.scanned_entry_ratio": index_stats.get("scanned_entry_ratio", 0.0),
        "vectordb.shard_count": index_stats.get("shard_count", 0.0),
        "vectordb.writes": counters["vectordb.writes"],
        "core.collection.collected_ratio": _ratio(
            counters["core.collection.collected"], counters["core.collection.collects"]
        ),
        "core.streaming.queue_wait_ms": 1000.0 * statistics.median(queue_waits)
        if queue_waits else 0.0,
        "core.streaming.batches": ingest.get("batches", 0.0),
        "core.streaming.mean_batch": _ratio(
            ingest.get("processed", 0.0), ingest.get("batches", 0.0)
        ),
        "core.streaming.max_queue_depth": ingest.get("max_queue_depth", 0.0),
        "core.streaming.feedback_block_ms": 1000.0 * statistics.median(feedback_waits)
        if feedback_waits else 0.0,
        "telemetry.hub_records": float(hub_records(hub)),
        "accuracy.micro_f1": accuracy["micro_f1"],
        "accuracy.macro_f1": accuracy["macro_f1"],
        "bench.round_s": round_seconds,
        "bench.generator_lag_ms": 1000.0 * generator_lag,
        "bench.backlog_end": float(backlog_end),
        "bench.trace_overhead": trace_overhead,
    }
    for key, name in TIME_METRICS.items():
        values[name] = run_self.get(key, 0.0)
        if f"setup.{name}" in PER_LAYER:
            values[f"setup.{name}"] = setup_self.get(key, 0.0)
    missing = set(PER_LAYER) - set(values)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: values[name] for name in PER_LAYER}
