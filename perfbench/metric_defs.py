"""Every metric the benchmark prints: name -> (unit, which direction is better).

``BENCHMARK.json`` at the root of the repository lists the same names and
units; ``test_arith.py`` checks that the two agree.
"""

from typing import Dict, Tuple

#: End-to-end metrics: name -> (unit, better).
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "label_mean_ms": ("ms", "lower"),
    "label_p90_ms": ("ms", "lower"),
    "incidents_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Per-layer metrics: name -> (unit, better).  ``*_s`` cover the traced
#: round of the measured phase unless prefixed ``setup.`` (``embedding.fit_s``
#: only happens in set-up); counts and ratios cover the traced round.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "embedding.fit_s": ("s", "lower"),
    "setup.embedding.embed_many_s": ("s", "lower"),
    "setup.llm.summarize_many_s": ("s", "lower"),
    "setup.llm.tokenizer.encode_s": ("s", "lower"),
    "setup.core.prediction.self_s": ("s", "lower"),
    "setup.traced_s": ("s", "lower"),
    "embedding.embed_many_s": ("s", "lower"),
    "embedding.texts": ("count", "lower"),
    "llm.summarize_many_s": ("s", "lower"),
    "llm.summaries": ("count", "lower"),
    "llm.cot_predict_many_s": ("s", "lower"),
    "llm.prompts": ("count", "lower"),
    "llm.completions": ("count", "lower"),
    "llm.prompt_tokens": ("count", "lower"),
    "llm.dedup_ratio": ("ratio", "higher"),
    "llm.tokenizer.encode_calls": ("count", "lower"),
    "llm.tokenizer.encode_s": ("s", "lower"),
    "core.prediction.self_s": ("s", "lower"),
    "core.prediction.summary_hit_ratio": ("ratio", "higher"),
    "core.prediction.embedding_hit_ratio": ("ratio", "higher"),
    "vectordb.search_many_s": ("s", "lower"),
    "vectordb.queries": ("count", "lower"),
    "vectordb.scanned_entry_ratio": ("ratio", "lower"),
    "vectordb.shard_count": ("count", "lower"),
    "vectordb.write_s": ("s", "lower"),
    "vectordb.writes": ("count", "lower"),
    "core.collection.collect_s": ("s", "lower"),
    "core.collection.collected_ratio": ("ratio", "higher"),
    "core.streaming.queue_wait_ms": ("ms", "lower"),
    "core.streaming.batches": ("count", "lower"),
    "core.streaming.mean_batch": ("count", "higher"),
    "core.streaming.max_queue_depth": ("count", "lower"),
    "core.streaming.feedback_block_ms": ("ms", "lower"),
    "telemetry.hub_records": ("count", "lower"),
    "accuracy.micro_f1": ("ratio", "higher"),
    "accuracy.macro_f1": ("ratio", "higher"),
    "bench.round_s": ("s", "lower"),
    "bench.generator_lag_ms": ("ms", "lower"),
    "bench.backlog_end": ("count", "lower"),
    "bench.trace_overhead": ("ratio", "lower"),
}
