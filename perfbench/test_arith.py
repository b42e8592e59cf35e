"""Checks of the benchmark's own arithmetic.

Run with ``python3 perfbench/test_arith.py`` (or point pytest at this file).
They need nothing but the standard library: the percentile rule, self time
of nested and cross-thread spans, counters under re-entrancy, due-time
latency when the generator runs late, and the arrival schedule.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import threading

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from metric_defs import END_TO_END, PER_LAYER  # noqa: E402
from spans import Tracer  # noqa: E402
from stats import (  # noqa: E402
    arrival_offsets,
    due_latencies,
    median,
    more_rounds,
    percentile,
    tail,
    tail_percentile,
)


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ------------------------------------------------------------- percentiles
def test_nearest_rank_percentile() -> None:
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile(values, 0) == 1
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.0


def test_tail_leaves_exactly_ten_samples_beyond() -> None:
    assert tail_percentile(1000) == 99.0
    for count in range(11, 3001):
        q = tail_percentile(count)
        values = list(range(count))
        reported = percentile(values, q)
        beyond = sum(1 for value in values if value > reported)
        assert beyond == 10, (count, q, beyond)
        # No higher percentile keeps ten samples beyond it.
        assert sum(1 for value in values if value > reported + 1) < 10


def test_tail_needs_more_than_ten_samples() -> None:
    for count in (0, 5, 10):
        try:
            tail_percentile(count)
        except ValueError:
            continue
        raise AssertionError(f"tail_percentile({count}) should refuse")


def test_tail_value() -> None:
    q, value = tail([float(v) for v in range(1, 1001)])
    assert q == 99.0 and value == 990.0


# ---------------------------------------------------------------- latency
def test_due_time_latency_counts_generator_lag() -> None:
    due = [0.0, 1.0, 2.0]
    # The generator sent the last two half a second late; each finished 0.1s
    # after it was sent.  Latency runs from the due time, so the lag counts.
    done = [0.1, 1.6, 2.6]
    assert [round(x, 9) for x in due_latencies(due, done)] == [0.1, 0.6, 0.6]


def test_unfinished_request_misses_every_limit() -> None:
    latencies = due_latencies([0.0, 1.0], [0.5, None])
    assert latencies[0] == 0.5 and math.isinf(latencies[1])
    assert percentile(latencies, 100) == math.inf


def test_closed_loop_rounds_stay_inside_the_budget() -> None:
    assert more_rounds(0, 0.0, 10.0)  # the first round always runs
    assert more_rounds(0, 50.0, 10.0)
    assert not more_rounds(1, 10.5, 10.0)  # a second 10.5s round would overrun
    assert more_rounds(2, 6.0, 10.0)  # three 3s rounds fit in 10s
    assert not more_rounds(3, 9.0, 10.0)


# -------------------------------------------------------------- self time
class Index:
    """A stand-in layer object whose search re-enters itself once."""

    def __init__(self, clock: FakeClock) -> None:
        self.clock = clock

    def search_many(self, queries, dedup=True):
        self.clock.advance(1.0)
        if dedup and len(queries) > 1:
            self.search_many(queries[:1], dedup=False)  # re-entrant call
        self.clock.advance(1.0)
        return [[] for _ in queries]


class Model:
    def __init__(self, clock: FakeClock) -> None:
        self.clock = clock

    def complete(self, prompt):
        self.clock.advance(0.5)
        return prompt


class Summarizer:
    def __init__(self, clock: FakeClock, model: Model) -> None:
        self.clock = clock
        self.model = model

    def summarize_many(self, texts):
        self.clock.advance(0.25)
        return [self.model.complete(text) for text in texts]


def test_reentrant_span_counts_time_and_queries_once() -> None:
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    index = Index(clock)
    tracer.wrap(index, "search_many", "vectordb", "vectordb.search_many",
                count=lambda a, k, r: {"queries": len(r)})
    index.search_many([1, 2, 3])
    # Outer span 0..4 holds the inner span 1..3: the key's time is the 4s
    # of wall time, not the 6s a flat sum of wrapper times would report.
    assert tracer.self_seconds() == {"vectordb.search_many": 4.0}
    assert tracer.counters["queries"] == 3
    assert [s.self_seconds for s in tracer.spans] == [2.0, 2.0]
    tracer.unwrap_all()
    assert "search_many" not in vars(index)


def test_same_layer_child_inherits_key_other_layers_do_not() -> None:
    clock = FakeClock()
    tracer = Tracer(home_keys={"llm": "llm.model"}, clock=clock)
    model = Model(clock)
    summarizer = Summarizer(clock, model)
    tracer.wrap(summarizer, "summarize_many", "llm", "llm.summarize_many")
    tracer.wrap(model, "complete", "llm",
                count=lambda a, k, r: {"completions": 1})
    summarizer.summarize_many(["a", "b"])
    model.complete("direct")
    assert tracer.self_seconds() == {"llm.summarize_many": 1.25, "llm.model": 0.5}
    # A method with no explicit key counts per call, even nested in a span
    # whose key it inherits.
    assert tracer.counters["completions"] == 3


def test_cross_thread_span_is_a_root_on_its_own_thread() -> None:
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    model = Model(clock)
    tracer.wrap(model, "complete", "llm", "llm.model")
    outer = tracer.open("core.prediction", "core.prediction")
    clock.advance(1.0)
    worker = threading.Thread(target=model.complete, args=("x",))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    clock.advance(1.0)
    tracer.close(outer)
    by_key = {span.key: span for span in tracer.spans}
    assert by_key["llm.model"].parent is None
    # The waiting thread's span keeps its whole duration as self time.
    assert by_key["core.prediction"].self_seconds == 2.5
    budget = tracer.thread_budget()
    assert len(budget) == 2
    for self_total, wall in budget.values():
        assert self_total <= wall


def test_thread_self_times_never_exceed_wall() -> None:
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    index = Index(clock)
    model = Model(clock)
    summarizer = Summarizer(clock, model)
    tracer.wrap(index, "search_many", "vectordb", "vectordb.search_many")
    tracer.wrap(summarizer, "summarize_many", "llm", "llm.summarize_many")
    tracer.wrap(model, "complete", "llm")
    outer = tracer.open("core.prediction", "core.prediction")
    index.search_many([1, 2])
    summarizer.summarize_many(["a"])
    tracer.close(outer)
    ((self_total, wall),) = tracer.thread_budget().values()
    assert self_total == wall == outer.seconds


def test_spans_close_in_order() -> None:
    tracer = Tracer(clock=FakeClock())
    first = tracer.open("a", "a")
    tracer.open("b", "b")
    try:
        tracer.close(first)
    except RuntimeError:
        return
    raise AssertionError("closing a span below the top must fail")


# ---------------------------------------------------------- the contract
def test_arrivals_fill_the_window_at_the_offered_rate() -> None:
    offsets = arrival_offsets(10.0, 320, random.Random(7))
    assert len(offsets) == 320 and offsets[0] == 0.0
    assert offsets == sorted(offsets) and offsets[-1] <= 32.0
    assert offsets == arrival_offsets(10.0, 320, random.Random(7))
    assert offsets != arrival_offsets(10.0, 320, random.Random(8))


def test_benchmark_json_lists_the_printed_metrics() -> None:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    if not os.path.exists(path):
        return  # a copy of this directory without the repository around it
    with open(path, encoding="utf-8") as handle:
        declared = json.load(handle)
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]} == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])


def main() -> int:
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
