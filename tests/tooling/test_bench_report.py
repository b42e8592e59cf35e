"""Tests for the benchmark trend-report tool (``benchmarks/bench_report.py``)."""

from __future__ import annotations

import json
import os
import sys

BENCHMARKS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "benchmarks",
)
if BENCHMARKS_DIR not in sys.path:
    sys.path.insert(0, BENCHMARKS_DIR)

import bench_report  # noqa: E402


THROUGHPUT = {
    "benchmark": "throughput_batch",
    "config": {"quick_mode": False},
    "results": {"1000": {"speedup": 4.0}, "10000": {"speedup": 6.5}},
    "collect_bound": {"speedup": 3.1},
    "bursty_autoscale": {
        "autoscaled": {
            "wall_ratio_vs_best_static": 0.95,
            "worker_seconds_ratio_vs_best_static": 0.8,
        }
    },
}

RETRIEVAL = {
    "benchmark": "retrieval_sharded",
    "config": {"quick_mode": True},
    "speedups": {
        "sharded_over_flat_live": 3.7,
        "parallel_over_sequential_live": 1.6,
    },
    "stats": {"scanned_shard_ratio": 0.05},
    # Blocks of retired retrieval profiles, as older archives carry them.
    "process": {"speedup_replay": 2.1, "arena_bytes": 110_000_000},
    "quantized_prefilter": {"speedup_live": 1.2},
}


def write_run(directory, throughput=None, retrieval=None):
    os.makedirs(directory, exist_ok=True)
    if throughput is not None:
        with open(os.path.join(directory, "BENCH_throughput.json"), "w") as handle:
            json.dump(throughput, handle)
    if retrieval is not None:
        with open(os.path.join(directory, "BENCH_retrieval.json"), "w") as handle:
            json.dump(retrieval, handle)


def test_report_renders_trend_across_runs(tmp_path):
    write_run(tmp_path / "run-a", throughput=THROUGHPUT, retrieval=RETRIEVAL)
    write_run(tmp_path / "run-b", throughput=THROUGHPUT)
    runs = [bench_report.load_run(str(tmp_path / name)) for name in ("run-a", "run-b")]
    report = bench_report.render_report(runs)
    assert "| section | metric | run-a | run-b |" in report
    # Best history-size speedup picks the max across sizes.
    assert "| throughput | batch vs sequential speedup (best history size) | 6.50 | 6.50 |" in report
    assert "| throughput | autoscaled wall vs best static (bursty) | 0.95 | 0.95 |" in report
    # run-b has no retrieval artifact: its retrieval cells show "—".
    assert "| retrieval | sharded vs flat speedup (live) | 3.70 | — |" in report
    assert "run-a: quick" in report and "run-b: full" in report


def test_retired_retrieval_blocks_render_without_rows(tmp_path):
    """Archives recorded while the process-scoring backend and the int8
    prefilter existed carry a block for each; the report still renders
    such archives, and has no rows for those blocks."""
    write_run(tmp_path / "old", retrieval=RETRIEVAL)
    report = bench_report.render_report([bench_report.load_run(str(tmp_path / "old"))])
    assert "| retrieval | scanned shard ratio | 0.05 |" in report
    assert "process" not in report
    assert "prefilter" not in report


def test_report_survives_garbage_payloads(tmp_path):
    run = tmp_path / "broken"
    os.makedirs(run)
    (run / "BENCH_throughput.json").write_text("{not json")
    (run / "BENCH_retrieval.json").write_text(json.dumps({"speedups": "nope"}))
    report = bench_report.render_report([bench_report.load_run(str(run))])
    # Every metric degrades to a "—" cell; the report itself renders.
    assert "| throughput | collect-bound pool speedup (4 workers) | — |" in report


def test_pre_tenancy_archives_render_missing_tenant_cells(tmp_path):
    """Regression: archives recorded before the ``tenants`` block existed
    must render "—" for the tenancy rows, not crash or mis-render."""
    write_run(tmp_path / "old", throughput=THROUGHPUT)  # no "tenants" block
    tenanted = dict(
        THROUGHPUT,
        tenants={"steady_p95_ratio": 1.08, "bursty_shed": 12},
    )
    write_run(tmp_path / "new", throughput=tenanted)
    runs = [bench_report.load_run(str(tmp_path / name)) for name in ("old", "new")]
    report = bench_report.render_report(runs)
    assert (
        "| throughput | tenants steady p95 wall vs solo (fair share) | — | 1.08 |"
        in report
    )
    assert "| throughput | tenants bursty alerts shed by quota | — | 12 |" in report


def test_cli_writes_output_file(tmp_path, capsys):
    write_run(tmp_path / "run", throughput=THROUGHPUT)
    output = tmp_path / "BENCH_report.md"
    code = bench_report.main([str(tmp_path / "run"), "-o", str(output)])
    assert code == 0
    assert "Benchmark trend report" in output.read_text()
    assert str(output) in capsys.readouterr().out
