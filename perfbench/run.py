#!/usr/bin/env python3
"""Run one benchmark workload against the program in ``src/`` of this checkout.

Usage (from the root of the checkout)::

    python3 perfbench/run.py --workload paper-replay --seed 1 --seconds 40 --trace 0

Workloads: ``paper-replay`` and ``stream-live``, the two ``BENCHMARK.json``
bounds, and ``history-10k``, which runs the same way but is too unsteady on
a shared 2-core host to bound (see ``perfbench/DESIGN.md``).  With
``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of a traced round instead.  A broken
correctness check exits with code 1 and prints no result; a checkout
without ``src/repro`` exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from metric_defs import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parent.parent



def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-replay", "stream-live", "history-10k"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {src / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS, CheckFailed

    try:
        attempted, failed, metrics, info = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace)
        )
    except CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        return 1
    definitions = PER_LAYER if args.trace else END_TO_END
    for name, value in info.items():
        print(f"# {name}: {value}")
    for name, value in metrics.items():
        unit, better = definitions[name]
        print(f"{name:40s} {value:14.6f} {unit:6s} ({better} is better)")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": definitions[name][0]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
