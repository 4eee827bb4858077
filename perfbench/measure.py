"""The measured process: one workload over inputs written by ``gen.py``.

Usage::

    python3 perfbench/measure.py --workload exs-batch --seconds 10 --trace 0 --inputs DIR

Prints the metrics as a table and, as its last line, the JSON result.
Exits 1 when any operation failed or returned a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import sys
from pathlib import Path

from batch import run_approx, run_exs
from config import E2E, FIXED_ENV, LAYERS, WORKLOADS
from harness import CpuRotation, Outcome
from serve import run_serve
from spans import Tracer

RUNNERS = {"exs-batch": run_exs, "serve-churn": run_serve, "approx-batch": run_approx}


def result(outcome: Outcome, trace: bool) -> dict:
    """The result record: every end-to-end metric, or with ``trace``
    every per-layer metric (0 for a layer the workload does not use)."""
    if trace:
        values = {name: (outcome.layers.get(name, 0.0), unit) for name, unit, _ in LAYERS}
    else:
        values = {name: (outcome.e2e[name], unit) for name, unit, _, _ in E2E}
    for name, (value, _) in values.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": float(v), "unit": u} for n, (v, u) in values.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args()
    with open(args.inputs / "inputs.pkl", "rb") as fh:
        inputs = pickle.load(fh)  # written by gen.py for this run
    tracer = Tracer() if args.trace else None
    runner = RUNNERS[args.workload]
    with CpuRotation():
        if tracer is None:
            outcome = runner(WORKLOADS[args.workload], inputs, args.seconds, None)
        else:
            with tracer:
                outcome = runner(WORKLOADS[args.workload], inputs, args.seconds, tracer)
    if tracer is not None and args.trace_out is not None:
        tracer.dump(args.trace_out)
    record = result(outcome, bool(args.trace))
    env = " ".join(f"{k}={os.environ.get(k, '')}" for k in FIXED_ENV)
    print(f"# {args.workload} seconds={args.seconds:g} trace={args.trace} {env}")
    for key, value in outcome.info.items():
        print(f"# {key}: {value}")
    for name, metric in record["metrics"].items():
        print(f"{name:<30} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{'attempted':<30} {record['attempted']:>14d}")
    print(f"{'failed':<30} {record['failed']:>14d}")
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
