"""Repeat mode: run a workload N times on consecutive seeds and show
how steady each metric is against its bound.

Usage::

    python3 perfbench/repeat.py --workload exs-batch --runs 10 --seed 100
    python3 perfbench/repeat.py --workload all --runs 5 --seed 1 --out runs.json

For each metric it prints the median, the quartiles, min and max, the
spread (quartile distance over the median, as ``statistics.quantiles``
gives it) and the metric's bound; a spread above a third of the bound is
marked ``WIDE`` and one above the bound ``OVER``.  Exits 1 if any run
failed or reported a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from config import E2E, RUN_SECONDS, WORKLOADS

BENCH = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=BENCH.parent, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)``."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def report(workload: str, runs: list[dict]) -> None:
    bounds = {name: bound for name, _, _, bound in E2E}
    print(f"\n== {workload}: {len(runs)} runs")
    print(f"{'metric':<30} {'median':>11} {'q1':>11} {'q3':>11} {'min':>11} {'max':>11}"
          f" {'spread':>7} {'bound':>6}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, rel = spread(values)
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "OVER" if rel > bound else "WIDE" if rel > bound / 3 else "ok"
        print(f"{name:<30} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} {min(values):>11.5g}"
              f" {max(values):>11.5g} {rel:>7.3f} {bound if bound is not None else '':>6} {flag}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--out", type=Path, help="also write every run's result here")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to show a spread")
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    failures = 0
    collected = {}
    for workload in workloads:
        runs = []
        for seed in range(args.seed, args.seed + args.runs):
            record = run_once(workload, seed, args.seconds)
            if record is None or not record["correct"]:
                failures += 1
                print(f"{workload} seed {seed}: failed", file=sys.stderr)
                continue
            runs.append(record)
        collected[workload] = runs
        if len(runs) >= 2:
            report(workload, runs)
    if args.out is not None:
        args.out.write_text(json.dumps(collected, indent=1))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
