"""Run one benchmark workload; the result is the last line printed.

Usage::

    python3 perfbench/run.py --workload exs-batch --seed 1 --seconds 10 --trace 0

Inputs are synthesised from ``--seed`` by ``gen.py`` in one process;
``measure.py`` runs the workload in a second, so generator state stays
out of the measured heap.  Both run with a fixed hash seed and one BLAS
thread, from the ``src/`` tree of the checkout this file sits in.  The
run refuses to start when any ``REPRO_*`` variable is set, since those
would change engine defaults behind the benchmark's back.  Exits 0 only
when every operation succeeded with a correct answer.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from config import FIXED_ENV, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Whole-run budget; a run past it is stopped and fails.
BUDGET_S = 170.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    overrides = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if overrides:
        print(f"refusing to run with {', '.join(overrides)} set", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = {**os.environ, **FIXED_ENV, "PYTHONPATH": str(ROOT / "src")}
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    deadline = time.monotonic() + BUDGET_S
    common = ["--workload", args.workload, "--seconds", str(args.seconds)]
    try:
        gen = subprocess.run(
            [sys.executable, str(BENCH / "gen.py"), *common,
             "--seed", str(args.seed), "--out", str(work)],
            env=env, cwd=ROOT, timeout=deadline - time.monotonic(),
        )
        if gen.returncode != 0:
            print("input generation failed", file=sys.stderr)
            return 1
        measure = [sys.executable, str(BENCH / "measure.py"), *common,
                   "--trace", str(args.trace), "--inputs", str(work)]
        if args.trace:
            measure += ["--trace-out", str(BENCH / ".traces" / f"{args.workload}.jsonl")]
        proc = subprocess.run(
            measure, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=deadline - time.monotonic(),
        )
    except subprocess.TimeoutExpired:
        print(f"run exceeded {BUDGET_S:.0f} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 and not (lines and lines[-1].startswith("{")):
        sys.stdout.write(proc.stdout)
        print("measured process failed without a result", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
