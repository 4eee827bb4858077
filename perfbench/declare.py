"""Write ``BENCHMARK.json`` from the declarations in ``config.py``.

Usage::

    python3 perfbench/declare.py
"""

from __future__ import annotations

import json
from pathlib import Path

from config import E2E, LAYERS, RUN_SECONDS, WHY, WORKLOADS

TARGET = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declaration() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WHY[name]} for name in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in E2E
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in LAYERS],
    }


def render() -> str:
    return json.dumps(declaration(), indent=2) + "\n"


if __name__ == "__main__":
    TARGET.write_text(render())
