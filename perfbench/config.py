"""Fixed knobs and sizes of the three benchmark workloads.

Every engine knob is passed explicitly (never read from ``REPRO_*``
environment variables), so a run measures the same configuration on
every machine.  Sizes are chosen so one run of each workload fits the
run length and still yields at least 100 requests, which puts ten
samples beyond ``latency_p90_ms``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Environment of the generator and measured processes.  One BLAS thread
#: keeps the GEMM timing free of thread-pool wake-ups on small hosts;
#: a fixed hash seed fixes set iteration order across runs.
FIXED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

DIM = 128
K = 10
H = 0.0


def engine_knobs(query_cache: object) -> dict:
    """Every ``DiscoveryEngine`` constructor knob, spelled out."""
    return {
        "dim": DIM,
        "method_params": {},
        "shards": 1,
        "shard_seed": 0,
        "dtype": np.float32,
        "executor": "thread",
        "sanitize": False,
        "query_cache": query_cache,
    }


@dataclass(frozen=True)
class ExsBatch:
    """Closed-loop ExS ``search_batch`` over a large federation."""

    tables: int = 2000
    block: int = 8
    pool: int = 4000
    setups: int = 3
    warmup_blocks: int = 4
    slo_ms: float = 250.0


@dataclass(frozen=True)
class ApproxBatch:
    """Closed-loop ANNS + CTS blocks; one request is one block of each."""

    tables: int = 24
    block: int = 8
    pool: int = 4000
    recall_queries: int = 512
    setups: int = 3
    warmup_rounds: int = 3
    slo_ms: float = 250.0


@dataclass(frozen=True)
class ServeChurn:
    """Open-loop Poisson traffic through ``ServingEngine`` with deltas."""

    tables: int = 600
    pool: int = 2000
    zipf_s: float = 1.1
    rate_qps: float = 120.0
    warmup_s: float = 1.0
    delta_period_s: float = 0.5
    rotating: int = 8
    cache_capacity: int = 512
    window_ms: float = 3.0
    max_batch: int = 32
    max_queue: int = 256
    dispatch_workers: int = 2
    setups: int = 5
    slo_ms: float = 50.0


WORKLOADS = {
    "exs-batch": ExsBatch(),
    "serve-churn": ServeChurn(),
    "approx-batch": ApproxBatch(),
}


#: Why each workload exists (``BENCHMARK.json`` ``why``, one line each).
WHY = {
    "exs-batch": (
        "ExS search_batch, 2000 tables (~68k vectors), 8 fresh queries per call, one "
        "closed-loop caller; match objects, sort and GC dominate; cache, serving, writes idle; "
        "SLO 250 ms"
    ),
    "serve-churn": (
        "submit at 120/s Poisson, Zipf(1.1) over 2000 texts, 600 tables via mmap, query "
        "cache 512, update_relations every 0.5 s; SLO 50 ms"
    ),
    "approx-batch": (
        "ANNS (hnsw+pq) then CTS (UMAP+HDBSCAN) blocks of 8 fresh queries over 24 tables; "
        "builds dominate set-up, Python query paths dominate calls; SLO 250 ms"
    ),
}

#: End-to-end metrics: ``(name, unit, better, bound)``.  Every workload
#: reports every one of them; a request is one ``search_batch`` call
#: (exs-batch), one ANNS block plus one CTS block (approx-batch), or one
#: ``submit`` timed from when it was due (serve-churn).
E2E = [
    ("setup_s", "s", "lower", 0.25),
    ("qps", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("slo_ratio", "ratio", "higher", 0.05),
    ("recall_at_10", "ratio", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

#: Per-layer metrics of the traced run: ``(name, unit, better)``.  A layer that
#: does no work on a workload reports 0 there.
LAYERS = [
    ("embedding.encode_ms", "ms", "lower"),
    ("embedding.cache_hit_ratio", "ratio", "higher"),
    ("embedding.index_s", "s", "lower"),
    ("linalg.gemm_ms", "ms", "lower"),
    ("linalg.gemm_gflop", "GFLOP", "lower"),
    ("linalg.gemm_mb", "MB", "lower"),
    ("linalg.segment_ms", "ms", "lower"),
    ("exs.materialize_ms", "ms", "lower"),
    ("exs.matches_per_block", "count", "lower"),
    ("exs.rank_ms", "ms", "lower"),
    ("exs.block_p50_ms", "ms", "lower"),
    ("runtime.gc_ms", "ms", "lower"),
    ("runtime.gc_share", "ratio", "lower"),
    ("runtime.gc_gen2", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.near_hit_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.probe_ms", "ms", "lower"),
    ("serving.window_wait_p50_ms", "ms", "lower"),
    ("serving.window_wait_p99_ms", "ms", "lower"),
    ("serving.dispatch_ms", "ms", "lower"),
    ("serving.batch_fill", "count", "higher"),
    ("serving.queue_depth_max", "count", "lower"),
    ("serving.shed", "count", "lower"),
    ("serving.rejected", "count", "lower"),
    ("serving.e2e_p99_ms", "ms", "lower"),
    ("harness.gen_late_p99_ms", "ms", "lower"),
    ("engine.delta_p50_ms", "ms", "lower"),
    ("engine.delta_p90_ms", "ms", "lower"),
    ("engine.delta_encode_ms", "ms", "lower"),
    ("exs.delta_ms", "ms", "lower"),
    ("engine.p99_during_delta_ms", "ms", "lower"),
    ("storage.load_ms", "ms", "lower"),
    ("anns.block_p50_ms", "ms", "lower"),
    ("anns.build_s", "s", "lower"),
    ("vectordb.probes_per_query", "count", "lower"),
    ("vectordb.points_per_query", "count", "lower"),
    ("anns.recall_at_10", "ratio", "higher"),
    ("cts.block_p50_ms", "ms", "lower"),
    ("cts.build_s", "s", "lower"),
    ("cts.route_ms", "ms", "lower"),
    ("cts.recall_at_10", "ratio", "higher"),
    ("trace.uncovered_share", "ratio", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("harness.fail_ratio", "ratio", "lower"),
    ("harness.requests", "count", "higher"),
]

#: Seconds one run measures (``BENCHMARK.json`` ``run_seconds``).
RUN_SECONDS = 10
