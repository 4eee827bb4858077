"""Tests of the benchmark itself.

Run with ``PYTHONPATH=src python3 -m pytest perfbench -q`` from the
repository root (the default test run collects ``tests/`` only).
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import DiscoveryEngine
from repro.data.wikitables import generate_wikitables_corpus

import declare
from batch import query_vectors, run_approx, run_exs
from config import E2E, LAYERS, WORKLOADS, ApproxBatch, ExsBatch, ServeChurn, engine_knobs
from gen import approx_inputs, exs_inputs, fresh_block, query_pool, serve_inputs, serve_schedule
from measure import result
from oracle import Ranker, oracle_scores
from serve import run_serve
from spans import Tracer

BENCH = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

TINY_EXS = ExsBatch(tables=20, block=4, pool=60, setups=2, warmup_blocks=1)
TINY_APPROX = ApproxBatch(tables=18, block=4, pool=60, recall_queries=6, setups=1,
                          warmup_rounds=1)
TINY_SERVE = ServeChurn(tables=20, pool=40, rate_qps=60.0, warmup_s=0.3,
                        delta_period_s=0.3, rotating=3, cache_capacity=16, setups=2)


# -- determinism ---------------------------------------------------------


def test_same_seed_gives_same_schedules():
    ids = [f"d/r{i}" for i in range(30)]
    a = serve_schedule(TINY_SERVE, 5, 2.0, ids)
    b = serve_schedule(TINY_SERVE, 5, 2.0, ids)
    assert a == b
    assert a["deltas"] and a["phases"]["measured"]
    assert a != serve_schedule(TINY_SERVE, 6, 2.0, ids)
    arrivals = [due for due, _ in a["phases"]["measured"]]
    assert arrivals == sorted(arrivals)
    assert len(arrivals) == round(TINY_SERVE.rate_qps * 2.0)


def test_same_seed_gives_same_queries_and_tables():
    assert query_pool(30, 3) == query_pool(30, 3)
    assert query_pool(30, 3) != query_pool(30, 4)
    first, again = exs_inputs(TINY_EXS, 2), exs_inputs(TINY_EXS, 2)
    values = lambda inp: [(rid, rel.values()) for rid, rel in inp["federation"].relations()]
    assert values(first) == values(again)
    assert first["pool"] == again["pool"]


def test_fresh_blocks_never_repeat_a_query():
    pool = ["a", "b", "c"]
    stream = fresh_block(pool, 0, 10)
    assert len(set(stream)) == 10
    assert fresh_block(pool, 4, 3) == stream[4:7]


# -- the oracle ----------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_engine():
    corpus = generate_wikitables_corpus(n_tables=20, seed=0)
    with DiscoveryEngine(**engine_knobs(query_cache=False)) as engine:
        engine.index(corpus.federation())
        yield engine


def test_oracle_agrees_with_engine(tiny_engine):
    texts = query_pool(12, 0)
    results = tiny_engine.search_batch(texts, method="exs", k=5, h=0.0)
    relations = tiny_engine.embeddings.relations
    ranker = Ranker([r.relation_id for r in relations])
    scores = oracle_scores(relations, query_vectors(tiny_engine, texts))
    for j, res in enumerate(results):
        assert ranker.check(res.matches, scores[:, j], 5, 0.0)
        assert ranker.overlap(res.matches, scores[:, j], 5, 0.0) == 1.0
        assert [relations[i].relation_id for i in ranker.top(scores[:, j], 5, 0.0)] == [
            m.relation_id for m in res.matches
        ]


def test_oracle_rejects_wrong_answers(tiny_engine):
    texts = query_pool(6, 1)
    results = tiny_engine.search_batch(texts, method="exs", k=5, h=0.0)
    relations = tiny_engine.embeddings.relations
    ranker = Ranker([r.relation_id for r in relations])
    scores = oracle_scores(relations, query_vectors(tiny_engine, texts))
    matches = list(results[0].matches)
    swapped = [matches[-1], *matches[1:-1], matches[0]]
    assert not ranker.check(swapped, scores[:, 0], 5, 0.0)
    assert not ranker.check(matches[:-1], scores[:, 0], 5, 0.0)
    assert not ranker.check([matches[0], *matches[:-1]], scores[:, 0], 5, 0.0)


def test_ranker_breaks_ties_by_relation_id():
    ranker = Ranker(["b", "a", "c"])
    assert list(ranker.top(np.array([0.5, 0.5, 0.9]), 3, 0.0)) == [2, 1, 0]


# -- metric names and outputs --------------------------------------------


def test_metric_names_are_valid_and_unique():
    names = [m[0] for m in E2E] + [m[0] for m in LAYERS]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert "setup_s" in [m[0] for m in E2E]
    assert all(0 < bound <= 0.25 for *_, bound in E2E)


def test_benchmark_json_matches_the_declaration():
    assert (BENCH.parent / "BENCHMARK.json").read_text() == declare.render()
    assert [w["name"] for w in declare.declaration()["workloads"]] == list(WORKLOADS)


def assert_complete(outcome, trace: bool):
    record = result(outcome, trace)
    declared = [m[0] for m in (LAYERS if trace else E2E)]
    assert list(record["metrics"]) == declared
    assert all(math.isfinite(m["value"]) for m in record["metrics"].values())
    assert record["correct"] and record["attempted"] >= 1 and record["failed"] == 0
    json.dumps(record)
    return record


@pytest.mark.parametrize("trace", [False, True])
def test_exs_batch_reports_every_metric(trace):
    tracer = Tracer() if trace else None
    inputs = exs_inputs(TINY_EXS, 1)
    if tracer is None:
        outcome = run_exs(TINY_EXS, inputs, 0.5, None)
    else:
        with tracer:
            outcome = run_exs(TINY_EXS, inputs, 0.5, tracer)
    record = assert_complete(outcome, trace)
    if trace:
        assert record["metrics"]["exs.materialize_ms"]["value"] > 0
    else:
        assert record["metrics"]["recall_at_10"]["value"] == 1.0


@pytest.mark.parametrize("trace", [False, True])
def test_approx_batch_reports_every_metric(trace):
    tracer = Tracer() if trace else None
    inputs = approx_inputs(TINY_APPROX, 1)
    if tracer is None:
        outcome = run_approx(TINY_APPROX, inputs, 0.5, None)
    else:
        with tracer:
            outcome = run_approx(TINY_APPROX, inputs, 0.5, tracer)
    record = assert_complete(outcome, trace)
    if trace:
        assert record["metrics"]["anns.block_p50_ms"]["value"] > 0


@pytest.mark.parametrize("trace", [False, True])
def test_serve_churn_reports_every_metric(trace, tmp_path):
    tracer = Tracer() if trace else None
    inputs = serve_inputs(TINY_SERVE, 1, 1.0, tmp_path)
    if tracer is None:
        outcome = run_serve(TINY_SERVE, inputs, 1.0, None)
    else:
        with tracer:
            outcome = run_serve(TINY_SERVE, inputs, 1.0, tracer)
    record = assert_complete(outcome, trace)
    if trace:
        assert record["metrics"]["engine.delta_p50_ms"]["value"] > 0


# -- the command ---------------------------------------------------------


def run_cli(cwd: Path, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exs-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60,
    )


def test_refuses_repro_environment_overrides():
    proc = run_cli(BENCH.parent, {**os.environ, "REPRO_EXECUTOR": "inline"})
    assert proc.returncode == 2
    assert "REPRO_EXECUTOR" in proc.stderr and not proc.stdout.strip()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".*"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONPATH", None)
    proc = run_cli(tmp_path, env)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
