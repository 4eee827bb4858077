"""The closed-loop workloads: ``exs-batch`` and ``approx-batch``.

One caller sends the next ``search_batch`` block as soon as the last
one returns.  Every block is made of queries the engine has not seen,
so encoding is real work.  Answers are kept and checked after the
measured phase: ExS answers against the numpy oracle, ANNS and CTS
answers against a direct ``search_batch`` of the method on the same
block.

In a traced run every other block is replayed through the layers'
public entry points, one call at a time, each inside a span:
``FederationEmbeddings.encode_query`` per query, the scan matrix times
the query block, ``repro.linalg.segment_scores``,
``ExhaustiveSearch.matches_from_scores``, then threshold, sort and
top-k.  The blocks in between run untraced, so the two kinds of block
give the tracing overhead under the same conditions.
"""

from __future__ import annotations

import gc
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.core.engine import DiscoveryEngine
from repro.core.results import SearchResult, same_ranking
from repro.linalg import segment_scores

from config import H, K, ApproxBatch, ExsBatch, engine_knobs
from harness import Outcome, Stream, median, pct, peak_rss_mb, ratio, repeated_setup
from oracle import Ranker, oracle_scores
from spans import Tracer

#: Oracle queries scored per pass; bounds the float64 score matrix.
ORACLE_CHUNK = 1024


@dataclass
class Request:
    """One closed-loop request: one or more blocks and their answers."""

    blocks: list  # [(method, texts, results or None)]
    seconds: float
    traced: bool = False
    wrong: int = 0
    error: bool = False

    @property
    def queries(self) -> int:
        return sum(len(texts) for _, texts, _ in self.blocks)


def span(tracer: Tracer | None, name: str, request: object = None):
    return nullcontext() if tracer is None else tracer.span(name, request)


def call(engine: DiscoveryEngine, method: str, texts: list[str]) -> list[SearchResult] | None:
    try:
        return list(engine.search_batch(texts, method=method, k=K, h=H, workers=1))
    except Exception:  # a failed call is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return None


def closed_loop(seconds: float, step) -> tuple[list[Request], float]:
    """Call ``step(i)`` back to back for ``seconds``; returns requests, wall time."""
    requests = []
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        requests.append(step(len(requests)))
    return requests, time.perf_counter() - start


def query_vectors(engine: DiscoveryEngine, texts: list[str]) -> np.ndarray:
    store = engine.embeddings
    return np.stack([store.encode_query(t) for t in texts]).astype(np.float32)


def check_exs(engine: DiscoveryEngine, answers: list[tuple[str, SearchResult | None]]):
    """Check ExS answers against the oracle.

    Returns ``(ok, overlap)``: per answer whether it is a correct
    top-k, and its overlap with the exact top-k.
    """
    relations = engine.embeddings.relations
    ranker = Ranker([r.relation_id for r in relations])
    ok, overlap = [], []
    for lo in range(0, len(answers), ORACLE_CHUNK):
        chunk = answers[lo : lo + ORACLE_CHUNK]
        scores = oracle_scores(relations, query_vectors(engine, [t for t, _ in chunk]))
        for j, (_, result) in enumerate(chunk):
            if result is None:
                ok.append(False)
                overlap.append(0.0)
                continue
            ok.append(ranker.check(result.matches, scores[:, j], K, H))
            overlap.append(ranker.overlap(result.matches, scores[:, j], K, H))
    return ok, overlap


def replay_exs(tracer: Tracer, engine: DiscoveryEngine, texts: list[str], top: str, rid):
    """One ExS block through the layers' public calls, each in a span."""
    method = engine.method("exs")
    spec = method.scan_spec()
    store = engine.embeddings
    with tracer.span(top, rid):
        vectors = []
        for text in texts:
            with tracer.span("embedding.encode"):
                vectors.append(store.encode_query(text))
        block = np.stack(vectors).astype(method.dtype, copy=False)
        with tracer.span("linalg.gemm"):
            sims = spec.matrix @ block.T
        with tracer.span("linalg.segment"):
            scores = segment_scores(
                sims, spec.offsets, spec.weights,
                aggregate=spec.aggregate, top_fraction=spec.top_fraction,
            )
        with tracer.span("exs.materialize"):
            per_query = method.matches_from_scores(scores)
        with tracer.span("exs.rank"):
            ranked = [
                sorted(
                    (m for m in matches if m.score >= H),
                    key=lambda m: (-m.score, m.relation_id),
                )[:K]
                for matches in per_query
            ]
    shape = {"rows": spec.matrix.shape[0], "dim": spec.matrix.shape[1],
             "queries": block.shape[0], "itemsize": spec.matrix.itemsize,
             "matches": sum(len(m) for m in per_query)}
    return [SearchResult(q, "exs", m) for q, m in zip(texts, ranked)], shape


def traced_exs_block(
    tracer: Tracer, engine: DiscoveryEngine, texts: list[str], top: str, rid
) -> tuple[list[SearchResult] | None, int, dict]:
    """Replay one block, then answer it directly; returns the direct
    answers, the number of replayed answers that differ, and the shape."""
    replayed, shape = replay_exs(tracer, engine, texts, top, rid)
    direct = call(engine, "exs", texts)
    if direct is None:
        return None, len(texts), shape
    differ = sum(not same_ranking(a, b) for a, b in zip(replayed, direct))
    return direct, differ, shape


def exs_layers(tracer: Tracer, top: str, since: float, shapes: list[dict]) -> dict:
    """Per-block self times of the replayed ExS layers (ms, medians)."""
    children = tracer.children()
    tops = tracer.closed(top, since)
    rids = {tracer.spans[i][4] for i in tops}
    out = {}
    for name, metric in (
        ("embedding.encode", "embedding.encode_ms"),
        ("linalg.gemm", "linalg.gemm_ms"),
        ("linalg.segment", "linalg.segment_ms"),
        ("exs.materialize", "exs.materialize_ms"),
        ("exs.rank", "exs.rank_ms"),
    ):
        per_block = tracer.self_by_request(name, rids, children)
        out[metric] = 1000.0 * median(list(per_block.values()))
    out["exs.block_p50_ms"] = 1000.0 * median([tracer.duration(i) for i in tops])
    if shapes:
        s = shapes[0]
        flop = 2.0 * s["rows"] * s["dim"] * s["queries"]
        moved = (s["rows"] * s["dim"] * s["itemsize"] + s["queries"] * s["dim"] * 4
                 + s["rows"] * s["queries"] * s["itemsize"])
        out["linalg.gemm_gflop"] = flop / 1e9
        out["linalg.gemm_mb"] = moved / 1e6
        out["exs.matches_per_block"] = float(median([x["matches"] for x in shapes]))
    return out


def trace_summary(tracer: Tracer, top: str, since: float, untraced: list[float]) -> dict:
    """Uncovered share of the traced requests and the tracing overhead."""
    children = tracer.children()
    tops = tracer.closed(top, since)
    uncovered = [ratio(tracer.self_time(i, children), tracer.duration(i)) for i in tops]
    traced_ms = 1000.0 * median([tracer.duration(i) for i in tops])
    return {
        "trace.uncovered_share": median(uncovered),
        "trace.overhead_ms": traced_ms - 1000.0 * median(untraced),
    }


def gc_layers(tracer: Tracer, since: float, wall: float, requests: int) -> dict:
    pause, full = tracer.gc_pauses(since)
    return {
        "runtime.gc_ms": 1000.0 * ratio(pause, requests),
        "runtime.gc_share": ratio(pause, wall),
        "runtime.gc_gen2": float(full),
    }


def encoder_counts(engine: DiscoveryEngine) -> np.ndarray:
    """Encoder-cache ``(hits, misses)`` so far."""
    return np.array([engine.metrics.counter(f"encoder_cache.{c}").value
                     for c in ("hits", "misses")])


class EncoderTally:
    """Encoder-cache hits and misses of the untraced requests only (the
    check call after a replayed block re-encodes from the cache)."""

    def __init__(self, engine: DiscoveryEngine) -> None:
        self.engine = engine
        self.counts = np.zeros(2)

    def call(self, method: str, texts: list[str]) -> list[SearchResult] | None:
        before = encoder_counts(self.engine)
        results = call(self.engine, method, texts)
        self.counts += encoder_counts(self.engine) - before
        return results

    @property
    def hit_ratio(self) -> float:
        return ratio(self.counts[0], self.counts.sum())


def summarize(requests: list[Request], wall: float, setup: list[float], rss: float,
              slo_ms: float, overlaps: list[float]) -> Outcome:
    answered = sum(r.queries - r.wrong for r in requests if not r.error)
    attempted = sum(r.queries for r in requests)
    timed = [r.seconds * 1000.0 for r in requests if not r.traced]
    in_slo = sum(
        1 for r in requests
        if not r.traced and not r.error and r.wrong == 0 and r.seconds * 1000.0 <= slo_ms
    )
    outcome = Outcome(attempted=attempted, failed=attempted - answered)
    outcome.e2e = {
        "setup_s": median(setup),
        "qps": answered / wall,
        "latency_p50_ms": pct(timed, 50),
        "latency_p90_ms": pct(timed, 90),
        "slo_ratio": ratio(in_slo, len(timed)),
        "recall_at_10": float(np.mean(overlaps)) if overlaps else 0.0,
        "peak_rss_mb": rss,
    }
    outcome.layers["harness.fail_ratio"] = ratio(outcome.failed, attempted)
    outcome.layers["harness.requests"] = float(len(timed))
    outcome.info["setup_s"] = [round(s, 4) for s in setup]
    outcome.info["requests"] = len(timed)
    return outcome


# -- exs-batch -------------------------------------------------------------


def run_exs(cfg: ExsBatch, inputs: dict, seconds: float, tracer: Tracer | None) -> Outcome:
    federation = inputs["federation"]
    stream = Stream(inputs["pool"])

    def build(_: int) -> DiscoveryEngine:
        engine = DiscoveryEngine(**engine_knobs(query_cache=False))
        with span(tracer, "setup.index"):
            engine.index(federation)
        engine.search_batch(stream.take(1), method="exs", k=K, h=H, workers=1)
        return engine

    engine, setup = repeated_setup(cfg.setups, build, DiscoveryEngine.close)
    # The engine holds what it needs; the input tables would only add to
    # every full collection the measured phase pays for.
    del federation, inputs["federation"]
    try:
        for _ in range(cfg.warmup_blocks):
            call(engine, "exs", stream.take(cfg.block))
        shapes: list[dict] = []
        tally = EncoderTally(engine)

        def step(i: int) -> Request:
            texts = stream.take(cfg.block)
            start = time.perf_counter()
            if tracer is not None and i % 2:
                results, differ, shape = traced_exs_block(tracer, engine, texts, "request", i)
                shapes.append(shape)
                req = Request([("exs", texts, results)], time.perf_counter() - start, traced=True)
                req.wrong = differ
            else:
                results = tally.call("exs", texts)
                req = Request([("exs", texts, results)], time.perf_counter() - start)
            req.error = results is None
            return req

        gc.collect()
        engine.metrics.reset()
        since = time.perf_counter()
        requests, wall = closed_loop(seconds, step)
        rss = peak_rss_mb()
        overlaps = verify_exs_requests(engine, requests)
        outcome = summarize(requests, wall, setup, rss, cfg.slo_ms, overlaps)
        outcome.layers["embedding.cache_hit_ratio"] = tally.hit_ratio
        if tracer is not None:
            untraced = [r.seconds for r in requests if not r.traced]
            outcome.layers.update(exs_layers(tracer, "request", since, shapes))
            outcome.layers.update(trace_summary(tracer, "request", since, untraced))
            outcome.layers.update(gc_layers(tracer, since, wall, len(requests)))
            outcome.layers["embedding.index_s"] = median(
                [tracer.duration(i) for i in tracer.closed("setup.index")]
            )
        return outcome
    finally:
        engine.close()


def verify_exs_requests(engine: DiscoveryEngine, requests: list[Request]) -> list[float]:
    """Oracle-check every ExS answer; marks wrong ones on their request."""
    answers, owners = [], []
    for req in requests:
        for method, texts, results in req.blocks:
            if method != "exs":
                continue
            for j, text in enumerate(texts):
                answers.append((text, None if results is None else results[j]))
                owners.append(req)
    ok, overlaps = check_exs(engine, answers)
    for req, good in zip(owners, ok):
        req.wrong += not good
    return overlaps


# -- approx-batch ------------------------------------------------------------


APPROX = ("anns", "cts")


def run_approx(cfg: ApproxBatch, inputs: dict, seconds: float, tracer: Tracer | None) -> Outcome:
    federation = inputs["federation"]
    stream = Stream(inputs["pool"])

    def build(_: int) -> DiscoveryEngine:
        engine = DiscoveryEngine(**engine_knobs(query_cache=False))
        with span(tracer, "setup.index"):
            engine.index(federation)
        for method in APPROX:
            with span(tracer, f"setup.{method}_build"):
                engine.method(method)
            engine.search_batch(stream.take(1), method=method, k=K, h=H, workers=1)
        return engine

    engine, setup = repeated_setup(cfg.setups, build, DiscoveryEngine.close)
    del federation, inputs["federation"]
    try:
        if tracer is not None:
            engine.method("exs")  # the ExS reference of the traced run
        for _ in range(cfg.warmup_rounds):
            for method in APPROX:
                call(engine, method, stream.take(cfg.block))
        shapes: list[dict] = []
        tally = EncoderTally(engine)

        def step(i: int) -> Request:
            traced = tracer is not None and i % 2 == 1
            blocks = []
            start = time.perf_counter()
            with span(tracer if traced else None, "request", i):
                for method in APPROX:
                    texts = stream.take(cfg.block)
                    with span(tracer if traced else None, f"{method}.block"):
                        blocks.append((method, texts, tally.call(method, texts)))
            req = Request(blocks, time.perf_counter() - start, traced=traced)
            req.error = any(results is None for _, _, results in blocks)
            if traced:
                texts = stream.take(cfg.block)
                results, differ, shape = traced_exs_block(
                    tracer, engine, texts, "exs.reference", i
                )
                shapes.append(shape)
                req.blocks.append(("exs", texts, results))
                req.wrong += differ
                req.error = req.error or results is None
            return req

        gc.collect()
        engine.metrics.reset()
        since = time.perf_counter()
        requests, wall = closed_loop(seconds, step)
        rss = peak_rss_mb()
        snapshot = engine.metrics.snapshot()
        verify_exs_requests(engine, requests)  # the traced ExS reference, if any
        for req in requests:
            for method, texts, results in req.blocks:
                if method in APPROX and results is not None:
                    direct = engine.method(method).search_batch(texts, k=K, h=H)
                    req.wrong += sum(not same_ranking(a, b) for a, b in zip(results, direct))
        recall = approx_recall(engine, inputs["recall"])
        outcome = summarize(
            requests, wall, setup, rss, cfg.slo_ms, [recall["anns"], recall["cts"]]
        )
        outcome.layers["anns.recall_at_10"] = recall["anns"]
        outcome.layers["cts.recall_at_10"] = recall["cts"]
        outcome.layers["embedding.cache_hit_ratio"] = tally.hit_ratio
        queries = sum(len(t) for r in requests for m, t, _ in r.blocks if m in APPROX)
        counters = snapshot["counters"]
        outcome.layers["vectordb.probes_per_query"] = ratio(
            counters.get("vectordb.index_probes", 0), queries
        )
        outcome.layers["vectordb.points_per_query"] = ratio(
            counters.get("vectordb.points_scanned", 0), queries
        )
        route = snapshot["stages"].get("cts.route")
        outcome.layers["cts.route_ms"] = route["p50_ms"] if route else 0.0
        if tracer is not None:
            untraced = [r.seconds for r in requests if not r.traced]
            outcome.layers.update(exs_layers(tracer, "exs.reference", since, shapes))
            outcome.layers.update(trace_summary(tracer, "request", since, untraced))
            outcome.layers.update(gc_layers(tracer, since, wall, len(requests)))
            for method in APPROX:
                blocks = tracer.closed(f"{method}.block", since)
                outcome.layers[f"{method}.block_p50_ms"] = 1000.0 * median(
                    [tracer.duration(i) for i in blocks]
                )
                outcome.layers[f"{method}.build_s"] = median(
                    [tracer.duration(i) for i in tracer.closed(f"setup.{method}_build")]
                )
            outcome.layers["embedding.index_s"] = median(
                [tracer.duration(i) for i in tracer.closed("setup.index")]
            )
        return outcome
    finally:
        engine.close()


def approx_recall(engine: DiscoveryEngine, texts: list[str]) -> dict[str, float]:
    """Mean top-k overlap of each fast method with the exact ExS top-k on
    a fixed query set, so the figure repeats exactly for a given seed."""
    relations = engine.embeddings.relations
    ranker = Ranker([r.relation_id for r in relations])
    scores = oracle_scores(relations, query_vectors(engine, texts))
    out = {}
    for method in APPROX:
        results = engine.search_batch(texts, method=method, k=K, h=H)
        out[method] = float(np.mean([
            ranker.overlap(res.matches, scores[:, j], K, H) for j, res in enumerate(results)
        ]))
    return out
