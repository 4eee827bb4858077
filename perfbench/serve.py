"""The open-loop workload: ``serve-churn``.

Single ExS queries go through ``ServingEngine.submit`` from one asyncio
loop on a Poisson schedule, drawn Zipf from a pool of query texts,
while one writer thread calls ``update_relations`` on a rotating
relation every ``delta_period_s``.  Each request is timed from when it
was due, so a stall also charges the requests queued behind it.

Every answer is checked against the oracle of a federation state the
request could have seen: each delta flips one rotating relation between
two versions the benchmark knows, so the state after any number of
deltas is known.  A request may match any state between the deltas
finished before it was sent and those started before it was answered.
A near-duplicate cache hit may carry the answer of another pool query
within cosine ``tau``, so those answers are valid too.

In a traced run every other request is wrapped in a span, and the
cache probe and the serving window's engine call are wrapped from the
outside, so a request's time splits into its cache probe, the window
that answered it, and the rest (queueing and loop scheduling).
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.cache import SemanticResultCache
from repro.core.engine import DiscoveryEngine
from repro.core.semimg import build_relation_embedding
from repro.errors import ServingError

from batch import query_vectors, span
from config import H, K, ServeChurn, engine_knobs
from harness import Outcome, median, pct, peak_rss_mb, ratio
from oracle import Ranker, oracle_scores, relation_scores, unit_rows
from spans import Tracer


@dataclass
class Sent:
    index: int
    due: float
    text: int
    sent: float = 0.0
    done: float = 0.0
    result: object = None
    error: str = ""
    ok: bool = False
    overlap: float = 0.0

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


@dataclass
class Delta:
    index: int
    start: float
    end: float
    ok: bool


@dataclass
class Phase:
    requests: list[Sent] = field(default_factory=list)
    deltas: list[Delta] = field(default_factory=list)
    depth_max: int = 0
    wall: float = 0.0


def new_engine(cfg: ServeChurn) -> DiscoveryEngine:
    cache = SemanticResultCache(capacity=cfg.cache_capacity)
    return DiscoveryEngine(**engine_knobs(query_cache=cache))


def new_serving(cfg: ServeChurn, engine: DiscoveryEngine):
    return engine.serving(
        window_ms=cfg.window_ms,
        max_batch=cfg.max_batch,
        max_queue=cfg.max_queue,
        dispatch_workers=cfg.dispatch_workers,
        batch_workers=1,
        executor=None,
        default_limit=None,
        tenant_limits=None,
    )


async def open_loop(serving, pool, schedule, tracer: Tracer | None, phase: Phase) -> None:
    """Send ``schedule`` (``(due_s, text)`` pairs) on time; await all answers."""
    start = time.perf_counter()

    async def one(req: Sent) -> None:
        req.sent = time.perf_counter()
        traced = tracer is not None and req.index % 2 == 1
        try:
            with span(tracer if traced else None, "request", req.index):
                req.result = await serving.submit(pool[req.text], method="exs", k=K, h=H)
        except ServingError as exc:  # shed, refused or rate limited
            req.error = type(exc).__name__
        except Exception as exc:  # any other failure is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            req.error = type(exc).__name__
        req.done = time.perf_counter()

    tasks = []
    for i, (due, text) in enumerate(schedule):
        req = Sent(i, start + due, text)
        phase.requests.append(req)
        delay = req.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(req)))
        phase.depth_max = max(phase.depth_max, serving.outstanding)
    await asyncio.gather(*tasks)
    phase.wall = time.perf_counter() - start


def writer(engine, deltas, versions, start, stop: threading.Event, tracer, phase: Phase) -> None:
    """Apply the delta schedule from its own thread."""
    for j, (due, rid, version) in enumerate(deltas):
        if stop.wait(max(0.0, start + due - time.perf_counter())):
            return
        relation = versions[rid][version]
        begin = time.perf_counter()
        ok = True
        try:
            if tracer is not None:
                with tracer.span("engine.delta_encode", ("delta", j)):
                    build_relation_embedding(rid, relation, engine.encoder)
            with span(tracer, "engine.update", ("delta", j)):
                engine.update_relations({rid: relation})
        except Exception:  # a failed delta is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            ok = False
        phase.deltas.append(Delta(j, begin, time.perf_counter(), ok))


def wrap_layers(engine: DiscoveryEngine, tracer: Tracer) -> None:
    """Time the cache probe and each window's engine call from outside."""
    lookup = engine.query_cache.lookup
    locked = engine.search_batch_locked

    def traced_lookup(*args, **kwargs):
        with tracer.span("cache.lookup"):
            return lookup(*args, **kwargs)

    def traced_window(queries, *args, **kwargs):
        with tracer.span("serving.window", extra=list(queries)):
            return locked(queries, *args, **kwargs)

    engine.query_cache.lookup = traced_lookup
    engine.search_batch_locked = traced_window


async def measure(cfg: ServeChurn, inputs: dict, seconds: float, tracer: Tracer | None):
    pool = inputs["pool"]
    setup = []
    engine = serving = None
    for i in range(cfg.setups):
        if engine is not None:
            await serving.drain()
            engine.close()
            gc.collect()
        begin = time.perf_counter()
        engine = new_engine(cfg)
        with span(tracer, "setup.load"):
            engine.load_index(inputs["snapshot"], mmap=True)
        serving = new_serving(cfg, engine)
        await serving.submit(pool[i], method="exs", k=K, h=H)
        setup.append(time.perf_counter() - begin)
    try:
        if tracer is not None:
            wrap_layers(engine, tracer)
        await open_loop(serving, pool, inputs["phases"]["warmup"], None, Phase())
        gc.collect()
        engine.metrics.reset()
        phase = Phase()
        since = time.perf_counter()
        stop = threading.Event()
        thread = threading.Thread(
            target=writer,
            args=(engine, inputs["deltas"], inputs["versions"], since, stop, tracer, phase),
        )
        thread.start()
        try:
            await open_loop(serving, pool, inputs["phases"]["measured"], tracer, phase)
        finally:
            stop.set()
            thread.join(timeout=60.0)
        if thread.is_alive():
            raise RuntimeError("delta writer did not finish")
        rss = peak_rss_mb()
        snapshot = engine.metrics.snapshot()
        await serving.drain()
        verify(cfg, engine, inputs, phase)
        return summarize(cfg, engine, phase, setup, rss, snapshot, tracer, since)
    finally:
        await serving.drain()
        engine.close()


def run_serve(cfg: ServeChurn, inputs: dict, seconds: float, tracer: Tracer | None) -> Outcome:
    return asyncio.run(measure(cfg, inputs, seconds, tracer))


# -- answer checks -----------------------------------------------------------


def verify(cfg: ServeChurn, engine: DiscoveryEngine, inputs: dict, phase: Phase) -> None:
    """Mark each request correct or not against the oracle of its states."""
    pool = inputs["pool"]
    relations = engine.embeddings.relations
    ids = [r.relation_id for r in relations]
    ranker = Ranker(ids)
    tau = engine.query_cache.tau
    pool_vecs = unit_rows(query_vectors(engine, pool))
    near = pool_vecs @ pool_vecs.T >= tau - 1e-5
    asked = sorted({req.text for req in phase.requests})
    needed = sorted({int(j) for t in asked for j in np.flatnonzero(near[t])})
    column = {t: c for c, t in enumerate(needed)}
    base = oracle_scores(relations, pool_vecs[needed])
    # Score rows of each rotating relation under both of its versions.
    version_rows = {}
    for rid, pair in inputs["versions"].items():
        version_rows[rid] = [
            relation_scores(emb.vectors, emb.counts, pool_vecs[needed])
            for emb in (build_relation_embedding(rid, rel, engine.encoder) for rel in pair)
        ]
    # Version of every rotating relation after each number of deltas.
    states = [dict.fromkeys(inputs["versions"], 0)]
    for _, rid, version in inputs["deltas"]:
        states.append({**states[-1], rid: version})
    cache: dict = {}

    rows = {rid: ids.index(rid) for rid in inputs["versions"]}

    def scores(state: int, text: int) -> np.ndarray:
        key = (state, text)
        if key not in cache:
            col = base[:, column[text]].copy()
            for rid, version in states[state].items():
                col[rows[rid]] = version_rows[rid][version][column[text]]
            cache[key] = col
        return cache[key]

    applied = sorted(d.end for d in phase.deltas if d.ok)
    begun = sorted(d.start for d in phase.deltas if d.ok)
    for req in phase.requests:
        if req.error or req.result is None:
            continue
        lo = bisect.bisect_right(applied, req.sent)
        hi = bisect.bisect_left(begun, req.done)
        candidates = [int(j) for j in np.flatnonzero(near[req.text])]
        matches = req.result.matches
        req.ok = any(
            ranker.check(matches, scores(s, c), K, H)
            for s in range(lo, hi + 1) for c in candidates
        )
        req.overlap = max(
            ranker.overlap(matches, scores(s, req.text), K, H) for s in range(lo, hi + 1)
        )


# -- metrics -----------------------------------------------------------------


def summarize(cfg, engine, phase: Phase, setup, rss, snapshot, tracer, since) -> Outcome:
    reqs = phase.requests
    answered = [r for r in reqs if r.ok]
    latencies = [r.latency_ms for r in reqs if not r.error]
    failed = sum(not r.ok for r in reqs) + sum(not d.ok for d in phase.deltas)
    outcome = Outcome(attempted=len(reqs) + len(phase.deltas), failed=failed)
    outcome.e2e = {
        "setup_s": median(setup),
        "qps": len(answered) / phase.wall,
        "latency_p50_ms": pct(latencies, 50),
        "latency_p90_ms": pct(latencies, 90),
        "slo_ratio": ratio(sum(r.latency_ms <= cfg.slo_ms for r in answered), len(reqs)),
        "recall_at_10": float(np.mean([r.overlap for r in answered])) if answered else 0.0,
        "peak_rss_mb": rss,
    }
    outcome.info["setup_s"] = [round(s, 4) for s in setup]
    outcome.info["requests"] = len(reqs)
    outcome.info["deltas"] = len(phase.deltas)
    counters, stages = snapshot["counters"], snapshot["stages"]

    def stage(name: str, key: str = "p50_ms") -> float:
        return stages[name][key] if name in stages else 0.0

    probes = sum(counters.get(f"cache.{c}", 0) for c in ("hits", "near_hits", "misses"))
    during = [
        r.latency_ms for r in reqs
        if not r.error and any(d.start < r.done and r.due < d.end for d in phase.deltas)
    ]
    layers = outcome.layers
    layers.update({
        "harness.fail_ratio": ratio(failed, outcome.attempted),
        "harness.requests": float(len(reqs)),
        "harness.gen_late_p99_ms": pct([(r.sent - r.due) * 1000.0 for r in reqs], 99),
        "serving.e2e_p99_ms": pct(latencies, 99),
        "serving.window_wait_p50_ms": stage("serving.queue_ms"),
        "serving.window_wait_p99_ms": stage("serving.queue_ms", "p99_ms"),
        "serving.dispatch_ms": stage("serving.dispatch_ms"),
        "serving.batch_fill": stage("serving.batch_fill", "mean_ms"),
        "serving.queue_depth_max": float(phase.depth_max),
        "serving.shed": float(counters.get("serving.shed", 0)),
        "serving.rejected": float(counters.get("serving.rejected", 0)),
        "cache.hit_ratio": ratio(
            counters.get("cache.hits", 0) + counters.get("cache.near_hits", 0), probes
        ),
        "cache.near_hit_ratio": ratio(counters.get("cache.near_hits", 0), probes),
        "cache.evictions": float(counters.get("cache.evictions", 0)),
        "cache.probe_ms": stage("cache.probe_ms"),
        "embedding.encode_ms": stage("exs.encode"),
        "embedding.cache_hit_ratio": ratio(
            counters.get("encoder_cache.hits", 0),
            counters.get("encoder_cache.hits", 0) + counters.get("encoder_cache.misses", 0),
        ),
        "exs.delta_ms": stage("exs.delta_ms"),
        "engine.p99_during_delta_ms": pct(during, 99),
    })
    if tracer is not None:
        layers.update(trace_layers(tracer, phase, since))
    return outcome


def trace_layers(tracer: Tracer, phase: Phase, since: float) -> dict:
    children = tracer.children()
    updates = [1000.0 * tracer.duration(i) for i in tracer.closed("engine.update", since)]
    encodes = [1000.0 * tracer.duration(i) for i in tracer.closed("engine.delta_encode", since)]
    windows: dict[str, list[int]] = {}
    for i in tracer.closed("serving.window", since):
        for query in tracer.spans[i][5]:
            windows.setdefault(query, []).append(i)
    by_index = {r.index: r for r in phase.requests}
    uncovered = []
    for i in tracer.closed("request", since):
        s = tracer.spans[i]
        req = by_index[s[4]]
        covered = sum(tracer.duration(c) for c in children.get(i, ()))
        for w in windows.get(req.result.query if req.result else "", ()):
            if s[1] <= tracer.spans[w][1] and tracer.spans[w][2] <= s[2]:
                covered += tracer.duration(w)
                break
        uncovered.append(ratio(max(0.0, tracer.duration(i) - covered), tracer.duration(i)))
    traced = [r.latency_ms for r in phase.requests if r.index % 2 == 1 and not r.error]
    plain = [r.latency_ms for r in phase.requests if r.index % 2 == 0 and not r.error]
    pause, full = tracer.gc_pauses(since)
    loads = [tracer.duration(i) * 1000.0 for i in tracer.closed("setup.load")]
    return {
        "engine.delta_p50_ms": pct(updates, 50),
        "engine.delta_p90_ms": pct(updates, 90),
        "engine.delta_encode_ms": pct(encodes, 50),
        "storage.load_ms": median(loads),
        "trace.uncovered_share": median(uncovered),
        "trace.overhead_ms": median(traced) - median(plain),
        "runtime.gc_ms": 1000.0 * ratio(pause, len(phase.requests) / 1000.0),
        "runtime.gc_share": ratio(pause, phase.wall),
        "runtime.gc_gen2": float(full),
    }
