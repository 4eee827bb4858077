"""Input synthesis for the benchmark, run in its own process.

The measured process only unpickles what this module wrote, so corpus
and query generators never share its heap, its garbage collector or its
peak-memory figure.  Every input is a pure function of ``--seed`` (and,
for the open-loop schedule, of ``--seconds``): the tables are fixed per
workload, the queries and schedules are drawn from the seed.

Usage::

    python3 perfbench/gen.py --workload exs-batch --seed 1 --seconds 10 --out DIR
"""

from __future__ import annotations

import argparse
import pickle
from pathlib import Path

import numpy as np

from repro.core.engine import DiscoveryEngine
from repro.data.wikitables import generate_wikitables_corpus
from repro.datamodel.relation import Relation

from config import WORKLOADS, ApproxBatch, ExsBatch, ServeChurn, engine_knobs

#: Query texts come from a small-table corpus: the synthesizer's cost
#: grows with its table count, not with the query count.
QUERY_CORPUS_TABLES = 60
#: Every seed searches the same tables; ``--seed`` draws the queries and
#: the schedules.  Corpora drawn per seed moved approx-batch recall by
#: 4% (quartile spread over seeds) for no gain in what is measured.
TABLES_SEED = 0


def query_pool(n: int, seed: int) -> list[str]:
    """``n`` distinct synthetic keyword queries (short, moderate, long)."""
    corpus = generate_wikitables_corpus(
        n_tables=QUERY_CORPUS_TABLES, n_queries=n, seed=seed + 7919
    )
    return corpus.query_texts()


def fresh_block(pool: list[str], start: int, size: int) -> list[str]:
    """Queries ``start .. start+size`` of an endless stream over ``pool``.

    Past the end of the pool the texts repeat with a lap marker, so every
    query of a run is new to the engine's encoder cache however many
    blocks a fast engine answers.
    """
    out = []
    for i in range(start, start + size):
        lap, j = divmod(i, len(pool))
        out.append(pool[j] if lap == 0 else f"{pool[j]} lap {lap}")
    return out


def revised(relation: Relation) -> Relation:
    """A copy of ``relation`` with exactly one cell changed."""
    rows = [list(row.values) for row in relation.rows]
    rows[0][0] = f"{rows[0][0]} revised"
    return Relation(
        relation.name, relation.schema, rows, caption=relation.caption,
        metadata=relation.metadata,
    )


def poisson_schedule(rng: np.random.Generator, rate: float, horizon: float) -> np.ndarray:
    """Arrival times in ``[0, horizon)`` of a Poisson process at ``rate``,
    conditioned on exactly ``rate * horizon`` arrivals: sorted uniform
    times.  Fixing the count keeps the offered load equal across seeds."""
    return np.sort(rng.uniform(0.0, horizon, size=int(round(rate * horizon))))


def zipf_choices(rng: np.random.Generator, n_items: int, s: float, size: int) -> np.ndarray:
    """``size`` item indices drawn Zipf(``s``) over a shuffled ranking."""
    weights = 1.0 / np.arange(1, n_items + 1, dtype=np.float64) ** s
    ranks = rng.choice(n_items, size=size, p=weights / weights.sum())
    return rng.permutation(n_items)[ranks]


def exs_inputs(cfg: ExsBatch, seed: int) -> dict:
    corpus = generate_wikitables_corpus(n_tables=cfg.tables, seed=TABLES_SEED)
    return {"federation": corpus.federation(), "pool": query_pool(cfg.pool, seed)}


def approx_inputs(cfg: ApproxBatch, seed: int) -> dict:
    corpus = generate_wikitables_corpus(n_tables=cfg.tables, seed=TABLES_SEED)
    pool = query_pool(cfg.pool + cfg.recall_queries, seed)
    return {
        "federation": corpus.federation(),
        "recall": pool[: cfg.recall_queries],
        "pool": pool[cfg.recall_queries :],
    }


def serve_schedule(cfg: ServeChurn, seed: int, seconds: float, ids: list[str]) -> dict:
    """Arrival, query and delta schedules of one serve-churn run."""
    rng = np.random.default_rng((seed, 11))
    phases = {}
    for phase, horizon in (("warmup", cfg.warmup_s), ("measured", float(seconds))):
        due = poisson_schedule(rng, cfg.rate_qps, horizon)
        texts = zipf_choices(rng, cfg.pool, cfg.zipf_s, due.size)
        phases[phase] = list(zip(due.tolist(), texts.tolist()))
    rotating = [ids[int(i)] for i in rng.choice(len(ids), size=cfg.rotating, replace=False)]
    deltas = []
    flips = dict.fromkeys(rotating, 0)
    t = cfg.delta_period_s
    while t < seconds:
        rid = rotating[len(deltas) % len(rotating)]
        flips[rid] += 1
        deltas.append((t, rid, flips[rid] % 2))
        t += cfg.delta_period_s
    return {"phases": phases, "rotating": rotating, "deltas": deltas}


def serve_inputs(cfg: ServeChurn, seed: int, seconds: float, out: Path) -> dict:
    corpus = generate_wikitables_corpus(n_tables=cfg.tables, seed=TABLES_SEED)
    federation = corpus.federation()
    ids = [rid for rid, _ in federation.relations()]
    schedule = serve_schedule(cfg, seed, seconds, ids)
    versions = {}
    for rid in schedule["rotating"]:
        original = federation.relation(rid)
        versions[rid] = (original, revised(original))
    snapshot = out / "snapshot"
    with DiscoveryEngine(**engine_knobs(query_cache=False)) as engine:
        engine.index(federation)
        engine.save_index(snapshot)
    return {
        "snapshot": str(snapshot),
        "pool": query_pool(cfg.pool, seed),
        "versions": versions,
        **schedule,
    }


def make_inputs(workload: str, seed: int, seconds: float, out: Path) -> dict:
    cfg = WORKLOADS[workload]
    if isinstance(cfg, ExsBatch):
        return exs_inputs(cfg, seed)
    if isinstance(cfg, ApproxBatch):
        return approx_inputs(cfg, seed)
    return serve_inputs(cfg, seed, seconds, out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    # numpy seeds must be non-negative; fold any integer onto one.
    inputs = make_inputs(args.workload, args.seed % 2**32, args.seconds, args.out)
    with open(args.out / "inputs.pkl", "wb") as fh:
        pickle.dump(inputs, fh, protocol=pickle.HIGHEST_PROTOCOL)


if __name__ == "__main__":
    main()
