"""An ExS reference written directly in numpy, and the answer checks.

The oracle scores every relation as the count-weighted mean cosine of
the query against the relation's stored value vectors, in float64, one
relation at a time.  It shares no code with the engine's scan path
(fused GEMM, segment reduction, match objects, ranking), so a defect
there shows up as a wrong answer here.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

#: Score tolerance between the engine's float32 scan and the float64
#: oracle: float32 rounding of unit-vector dot products over 128 dims
#: stays below 1e-5, so 1e-4 accepts rounding and rejects any relation
#: whose true score differs materially.
TOL = 1e-4


def unit_rows(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / np.where(norms > 0, norms, 1.0)


def relation_scores(vectors: np.ndarray, counts: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Count-weighted mean cosine of each query row against one relation."""
    weights = np.asarray(counts, dtype=np.float64)
    sims = unit_rows(vectors) @ queries.T
    return (weights @ sims) / weights.sum()


def oracle_scores(relations: Sequence, query_vectors: np.ndarray) -> np.ndarray:
    """``(relations, queries)`` float64 score matrix.

    ``relations`` are the store's ``RelationEmbedding`` objects (or
    anything with ``vectors`` and ``counts``); ``query_vectors`` are the
    engine's query embeddings, one row per query.
    """
    queries = unit_rows(query_vectors)
    out = np.empty((len(relations), queries.shape[0]))
    for r, rel in enumerate(relations):
        out[r] = relation_scores(rel.vectors, rel.counts, queries)
    return out


class Ranker:
    """Top-k under the engine's order ``(-score, relation_id)``."""

    def __init__(self, relation_ids: Sequence[str]) -> None:
        self.ids = list(relation_ids)
        self.position = {rid: i for i, rid in enumerate(self.ids)}
        order = sorted(range(len(self.ids)), key=self.ids.__getitem__)
        self.id_rank = np.empty(len(self.ids), dtype=np.int64)
        self.id_rank[order] = np.arange(len(self.ids))

    def top(self, scores: np.ndarray, k: int, h: float) -> np.ndarray:
        """Row indices of the exact top-``k`` scoring at least ``h``."""
        order = np.lexsort((self.id_rank, -scores))
        return order[scores[order] >= h][:k]

    def check(self, matches: Sequence, scores: np.ndarray, k: int, h: float) -> bool:
        """Whether ``matches`` is a correct top-``k`` for ``scores``.

        Each returned score must equal the oracle's score of that
        relation, and the i-th returned relation must score like the
        oracle's i-th, both within :data:`TOL`; so only relations whose
        scores tie within float32 rounding may trade places.
        """
        want = min(k, int(np.count_nonzero(scores >= h - TOL)))
        need = min(k, int(np.count_nonzero(scores >= h + TOL)))
        if not need <= len(matches) <= want:
            return False
        expected = scores[self.top(scores, k, h - TOL)]
        seen = set()
        for i, match in enumerate(matches):
            row = self.position.get(match.relation_id)
            if row is None or row in seen:
                return False
            seen.add(row)
            if abs(match.score - scores[row]) > TOL or abs(scores[row] - expected[i]) > TOL:
                return False
        return True

    def overlap(self, matches: Sequence, scores: np.ndarray, k: int, h: float) -> float:
        """Share of the exact top-``k`` present in the answer's first ``k``."""
        exact = {self.ids[i] for i in self.top(scores, k, h)}
        if not exact:
            return 1.0
        got = {m.relation_id for m in list(matches)[:k]}
        return len(exact & got) / len(exact)
