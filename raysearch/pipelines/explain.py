"""Ranking introspection: per-term score explanation for top-k hits
(the Lucene Explanation API shape) and cross-scorer ranking agreement
(the evaluation primitive behind scorer A/B comparisons).

Both are k-bounded BY CONSTRUCTION: they start from the ranked top-k
tables and only ever touch the query terms' postings restricted to
those <= k x |queries| candidate docs — never the corpus. Reference
anchor: the reference returns bare (doc, score) pairs with no
explanation surface (/root/reference/src/lib.rs:401-410); this is the
debuggability layer its scoring path implies.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def explain_topk(sf_dir: str) -> pa.Table:
    """Score explanation: for every (query, doc) in the BM25 top-10,
    one row per matching query term with its tf and its exact BM25
    contribution — round6(w * idf * tfnorm), the very addends whose
    sum is the hit's score (same float expression tree as the scorer,
    so the breakdown is the truth, not an approximation).

    Plan: the ranked top-10 doc ids (k-bounded) go to the shared
    candidate probe (rankex._probe_candidates), which returns one
    (query, doc, term, w, tf, dl) row per matching query term; the
    driver turns each into its contribution — work bounded by the
    query terms' df, output bounded by k x |terms|."""
    from raysearch.numutil import round6
    from raysearch.pipelines.rankex import (_candidates_by_query,
                                            _probe_candidates)
    from raysearch.pipelines.search_queries import (DOC_QUERIES,
                                                    bm25_topk,
                                                    cached_index)
    from raysearch.query import lexicon_df
    from raysearch.score import (bm25_contrib, bm25_idf,
                                 query_term_weights)
    from raysearch.stats import load_stats

    idx = cached_index(sf_dir)
    st = load_stats(idx)
    n_docs, avgdl = st["n_docs"], st["avgdl"]
    k1, b = st["config"]["k1"], st["config"]["b"]

    qweights = [query_term_weights(q) for q in DOC_QUERIES]
    df = lexicon_df(idx, sorted({t for qw in qweights for t, _ in qw}))
    out = _probe_candidates(
        idx, qweights, _candidates_by_query(bm25_topk(sf_dir).to_pandas()))
    tf, dl = out.tf.to_numpy(np.int64), out.dl.to_numpy(np.int64)
    contrib = np.zeros(len(out), np.float64)
    for (t, w), ix in out.groupby(["term", "w"]).indices.items():
        contrib[ix] = bm25_contrib(tf[ix], dl[ix],
                                   bm25_idf(df.get(t, 0), n_docs), w,
                                   k1, b, avgdl)
    out = out.assign(contrib=round6(contrib)).sort_values(
        ["query_id", "doc_id", "term"], ignore_index=True)
    return pa.table({
        "query_id": pa.array(out.query_id.to_numpy(np.int64),
                             pa.int64()),
        "doc_id": pa.array(out.doc_id.to_numpy(np.int64), pa.int64()),
        "term": pa.array(out.term.tolist(), pa.string()),
        "tf": pa.array(out.tf.to_numpy(np.int64), pa.int64()),
        "contrib": pa.array(out.contrib.to_numpy(np.float64),
                            pa.float64()),
    })


def sql_explain_topk() -> str:
    from raysearch.pipelines.search_queries import (_TOK_CTES, B, K1,
                                                    _qterms_values,
                                                    sql_bm25_topk)

    return f"""
WITH base AS ({sql_bm25_topk()}),
{_TOK_CTES},
dfq AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs,
         (SELECT sum(dl) FROM dl)::DOUBLE
           / (SELECT count(*) FROM documents) AS avgdl
),
q(query_id, term, w) AS (VALUES {_qterms_values(True)})
SELECT base.query_id, base.doc_id, q.term, tf.tf,
       round(q.w * ln(1 + (s.n_docs - dfq.df + 0.5) / (dfq.df + 0.5))
             * (tf.tf * ({K1} + 1))
             / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl)), 6)
         AS contrib
FROM base
JOIN q ON q.query_id = base.query_id
JOIN tf ON tf.term = q.term AND tf.doc_id = base.doc_id
JOIN dfq ON dfq.term = q.term
JOIN dl ON dl.doc_id = base.doc_id
CROSS JOIN stats s
"""


def scorer_agreement(sf_dir: str) -> pa.Table:
    """Cross-scorer ranking agreement: per query, how many of the
    BM25 top-10 docs also appear in the Dirichlet top-10 (n_common)
    and the Jaccard overlap of the two hit sets — the zero-label
    ranking-drift metric used to gate scorer changes. Driver-side
    set math over two k-bounded ranked tables (each already a
    distributed pipeline)."""
    from raysearch.numutil import round6
    from raysearch.pipelines.search_queries import (bm25_topk,
                                                    dirichlet_topk)

    bm = bm25_topk(sf_dir).to_pandas()
    di = dirichlet_topk(sf_dir).to_pandas()
    rows = []
    qids = sorted(set(bm.query_id) | set(di.query_id))
    for qid in qids:
        a = set(bm[bm.query_id == qid].doc_id)
        b = set(di[di.query_id == qid].doc_id)
        inter, union = len(a & b), len(a | b)
        rows.append((int(qid), inter,
                     float(round6(np.float64(inter) / union))
                     if union else 0.0))
    return pa.table({
        "query_id": pa.array([r[0] for r in rows], pa.int64()),
        "n_common": pa.array([r[1] for r in rows], pa.int64()),
        "jaccard": pa.array([r[2] for r in rows], pa.float64()),
    })


def sql_scorer_agreement() -> str:
    from raysearch.pipelines.search_queries import (sql_bm25_topk,
                                                    sql_dirichlet_topk)

    return f"""
WITH bm AS ({sql_bm25_topk()}),
di AS ({sql_dirichlet_topk()}),
qs AS (SELECT DISTINCT query_id FROM bm
       UNION SELECT DISTINCT query_id FROM di),
inter AS (
  SELECT bm.query_id, count(*)::BIGINT AS n
  FROM bm JOIN di ON di.query_id = bm.query_id
                 AND di.doc_id = bm.doc_id
  GROUP BY bm.query_id
),
sizes AS (
  SELECT qs.query_id,
         (SELECT count(*) FROM bm WHERE bm.query_id = qs.query_id)
           AS na,
         (SELECT count(*) FROM di WHERE di.query_id = qs.query_id)
           AS nb,
         coalesce(inter.n, 0) AS n_common
  FROM qs LEFT JOIN inter USING (query_id)
)
SELECT query_id::BIGINT AS query_id, n_common::BIGINT AS n_common,
       CASE WHEN na + nb - n_common = 0 THEN 0.0
            ELSE round(n_common::DOUBLE / (na + nb - n_common), 6)
       END AS jaccard
FROM sizes
"""


QUERIES = {
    "explain_topk": explain_topk,
    "scorer_agreement": scorer_agreement,
}

ORACLE_SQL = {
    "explain_topk": sql_explain_topk(),
    "scorer_agreement": sql_scorer_agreement(),
}
