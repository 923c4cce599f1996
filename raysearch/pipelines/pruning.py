"""Static index pruning (impact-ordered retrieval): per-term posting
lists truncated to the globally highest-impact P entries, queries
scored over survivors only — the classic Carmel et al. (SIGIR 2001)
static-pruning contract Lucene exposes as impact-sorted postings /
`maxscore`-friendly index layouts. The reference engine keeps every
posting forever (/root/reference/src/lib.rs:341-343); this operator is
the lossy-but-bounded index-size lever a 10^12-file deployment needs
for its hot tier.

Semantics (the testable contract): a posting (term, doc) survives iff
it ranks <= IMPACT_P within its term by (tf DESC, doc_id ASC); queries
score ONLY survivor postings, but with WHOLE-corpus statistics (df, N,
avgdl) — the same stale-stats stance as the tombstone path, so every
SURVIVING posting contributes exactly its unpruned BM25 term (a doc
whose postings all survive keeps its exact unpruned score; a partially
pruned doc keeps the exact sum of its surviving terms).

Scale shape: the fan-out reads only the QUERY TERMS' posting rows per
segment part (term-filtered read, work ∝ Σ df); each part emits its
LOCAL top-P per term, and the global top-P is the merge of per-part
top-Ps (an order statistic is associative: any global top-P entry is
in its part's top-P). The driver therefore holds ≤ terms × P narrow
rows — independent of corpus size — and scoring over them is k-bounded
arithmetic. A standing pruned INDEX (rather than per-query pruning)
would run the same per-term truncation as one term-bucketed exchange
at build time; this operator pins the semantics that build variant
must reproduce.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from raysearch.numutil import fmt_doc

# survivors per term (small enough that pruning is visible at the test
# corpus scale: common terms have df in the hundreds at sf0.01)
IMPACT_P = 128

_EMPTY_SURV = pa.table({"term": pa.array([], pa.string()),
                        "doc_id": pa.array([], pa.int64()),
                        "tf": pa.array([], pa.int64()),
                        "dl": pa.array([], pa.int64())})


def _top_p(docs: np.ndarray, tfs: np.ndarray, dls: np.ndarray,
           p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The top-p postings by (tf DESC, doc_id ASC) — np.lexsort keys
    are least-significant first, so (doc, -tf) sorts by -tf then doc."""
    order = np.lexsort((docs, -tfs))[:p]
    return docs[order], tfs[order], dls[order]


@fmt_doc(IMPACT_P=IMPACT_P)
def impact_topk(sf_dir: str) -> pa.Table:
    """BM25 top-10 over the statically pruned index: only each term's
    globally top-{IMPACT_P} postings by (tf DESC, doc_id) score;
    df/N/avgdl stay whole-corpus. Per-part local top-{IMPACT_P}s merge
    exactly to the global truncation (order statistics are
    associative), so the driver sees ≤ terms × {IMPACT_P} rows."""
    from raysearch.fanout import map_parts
    from raysearch.pipelines.rankex import _ranked_from_candidates
    from raysearch.pipelines.search_queries import (DOC_QUERIES,
                                                    cached_index)
    from raysearch.query import plan_query
    from raysearch.segments import part_postings
    from raysearch.stats import load_stats

    idx = cached_index(sf_dir)
    plan, parts = plan_query(idx, load_stats(idx), DOC_QUERIES)
    all_terms = plan.all_terms

    def kern(batch: pa.Table) -> pa.Table:
        out_t, out_d, out_tf, out_dl = [], [], [], []
        for part in batch["part"].to_pylist():
            post = part_postings(idx, int(part), all_terms)
            for term, (docs, tfs, dls) in post.items():
                d, t, l = _top_p(docs, tfs, dls, IMPACT_P)
                out_t.extend([term] * len(d))
                out_d.extend(d.tolist())
                out_tf.extend(t.tolist())
                out_dl.extend(l.tolist())
        if not out_t:
            return _EMPTY_SURV
        return pa.table({
            "term": pa.array(out_t, pa.string()),
            "doc_id": pa.array(out_d, pa.int64()),
            "tf": pa.array(out_tf, pa.int64()),
            "dl": pa.array(out_dl, pa.int64())})

    surv = map_parts(parts, kern, _EMPTY_SURV).to_pandas()

    # global per-term truncation over the merged per-part top-Ps
    kept = {term: _top_p(g.doc_id.to_numpy(np.int64),
                         g.tf.to_numpy(np.int64),
                         g.dl.to_numpy(np.int64), IMPACT_P)
            for term, g in surv.groupby("term", sort=True)}

    # score each query over survivor rows only — the live scorer's
    # per-query body and float tree (SegmentScorer.score)
    per_query = [plan.score(qw, kept.get) for qw in plan.qweights]
    cand = pd.DataFrame({
        "query_id": np.repeat(np.arange(len(per_query), dtype=np.int64),
                              [len(d) for d, _ in per_query]),
        "doc_id": np.concatenate([d for d, _ in per_query]),
        "score": np.concatenate([s for _, s in per_query])})
    return _ranked_from_candidates(cand)


def sql_impact_topk() -> str:
    from raysearch.pipelines.search_queries import (_TOK_CTES, B, K1,
                                                    TOPK,
                                                    _qterms_values)

    return f"""
WITH {_TOK_CTES},
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs,
         (SELECT sum(dl) FROM dl)::DOUBLE
           / (SELECT count(*) FROM documents) AS avgdl
),
surv AS (
  SELECT tf.term, tf.doc_id, tf.tf, dl.dl,
         row_number() OVER (PARTITION BY tf.term
                            ORDER BY tf.tf DESC, tf.doc_id) AS rn
  FROM tf JOIN dl USING (doc_id)
),
q(query_id, term, w) AS (VALUES {_qterms_values(True)}),
scores AS (
  SELECT q.query_id, s.doc_id,
         sum(q.w * ln(1 + (st.n_docs - df.df + 0.5) / (df.df + 0.5))
             * (s.tf * ({K1} + 1))
             / (s.tf + {K1} * (1 - {B} + {B} * s.dl / st.avgdl))) AS score
  FROM q
  JOIN surv s ON s.term = q.term AND s.rn <= {IMPACT_P}
  JOIN df ON q.term = df.term
  CROSS JOIN stats st
  GROUP BY q.query_id, s.doc_id
),
ranked AS (
  SELECT query_id, doc_id, round(score, 6) AS score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 6) DESC, doc_id) AS rank
  FROM scores
)
SELECT query_id::BIGINT AS query_id, doc_id, rank, score
FROM ranked WHERE rank <= {TOPK}
"""


QUERIES = {
    "impact_topk": impact_topk,
}

ORACLE_SQL = {
    "impact_topk": sql_impact_topk(),
}
