"""Result grouping over the segment index: Lucene field-collapsing
(one document per group value in the ranked list) and total-hit
counting (Lucene's TotalHitCountCollector).

Both are EXACT and index-backed. The key scale property they share:
segments partition documents by doc-hash, so every document's score
(and its group membership) is final inside its home part — per-part
reductions (group champions, hit counts) merge associatively with NO
re-scoring and NO cross-part doc dedup. Reference anchor: the
reference's search path returns a flat ranked list only
(/root/reference/src/lib.rs:374-410); grouping/collapse and hit
totals are the Lucene-grade additions its API shape implies.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from raysearch.fanout import map_parts


COLLAPSE_FIELD = "source"   # the collapse key (documents metadata)


def collapse_topk(sf_dir: str) -> pa.Table:
    """Field-collapsed retrieval (Lucene CollapsingTopDocsCollector):
    BM25 top-10 per query where each ``source`` value contributes at
    most ONE document — its highest-scoring one (ties by doc_id).
    Exact: a group's champion is found even when it ranks below any
    fixed candidate depth, because champions are computed over the
    FULL df-bounded match set, never a truncated list.

    Plan: per part, score all matched docs for every query (work
    proportional to the query terms' df inside the part, the same
    bound the exhaustive scorer pays), attach the collapse key with
    ONE batched predicate-pushdown read of (doc_id, {field}), and
    reduce to per-(query, group) champions — doc-hash partitioning
    makes per-doc scores final in their home part, so the per-part
    champion rows (<= queries x groups-in-part, score-rounded) merge
    associatively on the driver: re-champion per (query, group), then
    rank champions per query. Nothing data-sized ever reaches the
    driver. At 100 TB the collapse key would be stored as a per-part
    attribute column at build time (the tombstone layout) instead of
    read from the corpus table per batch."""
    import pyarrow.parquet as pq

    from raysearch.numutil import round6
    from raysearch.pipelines.rankex import _part_kernel
    from raysearch.pipelines.search_queries import (DOC_QUERIES, TOPK,
                                                    _docs_path,
                                                    cached_index)
    from raysearch.query import plan_query
    from raysearch.segments import part_postings
    from raysearch.stats import load_stats

    idx = cached_index(sf_dir)
    plan, parts = plan_query(idx, load_stats(idx), DOC_QUERIES)
    docs_file = _docs_path(sf_dir)

    empty = pa.table({
        "query_id": pa.array([], pa.int64()),
        COLLAPSE_FIELD: pa.array([], pa.string()),
        "doc_id": pa.array([], pa.int64()),
        "score": pa.array([], pa.float64())})

    # every matched row of a part, NOT top-k truncated: collapse needs
    # every group's champion, which may rank arbitrarily deep
    part_scores = _part_kernel(
        lambda p: part_postings(idx, p, plan.all_terms),
        len(plan.qweights),
        lambda qid, post: plan.score(plan.qweights[qid], post.get), None)

    def kern(batch: pa.Table) -> pa.Table:
        rows = part_scores(batch)
        if not rows.num_rows:
            return empty
        qv = rows["query_id"].to_numpy()
        dv = rows["doc_id"].to_numpy()
        sv = round6(rows["score"].to_numpy())
        # ONE narrow filtered read maps this batch's matched ids to
        # their collapse key (row groups without them never load)
        ids = np.unique(dv)
        src = pq.read_table(
            docs_file, columns=["doc_id", COLLAPSE_FIELD],
            filters=[("doc_id", "in", ids.tolist())])
        key = dict(zip(src["doc_id"].to_pylist(),
                       src[COLLAPSE_FIELD].to_pylist()))
        g = pd.DataFrame({"query_id": qv, "doc_id": dv, "score": sv})
        g[COLLAPSE_FIELD] = g["doc_id"].map(key)
        g = g.sort_values(["query_id", COLLAPSE_FIELD, "score",
                           "doc_id"],
                          ascending=[True, True, False, True])
        g = g.groupby(["query_id", COLLAPSE_FIELD],
                      as_index=False).head(1)
        return pa.table({
            "query_id": pa.array(g.query_id.to_numpy(np.int64),
                                 pa.int64()),
            COLLAPSE_FIELD: pa.array(g[COLLAPSE_FIELD].tolist(),
                                     pa.string()),
            "doc_id": pa.array(g.doc_id.to_numpy(np.int64),
                               pa.int64()),
            "score": pa.array(g.score.to_numpy(np.float64),
                              pa.float64())})

    champ = map_parts(parts, kern, empty).to_pandas()
    # associative finish: re-champion per (query, group), then rank
    champ = champ.sort_values(["query_id", COLLAPSE_FIELD, "score",
                               "doc_id"],
                              ascending=[True, True, False, True])
    champ = champ.groupby(["query_id", COLLAPSE_FIELD],
                          as_index=False).head(1)
    champ = champ.sort_values(["query_id", "score", "doc_id"],
                              ascending=[True, False, True])
    champ["rank"] = champ.groupby("query_id").cumcount() + 1
    champ = champ[champ["rank"] <= TOPK]
    return pa.table({
        "query_id": pa.array(champ.query_id.to_numpy(np.int64),
                             pa.int64()),
        "doc_id": pa.array(champ.doc_id.to_numpy(np.int64), pa.int64()),
        COLLAPSE_FIELD: pa.array(champ[COLLAPSE_FIELD].tolist(),
                                 pa.string()),
        "rank": pa.array(champ["rank"].to_numpy(np.int64), pa.int64()),
        "score": pa.array(champ.score.to_numpy(np.float64),
                          pa.float64()),
    })


def sql_collapse_topk() -> str:
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
q(query_id, term, w) AS (VALUES {_qterms_values(True)}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum(q.w * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
             * (tf.tf * ({K1} + 1))
             / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl)))
           AS score
  FROM q
  JOIN tf ON q.term = tf.term
  JOIN df ON q.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
best AS (
  SELECT query_id, doc_id, {COLLAPSE_FIELD}, score FROM (
    SELECT sc.query_id, sc.doc_id, d.{COLLAPSE_FIELD},
           round(sc.score, 6) AS score,
           row_number() OVER (
             PARTITION BY sc.query_id, d.{COLLAPSE_FIELD}
             ORDER BY round(sc.score, 6) DESC, sc.doc_id) AS rn
    FROM scores sc JOIN documents d USING (doc_id)
  ) WHERE rn = 1
),
ranked AS (
  SELECT query_id, doc_id, {COLLAPSE_FIELD}, score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score DESC, doc_id) AS rank
  FROM best
)
SELECT query_id::BIGINT AS query_id, doc_id, {COLLAPSE_FIELD},
       rank, score
FROM ranked WHERE rank <= {TOPK}
"""


def query_hit_counts(sf_dir: str) -> pa.Table:
    """Total-hit counting (Lucene TotalHitCountCollector): for each
    query, the EXACT number of documents matching at least one query
    term — the "about N results" number, with no scoring and no
    ranked list.

    Plan: per part, the union of the query terms' decoded posting
    doc-arrays is counted with one np.union1d pass; parts partition
    documents disjointly, so per-part counts ADD — the driver sums a
    parts x queries int grid. No scores are computed and no doc ids
    leave the workers. (With stored block metadata a lower/upper
    bound version could skip decoding entirely; exact counting must
    decode doc gaps, which is still a fraction of scoring cost.)"""
    from raysearch.pipelines.search_queries import (DOC_QUERIES,
                                                    cached_index)
    from raysearch.score import query_term_weights
    from raysearch.segments import part_postings
    from raysearch.stats import load_stats

    idx = cached_index(sf_dir)
    parts = load_stats(idx)["parts"]
    qterms = [[t for t, _ in query_term_weights(q)]
              for q in DOC_QUERIES]
    all_terms = sorted({t for ts in qterms for t in ts})

    empty = pa.table({"query_id": pa.array([], pa.int64()),
                      "n_hits": pa.array([], pa.int64())})

    def kern(batch: pa.Table) -> pa.Table:
        counts = np.zeros(len(qterms), np.int64)
        for part in batch["part"].to_pylist():
            post = {t: row[0] for t, row in
                    part_postings(idx, int(part), all_terms).items()}
            for qid, ts in enumerate(qterms):
                arrs = [post[t] for t in ts if t in post]
                if arrs:
                    counts[qid] += len(np.unique(np.concatenate(arrs)))
        return pa.table({
            "query_id": pa.array(np.arange(len(qterms), dtype=np.int64),
                                 pa.int64()),
            "n_hits": pa.array(counts, pa.int64())})

    got = map_parts(parts, kern, empty).to_pandas()
    tot = got.groupby("query_id", as_index=False)["n_hits"].sum()
    return pa.table({
        "query_id": pa.array(tot.query_id.to_numpy(np.int64),
                             pa.int64()),
        "n_hits": pa.array(tot.n_hits.to_numpy(np.int64), pa.int64()),
    })


def sql_query_hit_counts() -> str:
    from raysearch.pipelines.search_queries import (_TOK_CTES,
                                                    _qterms_values)

    # zero-hit queries still get a row (count 0), matching the engine
    return f"""
WITH {_TOK_CTES},
q(query_id, term, w) AS (VALUES {_qterms_values(False)}),
c AS (
  SELECT q.query_id, count(DISTINCT tf.doc_id)::BIGINT AS n_hits
  FROM q JOIN tf ON q.term = tf.term
  GROUP BY q.query_id
)
SELECT qs.query_id::BIGINT AS query_id,
       coalesce(c.n_hits, 0)::BIGINT AS n_hits
FROM (SELECT DISTINCT query_id FROM q) qs
LEFT JOIN c USING (query_id)
"""


QUERIES = {
    "collapse_topk": collapse_topk,
    "query_hit_counts": query_hit_counts,
}

ORACLE_SQL = {
    "collapse_topk": sql_collapse_topk(),
    "query_hit_counts": sql_query_hit_counts(),
}
