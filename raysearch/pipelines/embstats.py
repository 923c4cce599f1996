"""Embedding-table statistics: per-label centroids and norm
distributions — the monitoring ops every embedding pipeline runs
before trusting its vectors (centroid drift flags a broken encoder
rollout; norm collapse flags an un-normalized or dead model; both are
the first dashboards after SemDeDup/ANN ingestion).

Scale shape (both ops): ONE pass over the embedding table; per-batch
partials are (labels-in-batch x dim)-sized (centroids) or
label-cardinality (norms) — never row-cardinality — so the only
exchange is a label(-x-dim)-keyed aggregate over tiny partial rows.
Results are label-cardinality: driver-side by contract, a broadcast
consumer at 100 TB.

Float discipline: every float32 value is widened to float64 BEFORE
any arithmetic on BOTH engines (numpy astype / CAST AS DOUBLE inside
the SQL lambda), all reductions are plain sums whose cross-engine
association error is ~1e-13 relative, and every reported float is
round6(x) + 0.0 (the -0.0 normalizer used across the repo), so the
driver's 6-decimal value hash is stable.

The reference engine has no vector layer; these generalize its
collection-statistics pass (src/lib.rs:86-100, per-doc counts merged
into corpus stats) from token counts to vector moments.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from raysearch.numutil import fmt_doc, frame_table, rank_cut, round6
from raysearch.pipelines.similarity import _ANN_SCHEMA, _BY_COS, _EMB


def _read_labeled(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(
        os.path.join(sf_dir, _EMB),
        columns=["vec_id", "embedding", "label"])


def _label_matrix(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    lab = batch["label"].to_numpy().astype(np.int64)
    col = batch["embedding"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    dim = len(flat) // max(1, len(lab))
    return lab, flat.reshape(len(lab), dim)


def label_centroids(sf_dir: str) -> pa.Table:
    """(label, pos, n, mean): the per-label mean embedding in long
    form — one row per (label, dimension), so the result is pure
    scalars (no list column reaches the value hash).

    Per batch: one np.add.at scatter of the (n, dim) matrix onto the
    batch's unique labels gives (labels x dim) sum partials plus a
    label count — the combiner. The label-x-dim-keyed Sum aggregate
    that follows is O(labels x dim) rows total, not O(rows)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        lab, mat = _label_matrix(batch)
        if not len(lab):
            return pa.table({"label": pa.array([], pa.int64()),
                             "pos": pa.array([], pa.int64()),
                             "s": pa.array([], pa.float64()),
                             "n": pa.array([], pa.int64())})
        ulab, inv = np.unique(lab, return_inverse=True)
        dim = mat.shape[1]
        sums = np.zeros((len(ulab), dim), np.float64)
        np.add.at(sums, inv, mat)
        counts = np.bincount(inv, minlength=len(ulab)).astype(np.int64)
        return pa.table({
            "label": pa.array(np.repeat(ulab, dim), pa.int64()),
            "pos": pa.array(np.tile(np.arange(dim, dtype=np.int64),
                                    len(ulab)), pa.int64()),
            "s": pa.array(sums.ravel(), pa.float64()),
            "n": pa.array(np.repeat(counts, dim), pa.int64()),
        })

    agg = (_read_labeled(sf_dir)
           .map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .groupby(["label", "pos"])
           .aggregate(Sum("s", alias_name="s"),
                      Sum("n", alias_name="n"))).to_pandas()
    agg = agg.sort_values(["label", "pos"], ignore_index=True)
    n = agg["n"].to_numpy(np.int64)
    mean = round6(agg["s"].to_numpy(np.float64)
                  / np.maximum(n, 1)) + 0.0
    return pa.table({
        "label": pa.array(agg["label"].to_numpy(np.int64), pa.int64()),
        "pos": pa.array(agg["pos"].to_numpy(np.int64), pa.int64()),
        "n": pa.array(n, pa.int64()),
        "mean": pa.array(mean, pa.float64()),
    })


def sql_label_centroids() -> str:
    return """
WITH u AS (
  SELECT label::BIGINT AS label,
         unnest(range(len(embedding)))::BIGINT AS pos,
         CAST(unnest(embedding) AS DOUBLE) AS e
  FROM embeddings
)
SELECT label, pos, count(*)::BIGINT AS n,
       round(sum(e) / count(*), 6) + 0.0 AS mean
FROM u GROUP BY label, pos ORDER BY label, pos
"""


def emb_norm_stats(sf_dir: str) -> pa.Table:
    """(label, n, min_norm, max_norm, mean_norm, var_norm): the
    per-label L2-norm distribution. min/max are order-independent
    (bit-exact across engines); mean/variance use the identical
    two-moment formula (s2/n - (s1/n)^2, clipped at 0 via the same
    max() on both sides) over float64 sums.

    Per batch: one einsum row-norm + one np.add.at scatter per moment
    onto the batch's labels — label-cardinality partials into a tiny
    label-keyed aggregate."""
    from ray.data.aggregate import Max, Min, Sum

    def partial(batch: pa.Table) -> pa.Table:
        lab, mat = _label_matrix(batch)
        if not len(lab):
            return pa.table({"label": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "mn": pa.array([], pa.float64()),
                             "mx": pa.array([], pa.float64()),
                             "s1": pa.array([], pa.float64()),
                             "s2": pa.array([], pa.float64())})
        nrm = np.sqrt(np.einsum("ij,ij->i", mat, mat))
        ulab, inv = np.unique(lab, return_inverse=True)
        k = len(ulab)
        n = np.bincount(inv, minlength=k).astype(np.int64)
        s1 = np.zeros(k, np.float64)
        s2 = np.zeros(k, np.float64)
        np.add.at(s1, inv, nrm)
        np.add.at(s2, inv, nrm * nrm)
        mn = np.full(k, np.inf)
        mx = np.full(k, -np.inf)
        np.minimum.at(mn, inv, nrm)
        np.maximum.at(mx, inv, nrm)
        return pa.table({
            "label": pa.array(ulab, pa.int64()),
            "n": pa.array(n, pa.int64()),
            "mn": pa.array(mn, pa.float64()),
            "mx": pa.array(mx, pa.float64()),
            "s1": pa.array(s1, pa.float64()),
            "s2": pa.array(s2, pa.float64()),
        })

    agg = (_read_labeled(sf_dir)
           .map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .groupby("label")
           .aggregate(Sum("n", alias_name="n"),
                      Min("mn", alias_name="mn"),
                      Max("mx", alias_name="mx"),
                      Sum("s1", alias_name="s1"),
                      Sum("s2", alias_name="s2"))).to_pandas()
    agg = agg.sort_values("label", ignore_index=True)
    n = agg["n"].to_numpy(np.int64).astype(np.float64)
    mean = agg["s1"].to_numpy(np.float64) / n
    var = np.maximum(agg["s2"].to_numpy(np.float64) / n - mean * mean,
                     0.0)
    return pa.table({
        "label": pa.array(agg["label"].to_numpy(np.int64), pa.int64()),
        "n": pa.array(agg["n"].to_numpy(np.int64), pa.int64()),
        "min_norm": pa.array(round6(agg["mn"].to_numpy(np.float64))
                             + 0.0, pa.float64()),
        "max_norm": pa.array(round6(agg["mx"].to_numpy(np.float64))
                             + 0.0, pa.float64()),
        "mean_norm": pa.array(round6(mean) + 0.0, pa.float64()),
        "var_norm": pa.array(round6(var) + 0.0, pa.float64()),
    })


def sql_emb_norm_stats() -> str:
    return """
WITH v AS (
  SELECT label::BIGINT AS label,
         sqrt(list_sum(list_transform(
             embedding, x -> CAST(x AS DOUBLE) * x))) AS nrm
  FROM embeddings
)
SELECT label, count(*)::BIGINT AS n,
       round(min(nrm), 6) + 0.0 AS min_norm,
       round(max(nrm), 6) + 0.0 AS max_norm,
       round(sum(nrm) / count(*), 6) + 0.0 AS mean_norm,
       round(greatest(sum(nrm * nrm) / count(*)
                      - (sum(nrm) / count(*)) * (sum(nrm) / count(*)),
                      0.0), 6) + 0.0 AS var_norm
FROM v GROUP BY label ORDER BY label
"""


HN_K = 5          # negatives per query
HN_BUFFER = 15    # raw local top-k before the rounded re-rank


def hard_negatives(sf_dir: str) -> pa.Table:
    """Contrastive hard-negative mining: for each query vector
    (vec_id < N_QUERY_VECS, the ann_topk query set), the top-{k}
    highest-cosine vectors whose LABEL DIFFERS from the query's — the
    standard negative-sampling pass for embedding/contrastive training
    (the closer the negative, the more gradient signal).

    Same distributed shape as ann_topk (the exact brute-force path):
    queries broadcast once, each batch computes one (n x Q) matmul,
    masks same-label rows vectorized, and emits only its local
    top-{buf} candidates per query — driver merge is
    O(blocks x Q x {buf}), never row-cardinality. Re-ranked on
    round(cos, 6) with (cos DESC, vec_id) ties like every top-k in
    the repo."""
    import pyarrow.parquet as pq

    from raysearch.pipelines.similarity import N_QUERY_VECS

    qt = pq.read_table(os.path.join(sf_dir, _EMB),
                       columns=["vec_id", "embedding", "label"],
                       filters=[("vec_id", "<", N_QUERY_VECS)])
    qids = qt["vec_id"].to_numpy().astype(np.int64)
    qlab = qt["label"].to_numpy().astype(np.int64)
    qcol = qt["embedding"]
    if isinstance(qcol, pa.ChunkedArray):
        qcol = qcol.combine_chunks()
    qflat = qcol.flatten().to_numpy(zero_copy_only=False).astype(
        np.float64)
    qmat = qflat.reshape(len(qids), -1)
    qn = qmat / np.linalg.norm(qmat, axis=1, keepdims=True)

    def score(batch: pa.Table) -> pa.Table:
        lab, mat = _label_matrix(batch)
        ids = batch["vec_id"].to_numpy().astype(np.int64)
        if not len(ids):
            return pa.table({"query_vec_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "cos": pa.array([], pa.float64())})
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        sims = (mat / np.maximum(norms, 1e-300)) @ qn.T      # (n, Q)
        out_q, out_v, out_c = [], [], []
        for j in range(len(qids)):
            ok = np.flatnonzero(lab != qlab[j])
            if not len(ok):
                continue
            col = sims[ok, j]
            kk = min(HN_BUFFER, len(ok))
            top = np.argpartition(-col, kk - 1)[:kk]
            out_q.append(np.full(kk, qids[j], dtype=np.int64))
            out_v.append(ids[ok[top]])
            out_c.append(col[top])
        if not out_q:
            return pa.table({"query_vec_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "cos": pa.array([], pa.float64())})
        return pa.table({
            "query_vec_id": pa.array(np.concatenate(out_q), pa.int64()),
            "vec_id": pa.array(np.concatenate(out_v), pa.int64()),
            "cos": pa.array(np.concatenate(out_c), pa.float64())})

    # keep only non-empty batches: an all-empty stream can surface
    # zero batches or a schemaless stub, either of which breaks
    # concat_tables
    batches = [b for b in
               _read_labeled(sf_dir)
               .map_batches(score, batch_format="pyarrow",
                            zero_copy_batch=True)
               .iter_batches(batch_format="pyarrow")
               if b.num_rows]
    empty = _ANN_SCHEMA.empty_table()
    if not batches:
        return empty
    df = pa.concat_tables(batches).to_pandas()
    if df.empty:
        return empty
    df["cos"] = round6(df["cos"].to_numpy(np.float64)) + 0.0
    return frame_table(rank_cut(df, _BY_COS, HN_K, "query_vec_id"),
                       _ANN_SCHEMA)


def sql_hard_negatives() -> str:
    from raysearch.pipelines.similarity import N_QUERY_VECS

    return f"""
WITH q AS (
  SELECT vec_id AS query_vec_id, label AS qlab,
         embedding::DOUBLE[] AS qv
  FROM embeddings WHERE vec_id < {N_QUERY_VECS}
),
sims AS (
  SELECT q.query_vec_id, e.vec_id,
         round(list_cosine_similarity(e.embedding::DOUBLE[], q.qv), 6)
           + 0.0 AS cos
  FROM embeddings e CROSS JOIN q
  WHERE e.label <> q.qlab
),
ranked AS (
  SELECT query_vec_id, vec_id, cos,
         row_number() OVER (PARTITION BY query_vec_id
                            ORDER BY cos DESC, vec_id)::BIGINT AS rank
  FROM sims
)
SELECT query_vec_id, vec_id, rank, cos
FROM ranked WHERE rank <= {HN_K}
"""


OUT_K = 3     # reported outliers per label


@fmt_doc(k=OUT_K)
def emb_outliers(sf_dir: str) -> pa.Table:
    """Label-error candidates: per label, the {k} vectors FARTHEST
    (euclidean) from their own label centroid — the classic
    mislabeled-sample / outlier-detection pass (Confident-Learning
    style) run before training on a labeled embedding set.

    Two passes. Pass 1 is label_centroids' combiner (labels x dim sum
    partials -> tiny keyed aggregate); the centroid matrix — labels x
    dim floats — broadcasts back into pass 2, which computes each
    vector's distance to ITS label centroid in one vectorized gather +
    row-norm and emits only a per-(batch, label) local top-{k} under
    the rounded total order (dist DESC, vec_id ASC). Driver merge is
    O(blocks x labels x {k}). Both engines derive the centroid as
    float64 sum / count, so the only cross-engine noise is summation
    association (~1e-13), absorbed by round6."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        lab, mat = _label_matrix(batch)
        if not len(lab):
            return pa.table({"label": pa.array([], pa.int64()),
                             "pos": pa.array([], pa.int64()),
                             "s": pa.array([], pa.float64()),
                             "n": pa.array([], pa.int64())})
        ulab, inv = np.unique(lab, return_inverse=True)
        dim = mat.shape[1]
        sums = np.zeros((len(ulab), dim), np.float64)
        np.add.at(sums, inv, mat)
        counts = np.bincount(inv, minlength=len(ulab)).astype(np.int64)
        return pa.table({
            "label": pa.array(np.repeat(ulab, dim), pa.int64()),
            "pos": pa.array(np.tile(np.arange(dim, dtype=np.int64),
                                    len(ulab)), pa.int64()),
            "s": pa.array(sums.ravel(), pa.float64()),
            "n": pa.array(np.repeat(counts, dim), pa.int64()),
        })

    agg = (_read_labeled(sf_dir)
           .map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .groupby(["label", "pos"])
           .aggregate(Sum("s", alias_name="s"),
                      Sum("n", alias_name="n"))).to_pandas()
    empty = pa.table({"label": pa.array([], pa.int64()),
                      "vec_id": pa.array([], pa.int64()),
                      "rank": pa.array([], pa.int64()),
                      "dist": pa.array([], pa.float64())})
    if agg.empty:
        return empty
    agg = agg.sort_values(["label", "pos"], ignore_index=True)
    labels = np.unique(agg["label"].to_numpy(np.int64))
    dim = int(agg["pos"].max()) + 1
    cent = (agg["s"].to_numpy(np.float64)
            / np.maximum(agg["n"].to_numpy(np.int64), 1)
            ).reshape(len(labels), dim)
    lab_index = {int(b): i for i, b in enumerate(labels)}

    def dists(batch: pa.Table) -> pa.Table:
        lab, mat = _label_matrix(batch)
        ids = batch["vec_id"].to_numpy().astype(np.int64)
        if not len(ids):
            return pa.table({"label": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "dist": pa.array([], pa.float64())})
        rows = np.asarray([lab_index[int(b)] for b in lab])
        diff = mat - cent[rows]
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        # local top-k per label present in the batch
        df = pd.DataFrame({"label": lab, "vec_id": ids, "dist": d})
        df = df.sort_values(["label", "dist", "vec_id"],
                            ascending=[True, False, True])
        df = df.groupby("label", as_index=False).head(OUT_K)
        return pa.Table.from_pandas(df, preserve_index=False)

    df = pa.concat_tables(
        _read_labeled(sf_dir)
        .map_batches(dists, batch_format="pyarrow",
                     zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow")).to_pandas()
    if df.empty:
        return empty
    df["dist"] = round6(df["dist"].to_numpy(np.float64)) + 0.0
    return frame_table(
        rank_cut(df, [("dist", False), ("vec_id", True)], OUT_K, "label"),
        empty.schema)


def sql_emb_outliers() -> str:
    return f"""
WITH u AS (
  SELECT vec_id, label::BIGINT AS label,
         unnest(range(len(embedding)))::BIGINT AS pos,
         CAST(unnest(embedding) AS DOUBLE) AS e
  FROM embeddings
),
c AS (
  SELECT label, pos, sum(e) / count(*) AS m
  FROM u GROUP BY label, pos
),
d AS (
  SELECT u.vec_id, u.label,
         round(sqrt(sum((u.e - c.m) * (u.e - c.m))), 6) + 0.0 AS dist
  FROM u JOIN c ON u.label = c.label AND u.pos = c.pos
  GROUP BY u.vec_id, u.label
),
ranked AS (
  SELECT label, vec_id, dist,
         row_number() OVER (PARTITION BY label
                            ORDER BY dist DESC, vec_id)::BIGINT AS rank
  FROM d
)
SELECT label, vec_id, rank, dist FROM ranked WHERE rank <= {OUT_K}
"""


QUERIES = {
    "label_centroids": label_centroids,
    "emb_norm_stats": emb_norm_stats,
    "hard_negatives": hard_negatives,
    "emb_outliers": emb_outliers,
}

ORACLE_SQL = {
    "label_centroids": sql_label_centroids(),
    "emb_norm_stats": sql_emb_norm_stats(),
    "hard_negatives": sql_hard_negatives(),
    "emb_outliers": sql_emb_outliers(),
}
