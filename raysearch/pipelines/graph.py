"""Distributed PageRank over the cosine k-NN graph — the iterative
graph algorithm (Brin & Page 1998) expressed as Pregel-style
supersteps on Ray Data, and a centrality ranking for the embedding
corpus (which documents sit in the densest semantic neighborhoods).
All consumers here take the pluggable kNN backbone: exact (default,
the oracle contract) or the sub-quadratic IVF candidate generator
(backbone="ivf" / RAYSEARCH_KNN_BACKBONE=ivf; see knn.py).

The whole computation runs in FIXED-POINT INTEGER arithmetic (prob
mass in units of 1e-12, damping as the exact rational 85/100, floor
division): integer sums are associative, so the result is
bit-identical under any reduce order AND reproducible in SQL — the
oracle replays the same K supersteps as unrolled CTEs over the
composed knn-edge CTE with DuckDB's `//`. A float PageRank cannot
survive a value-hash (summation order perturbs the low bits at every
merge); the fixed-point contract costs nothing the ranking cares
about (~1e-12 resolution; at node counts beyond ~1e9 raise PR_SCALE
to keep >= 3 significant digits per node — contribs stay < 2^63 up
to PR_SCALE = 1e15).

Shape per superstep (x {iters}): edges are built ONCE from the shared
knn partials fan-out (knn.py), re-keyed (bucket = src-hash, src, dst,
deg) with the out-degree carried ON the edge rows, and MATERIALIZED —
k-bounded narrow rows, so the O(N^2) similarity work never re-runs.
The rank vector is a (bucket, node, p) dataset co-bucketed with the
edge source key. Superstep = union -> ONE node-bucket groupby whose
FUSED kernel first sums the group's incoming contribution rows into
p[node] (node v's contributions and v's out-edges key on the same
bucket, so the previous round's reduce folds into this round's map)
and then emits each edge's integer contribution keyed by the
DESTINATION bucket plus each node's teleport row keyed by its own
bucket. ONE coarse exchange per superstep (+ one final sum), narrow
integer rows; nothing node-cardinality ever reaches the driver. The
final top-{k} is k-bounded: per-block local top-k under
(p DESC, node ASC), driver merges n_blocks x {k} rows.

Partitioning assumptions: a node's in-edges within one bucket fit a
reduce group (in-degree of a k-NN graph is bounded in expectation;
auto_buckets keeps groups ~constant-size); every node has out-degree
>= 1 when N >= 2 (k-NN guarantees it), so no dangling-mass handling
is needed — for N = 1 the single node holds exactly its teleport
share, the same formula the oracle computes.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from raysearch.numutil import fmt_doc, round6
from raysearch.pipelines.knn import (
    KNN_K,
    _knn_partials_ds,
    _merge_topk,
    sql_knn_graph,
)
from raysearch.pipelines.similarity import _n_emb

PR_SCALE = 10 ** 12          # prob mass units of 1e-12
PR_D_NUM, PR_D_DEN = 85, 100  # damping 0.85 as an exact rational
PR_ITERS = 3
PR_K = 20

_COLS = ["bucket", "a", "b", "deg", "p", "side"]


def _edges_ds(sf_dir: str, nb: int, backbone: str | None = None):
    """(bucket=src-hash, a=src, b=dst, deg=src out-degree) edge rows
    from the shared knn fan-out, in the unified superstep schema."""

    def edge_kern(g: pd.DataFrame) -> pd.DataFrame:
        top = _merge_topk(g)
        src = top.vec_id.to_numpy(np.int64)
        deg = top.groupby("vec_id")["nbr_id"].transform("size")
        return pd.DataFrame({
            "bucket": src & (nb - 1), "a": src,
            "b": top.nbr_id.to_numpy(np.int64),
            "deg": deg.to_numpy(np.int64),
            "p": np.int64(0), "side": np.int64(0)})[_COLS]

    return (_knn_partials_ds(sf_dir, backbone)
            .groupby("bucket").map_groups(edge_kern,
                                          batch_format="pandas")
            .materialize())


@fmt_doc(k=PR_K,
         knnk=KNN_K,
         iters=PR_ITERS,
         dn=PR_D_NUM,
         dd=PR_D_DEN,
         scale=PR_SCALE)
def pagerank_topk(sf_dir: str, backbone: str | None = None
                  ) -> pa.Table:
    """The {k} most central vectors of the cosine {knnk}-NN graph
    after {iters} fixed-point PageRank supersteps (damping {dn}/{dd},
    mass units of 1/{scale}), ties broken by vec_id. The graph comes
    from the pluggable kNN backbone: default "exact" (the oracle
    contract); backbone="ivf" / RAYSEARCH_KNN_BACKBONE=ivf swaps in
    the sub-quadratic IVF candidate generator (knn.py module doc)."""
    import ray.data

    from raysearch.hashing import auto_buckets

    n = _n_emb(sf_dir)
    if n == 0:
        return pa.table({"vec_id": pa.array([], pa.int64()),
                         "p": pa.array([], pa.int64())})
    nb = auto_buckets(n)
    teleport = (PR_SCALE * (PR_D_DEN - PR_D_NUM)) // (PR_D_DEN * n)
    p0 = PR_SCALE // n

    if n == 1:
        import pyarrow.parquet as pq
        vid = pq.read_table(
            os.path.join(sf_dir, "embeddings.parquet"),
            columns=["vec_id"])["vec_id"].to_numpy().astype(np.int64)
        return pa.table({"vec_id": pa.array(vid, pa.int64()),
                         "p": pa.array([teleport], pa.int64())})

    edges = _edges_ds(sf_dir, nb, backbone)

    # p0 comes from the vec_id column itself (unique by schema) — a
    # map-only pass, and immune to a source's edge rows ever being
    # re-batched across block boundaries (deriving nodes from edges
    # would double-mint p0 rows in that case)

    def p0_kern(df: pd.DataFrame) -> pd.DataFrame:
        nodes = df.vec_id.to_numpy(np.int64)
        return pd.DataFrame({
            "bucket": nodes & (nb - 1), "a": nodes,
            "b": np.int64(0), "deg": np.int64(0),
            "p": np.int64(p0), "side": np.int64(1)})[_COLS]

    p_ds = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id"]).map_batches(p0_kern,
                                        batch_format="pandas")

    # FUSED superstep: the old contrib_kern + sum_kern pair cost two
    # sort exchanges per round; but the sum of node v's incoming
    # contribution rows and v's outgoing edges key on the SAME bucket,
    # so the sum folds into the next round's contribution group — ONE
    # exchange per superstep (+ one final sum), integer-exact under
    # any reduce order as before. State between rounds = RAW side-2
    # contribution rows (each node's teleport row keeps isolated
    # nodes present every round).
    def step_kern(g: pd.DataFrame) -> pd.DataFrame:
        pr = g[g.side != 0]   # side 1 (p0) or side 2 (raw contribs)
        e = g[g.side == 0]
        s = pr.groupby("a", as_index=False).agg(p=("p", "sum"))
        pn = s.a.to_numpy(np.int64)       # groupby output: sorted
        pv = s.p.to_numpy(np.int64)
        src = e.a.to_numpy(np.int64)
        pos = np.searchsorted(pn, src)
        psrc = pv[pos]
        c = (psrc * PR_D_NUM) // (e.deg.to_numpy(np.int64) * PR_D_DEN)
        dst = e.b.to_numpy(np.int64)
        out_e = pd.DataFrame({
            "bucket": dst & (nb - 1), "a": dst, "b": np.int64(0),
            "deg": np.int64(0), "p": c, "side": np.int64(2)})
        out_t = pd.DataFrame({
            "bucket": pn & (nb - 1), "a": pn, "b": np.int64(0),
            "deg": np.int64(0), "p": np.int64(teleport),
            "side": np.int64(2)})
        return pd.concat([out_e[_COLS], out_t[_COLS]],
                         ignore_index=True)

    def sum_kern(g: pd.DataFrame) -> pd.DataFrame:
        s = (g.groupby("a", as_index=False).agg(p=("p", "sum")))
        a = s.a.to_numpy(np.int64)
        return pd.DataFrame({
            "bucket": a & (nb - 1), "a": a, "b": np.int64(0),
            "deg": np.int64(0), "p": s.p.to_numpy(np.int64),
            "side": np.int64(1)})[_COLS]

    for _ in range(PR_ITERS):
        p_ds = (edges.union(p_ds)
                .groupby("bucket").map_groups(step_kern,
                                              batch_format="pandas"))
    p_ds = p_ds.groupby("bucket").map_groups(sum_kern,
                                             batch_format="pandas")

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["p", "a"],
                              ascending=[False, True]).head(PR_K)

    df = p_ds.map_batches(local_topk,
                          batch_format="pandas").to_pandas()
    if "a" not in df.columns or not len(df):
        return pa.table({"vec_id": pa.array([], pa.int64()),
                         "p": pa.array([], pa.int64())})
    df = (df.sort_values(["p", "a"], ascending=[False, True],
                         ignore_index=True).head(PR_K))
    return pa.table({
        "vec_id": pa.array(df.a.to_numpy(np.int64), pa.int64()),
        "p": pa.array(df.p.to_numpy(np.int64), pa.int64()),
    })


def sql_pagerank_topk() -> str:
    knn = sql_knn_graph().strip().rstrip(";")
    iters = ""
    prev = "p0"
    for i in range(1, PR_ITERS + 1):
        iters += f""",
it{i} AS (
  SELECT n.node,
         (SELECT tele FROM consts)
         + coalesce(sum((pp.p * {PR_D_NUM})
                        // (e.deg * {PR_D_DEN})), 0) AS p
  FROM nodes n
  LEFT JOIN edges e ON e.dst = n.node
  LEFT JOIN {prev} pp ON pp.node = e.src
  GROUP BY n.node
)"""
        prev = f"it{i}"
    return f"""
WITH knn AS ({knn}),
edges AS (
  SELECT vec_id AS src, nbr_id AS dst,
         count(*) OVER (PARTITION BY vec_id) AS deg
  FROM knn
),
nodes AS (SELECT DISTINCT vec_id AS node FROM embeddings),
consts AS (
  SELECT ({PR_SCALE} * ({PR_D_DEN} - {PR_D_NUM}))
           // ({PR_D_DEN} * count(*)) AS tele,
         {PR_SCALE} // count(*) AS p0
  FROM nodes
),
p0 AS (SELECT node, (SELECT p0 FROM consts) AS p FROM nodes){iters}
SELECT node::BIGINT AS vec_id, p::BIGINT AS p
FROM {prev}
ORDER BY p DESC, vec_id
LIMIT {PR_K}
"""


LP_ITERS = 2


@fmt_doc(iters=LP_ITERS, k=KNN_K)
def label_prop(sf_dir: str, backbone: str | None = None) -> pa.Table:
    """Semi-supervised label propagation over the same k-NN graph
    (exact by default — the oracle contract; backbone="ivf" /
    RAYSEARCH_KNN_BACKBONE=ivf selects the sub-quadratic IVF
    backbone) (Zhu & Ghahramani 2002, hard-label variant): for {iters}
    synchronous rounds, every node adopts the MAJORITY label of its
    {k} nearest neighbors' current labels (ties -> smallest label);
    a node with no out-edges keeps its own. Votes are integer counts
    under the (count DESC, label ASC) total order — the whole
    computation is discrete, so any reduce order gives the identical
    result and the oracle replays the rounds as unrolled SQL CTEs.

    Superstep shape (x {iters}): edges are bucketed BY DESTINATION
    once and materialized (the vote needs each neighbor's label, so
    labels co-locate with the edges pointing AT them). Each round is
    ONE node-bucket groupby with a FUSED kernel: node v's ballots
    from the previous round and the edges pointing AT v key on the
    same bucket, so the kernel first VOTES v's current label
    (majority over ballots, ties -> smallest; own-label fallback)
    and then resolves those edges into next-round ballot rows keyed
    by each edge's source bucket, plus v's self row. One coarse
    exchange per round + one final vote — narrow integer rows,
    nothing node-cardinality on the driver. Output: (vec_id, label)
    after round {iters}, plus each node's initial label and a
    changed flag."""
    import ray.data

    from raysearch.hashing import auto_buckets

    n = _n_emb(sf_dir)
    if n == 0:
        return pa.table({"vec_id": pa.array([], pa.int64()),
                         "label0": pa.array([], pa.int64()),
                         "label": pa.array([], pa.int64()),
                         "changed": pa.array([], pa.int64())})
    nb = auto_buckets(n)

    # (bucket = DST hash, a = src, b = dst) — the vote gathers dst
    # labels, so edges co-locate with their destination's label row
    def dst_kern(g: pd.DataFrame) -> pd.DataFrame:
        top = _merge_topk(g)
        dst = top.nbr_id.to_numpy(np.int64)
        return pd.DataFrame({
            "bucket": dst & (nb - 1),
            "a": top.vec_id.to_numpy(np.int64), "b": dst,
            "deg": np.int64(0), "p": np.int64(0),
            "side": np.int64(0)})[_COLS]

    edges = (_knn_partials_ds(sf_dir, backbone)
             .groupby("bucket").map_groups(dst_kern,
                                           batch_format="pandas")
             .materialize())

    # label rows (side 1) carry the node's CURRENT label in p and its
    # INITIAL label in b — label0 rides the superstep exchanges so the
    # final output needs no driver-side re-read of the embeddings
    # table (round-3 VERDICT item 7)
    def l0_kern(df: pd.DataFrame) -> pd.DataFrame:
        nodes = df.vec_id.to_numpy(np.int64)
        l0 = df.label.to_numpy(np.int64)
        return pd.DataFrame({
            "bucket": nodes & (nb - 1), "a": nodes,
            "b": l0, "deg": np.int64(0),
            "p": l0,
            "side": np.int64(1)})[_COLS]

    labels = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "label"]).map_batches(
        l0_kern, batch_format="pandas")

    # row sides through the exchanges: 0 = edge (bucketed by dst);
    # 1 = initial label row (round 1 only; p = b = label0);
    # 2 = a neighbor's label ballot for node `a`;
    # 3 = the node's own current label (vote fallback, b = label0)
    def _vote(g: pd.DataFrame) -> pd.DataFrame:
        """(a, p=new label, b=label0) per node of the group, from its
        ballot rows (majority, ties -> smallest label) with the own /
        initial row as fallback. Output sorted by a (pandas groupby),
        one row per node."""
        ballots = g[g.side == 2]
        own = g[g.side.isin((1, 3))]
        votes = (ballots.groupby(["a", "p"], as_index=False)
                 .agg(c=("p", "size"))
                 .sort_values(["a", "c", "p"],
                              ascending=[True, False, True]))
        win = votes.drop_duplicates("a", keep="first")[["a", "p"]]
        merged = own[["a", "p", "b"]].merge(win, on="a", how="left",
                                            suffixes=("_own", "_win"))
        return pd.DataFrame({
            "a": merged.a.to_numpy(np.int64),
            "p": merged.p_win.fillna(merged.p_own)
                 .astype(np.int64).to_numpy(),
            "b": merged.b.to_numpy(np.int64),
        }).sort_values("a", ignore_index=True)

    # FUSED superstep: node v's prior-round ballots and the edges
    # pointing AT v key on the same (dst) bucket, so the vote folds
    # into the same group that resolves those edges into next-round
    # ballots — ONE exchange per round (+ one final vote) instead of
    # the ballot/vote pair. Discrete integer voting as before: any
    # reduce order gives the identical result.
    def lstep_kern(g: pd.DataFrame) -> pd.DataFrame:
        e = g[g.side == 0]
        cur = _vote(g)
        ln = cur.a.to_numpy(np.int64)     # sorted by construction
        lv = cur.p.to_numpy(np.int64)
        l0 = cur.b.to_numpy(np.int64)
        dst = e.b.to_numpy(np.int64)
        pos = np.searchsorted(ln, dst)
        src = e.a.to_numpy(np.int64)
        out_b = pd.DataFrame({
            "bucket": src & (nb - 1), "a": src, "b": np.int64(0),
            "deg": np.int64(0), "p": lv[pos], "side": np.int64(2)})
        out_s = pd.DataFrame({
            "bucket": ln & (nb - 1), "a": ln, "b": l0,
            "deg": np.int64(0), "p": lv, "side": np.int64(3)})
        return pd.concat([out_b[_COLS], out_s[_COLS]],
                         ignore_index=True)

    def vote_kern(g: pd.DataFrame) -> pd.DataFrame:
        cur = _vote(g)
        a = cur.a.to_numpy(np.int64)
        return pd.DataFrame({
            "bucket": a & (nb - 1), "a": a,
            "b": cur.b.to_numpy(np.int64),
            "deg": np.int64(0), "p": cur.p.to_numpy(np.int64),
            "side": np.int64(1)})[_COLS]

    state = labels
    for _ in range(LP_ITERS):
        state = (edges.union(state)
                 .groupby("bucket").map_groups(lstep_kern,
                                               batch_format="pandas"))
    state = state.groupby("bucket").map_groups(vote_kern,
                                               batch_format="pandas")

    # label0 rode the exchanges in b — the node-cardinality result
    # table is the ONLY thing the driver assembles (the gate contract:
    # the query returns the table; at scale this is a write sink)
    out = (state.to_pandas()[["a", "p", "b"]]
           .rename(columns={"a": "vec_id", "p": "label",
                            "b": "label0"})
           .sort_values("vec_id", ignore_index=True))
    return pa.table({
        "vec_id": pa.array(out.vec_id.to_numpy(np.int64), pa.int64()),
        "label0": pa.array(out.label0.to_numpy(np.int64), pa.int64()),
        "label": pa.array(out.label.to_numpy(np.int64), pa.int64()),
        "changed": pa.array(
            (out.label.to_numpy(np.int64)
             != out.label0.to_numpy(np.int64)).astype(np.int64),
            pa.int64()),
    })


def sql_label_prop() -> str:
    knn = sql_knn_graph().strip().rstrip(";")
    rounds = ""
    prev = "l0"
    for i in range(1, LP_ITERS + 1):
        rounds += f""",
v{i} AS (
  SELECT e.src AS node, l.label, count(*) AS c
  FROM edges e JOIN {prev} l ON l.node = e.dst
  GROUP BY 1, 2
),
w{i} AS (
  SELECT node, label FROM (
    SELECT node, label,
           row_number() OVER (PARTITION BY node
                              ORDER BY c DESC, label) AS rn
    FROM v{i}) WHERE rn = 1
),
l{i} AS (
  SELECT p.node, coalesce(w{i}.label, p.label) AS label
  FROM {prev} p LEFT JOIN w{i} USING (node)
)"""
        prev = f"l{i}"
    return f"""
WITH knn AS ({knn}),
edges AS (SELECT vec_id AS src, nbr_id AS dst FROM knn),
l0 AS (SELECT vec_id AS node, label FROM embeddings){rounds}
SELECT l0.node::BIGINT AS vec_id,
       l0.label::BIGINT AS label0,
       {prev}.label::BIGINT AS label,
       (CASE WHEN {prev}.label <> l0.label THEN 1 ELSE 0
        END)::BIGINT AS changed
FROM l0 JOIN {prev} USING (node)
ORDER BY vec_id
"""


def _pair_bucket(a: np.ndarray, b: np.ndarray, nb: int) -> np.ndarray:
    """Consistent coarse bucket for an ORDERED pair (a < b) — the
    co-location key of the wedge-closure join."""
    from raysearch.hashing import splitmix64

    h = splitmix64((a.astype(np.uint64) << np.uint64(20))
                   ^ b.astype(np.uint64))
    return (h & np.uint64(nb - 1)).astype(np.int64)


def triangle_stats(sf_dir: str, backbone: str | None = None
                   ) -> pa.Table:
    """Per-node triangle count and local clustering coefficient over
    the UNDIRECTED k-NN graph (exact backbone by default — the oracle
    contract; backbone="ivf" / RAYSEARCH_KNN_BACKBONE=ivf selects the
    sub-quadratic IVF backbone) — the standard graph-quality probe (a
    high coefficient marks tight semantic clusters; the wedge-closure
    algorithm is the classic distributed formulation).

    Shape: (1) directed knn edges collapse to distinct undirected
    pairs (u < v) in one pair-bucketed dedup exchange ((a, b) and
    (b, a) land in the same group by construction); (2) both
    directions re-key by endpoint, and the in-group wedge generator
    is dedup._run_pairs (triangular blocks per run-length class —
    wedges per node = d(d-1)/2 with d <= 2k, so output is O(k^2) per
    node) with the center carried as _run_pairs payload; (3) wedges
    and undirected edges meet on the SAME pair bucket; a wedge whose
    (x, y) matches an edge closes a triangle at its center; degree
    rows ride the same exchange; (4) one node-cardinality groupby
    sums per-center closures and degrees. Everything is integer
    counting — exact under any reduce order; the only float is the
    final round6 coefficient, computed identically in SQL."""
    from raysearch.hashing import auto_buckets
    from raysearch.pipelines.dedup import _run_pairs

    n = _n_emb(sf_dir)
    if n == 0:
        return pa.table({"vec_id": pa.array([], pa.int64()),
                         "degree": pa.array([], pa.int64()),
                         "n_wedges": pa.array([], pa.int64()),
                         "n_triangles": pa.array([], pa.int64()),
                         "clustering": pa.array([], pa.float64())})
    nb = auto_buckets(n)

    def und_rows(g: pd.DataFrame) -> pd.DataFrame:
        top = _merge_topk(g)
        s = top.vec_id.to_numpy(np.int64)
        d = top.nbr_id.to_numpy(np.int64)
        u, v = np.minimum(s, d), np.maximum(s, d)
        return pd.DataFrame({"bucket": _pair_bucket(u, v, nb),
                             "u": u, "v": v})

    def dedup_kern(g: pd.DataFrame) -> pd.DataFrame:
        # keep the pair bucket: edge_mark re-emits it verbatim
        # instead of re-hashing the whole edge set
        return g.drop_duplicates(["u", "v"])[["bucket", "u", "v"]]

    und = (_knn_partials_ds(sf_dir, backbone)
           .groupby("bucket").map_groups(und_rows,
                                         batch_format="pandas")
           .groupby("bucket").map_groups(dedup_kern,
                                         batch_format="pandas")
           .materialize())

    def adj_rows(df: pd.DataFrame) -> pd.DataFrame:
        u = df.u.to_numpy(np.int64)
        v = df.v.to_numpy(np.int64)
        node = np.concatenate([u, v])
        nbr = np.concatenate([v, u])
        return pd.DataFrame({"bucket": node & (nb - 1),
                             "node": node, "nbr": nbr})

    # wedge rows (side 1) + degree rows (side 2), both re-keyed so
    # wedges co-locate with the edge set on the pair bucket
    def wedge_kern(g: pd.DataFrame) -> pd.DataFrame:
        node = g.node.to_numpy(np.int64)
        nbr = g.nbr.to_numpy(np.int64)
        x, y, cx, _ = _run_pairs([node], nbr, payload=node)
        deg = (pd.DataFrame({"node": node})
               .groupby("node", as_index=False)
               .agg(d=("node", "size")))
        w = pd.DataFrame({"bucket": _pair_bucket(x, y, nb),
                          "a": x, "b": y, "c": cx,
                          "side": np.int64(1)})
        dn = deg.node.to_numpy(np.int64)
        dr = pd.DataFrame({"bucket": dn & (nb - 1), "a": dn,
                           "b": np.int64(0),
                           "c": deg.d.to_numpy(np.int64),
                           "side": np.int64(2)})
        return pd.concat([w, dr], ignore_index=True)

    def edge_mark(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"bucket": df.bucket.to_numpy(np.int64),
                             "a": df.u.to_numpy(np.int64),
                             "b": df.v.to_numpy(np.int64),
                             "c": np.int64(0),
                             "side": np.int64(0)})

    wedges = (und.map_batches(adj_rows, batch_format="pandas")
              .groupby("bucket").map_groups(wedge_kern,
                                            batch_format="pandas"))
    emarks = und.map_batches(edge_mark, batch_format="pandas")

    def close_kern(g: pd.DataFrame) -> pd.DataFrame:
        e = g[g.side == 0][["a", "b"]]
        w = g[g.side == 1]
        closed = w.merge(e, on=["a", "b"], how="inner")
        tri = (closed.groupby("c", as_index=False)
               .agg(t=("c", "size")))
        out_t = pd.DataFrame({"node": tri.c.to_numpy(np.int64),
                              "tri": tri.t.to_numpy(np.int64),
                              "d": np.int64(0)})
        dr = g[g.side == 2]
        out_d = pd.DataFrame({"node": dr.a.to_numpy(np.int64),
                              "tri": np.int64(0),
                              "d": dr.c.to_numpy(np.int64)})
        out = pd.concat([out_t, out_d], ignore_index=True)
        out["nbucket"] = out.node.to_numpy(np.int64) & (nb - 1)
        return out

    # per-node totals in a coarse node-bucket kernel (in-group sums
    # final) instead of a high-cardinality Ray sort-aggregate
    # (per-group dispatch cost; see dedup._cross_doc_slot_dup)
    def node_sum(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("node", as_index=False).agg(
            tri=("tri", "sum"), d=("d", "sum"))

    agg = (wedges.union(emarks)
           .groupby("bucket").map_groups(close_kern,
                                         batch_format="pandas")
           .groupby("nbucket").map_groups(node_sum,
                                          batch_format="pandas"))
    df = agg.to_pandas()
    if "node" not in df.columns or not len(df):
        return pa.table({"vec_id": pa.array([], pa.int64()),
                         "degree": pa.array([], pa.int64()),
                         "n_wedges": pa.array([], pa.int64()),
                         "n_triangles": pa.array([], pa.int64()),
                         "clustering": pa.array([], pa.float64())})
    df = df.sort_values("node", ignore_index=True)
    d = df.d.to_numpy(np.int64)
    tri = df.tri.to_numpy(np.int64)
    wed = d * (d - 1) // 2
    with np.errstate(divide="ignore", invalid="ignore"):
        cc = round6(np.where(wed > 0, tri / np.maximum(wed, 1), 0.0))
    return pa.table({
        "vec_id": pa.array(df.node.to_numpy(np.int64), pa.int64()),
        "degree": pa.array(d, pa.int64()),
        "n_wedges": pa.array(wed, pa.int64()),
        "n_triangles": pa.array(tri, pa.int64()),
        "clustering": pa.array(cc, pa.float64()),
    })


def sql_triangle_stats() -> str:
    knn = sql_knn_graph().strip().rstrip(";")
    return f"""
WITH knn AS ({knn}),
eu AS (
  SELECT DISTINCT least(vec_id, nbr_id) AS u,
                  greatest(vec_id, nbr_id) AS v
  FROM knn
),
adj AS (SELECT u AS node, v AS nbr FROM eu
        UNION ALL SELECT v, u FROM eu),
deg AS (SELECT node, count(*)::BIGINT AS d FROM adj GROUP BY node),
w AS (
  SELECT a1.node AS c, a1.nbr AS x, a2.nbr AS y
  FROM adj a1 JOIN adj a2
    ON a1.node = a2.node AND a1.nbr < a2.nbr
),
tri AS (
  SELECT c, count(*)::BIGINT AS t
  FROM w JOIN eu ON w.x = eu.u AND w.y = eu.v
  GROUP BY c
)
SELECT deg.node::BIGINT AS vec_id,
       deg.d AS degree,
       (deg.d * (deg.d - 1) // 2)::BIGINT AS n_wedges,
       coalesce(tri.t, 0)::BIGINT AS n_triangles,
       round(CASE WHEN deg.d >= 2
             THEN coalesce(tri.t, 0)::DOUBLE
                  / (deg.d * (deg.d - 1) // 2)
             ELSE 0 END, 6) AS clustering
FROM deg LEFT JOIN tri ON deg.node = tri.c
ORDER BY vec_id
"""


QUERIES = {
    "pagerank_topk": pagerank_topk,
    "label_prop": label_prop,
    "triangle_stats": triangle_stats,
}

ORACLE_SQL = {
    "pagerank_topk": sql_pagerank_topk(),
    "label_prop": sql_label_prop(),
    "triangle_stats": sql_triangle_stats(),
}
