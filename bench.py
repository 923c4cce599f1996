"""Benchmark driver.

Plain run: one fresh Ray session at $RAY_GRAFT_CPUS (default 32),
headline = full index build (tokenize -> doc-hash shuffle -> compressed
segments + manifests + lexicon) over a 50k-doc synthetic source-code
corpus (the BASELINE.json input shape) + the 10-query BM25 batch,
plus per-op timings over $GRAFT_SF_DIR (default /root/testdata/sf0.1).
Prints ONE JSON line.

--scaling: runs the same job in two fresh processes at num_cpus=8 and
num_cpus=32 on the same input (page cache warmed by an untimed read)
and reports docs/sec at both plus efficiency = (dps_32/dps_8)/(32/8) —
the sandbox substitute for the north rule's N vs 4N cluster gate.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

BENCH_ROOT = "/tmp/raysearch_bench"
CORPUS_DOCS = int(os.environ.get("RAY_GRAFT_BENCH_DOCS", "400000"))
_CSCALE = os.environ.get("RAY_GRAFT_CONTENT_SCALE", "1")
CORPUS_DIR = os.path.join(
    BENCH_ROOT, f"corpus-{CORPUS_DOCS}"
    + (f"-x{_CSCALE}" if _CSCALE != "1" else ""))
K = 10
# partitions scale with the corpus (~12.5k docs/part, floor 64):
# reduce-group materialization degrades sharply past ~16k docs/part
# (see build._auto_parts)
NUM_PARTS = max(64, CORPUS_DOCS // 12_500)

# exact-mode per-op results stashed for the ivf-consumer agreement
# block (avoids re-running the O(N^2) exact path a second time)
KEEP_FOR_QUALITY = ("pagerank_topk", "label_prop", "triangle_stats",
                    "knn_label_eval", "text_emb_consistency")


# clustered ivf fixture: real embedding corpora cluster; sf0.1's 2000
# near-uniform vectors sit BELOW the ivf crossover and are its
# adversarial case (round-4 VERDICT item 5), so the consumer-agreement
# numbers there never show the regime ivf targets. This deterministic
# N=10k/20-cluster fixture does.
CLUSTERED_N = 10_000
CLUSTERED_DIM = 32
CLUSTERED_K = 20


def ensure_clustered_fixture() -> str:
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = os.path.join(BENCH_ROOT, f"clustered-{CLUSTERED_N}")
    path = os.path.join(d, "embeddings.parquet")
    if not os.path.exists(path):
        os.makedirs(d, exist_ok=True)
        rng = np.random.default_rng(99)
        centers = rng.standard_normal((CLUSTERED_K, CLUSTERED_DIM)) * 3.0
        lab = rng.integers(0, CLUSTERED_K, CLUSTERED_N)
        emb = (centers[lab]
               + rng.standard_normal((CLUSTERED_N, CLUSTERED_DIM)) * 0.4)
        pq.write_table(pa.table({
            "vec_id": pa.array(np.arange(CLUSTERED_N), pa.int64()),
            "embedding": pa.array(emb.tolist(),
                                  pa.list_(pa.float32())),
            "label": pa.array(lab.astype(np.int32), pa.int32()),
        }), path)
    return d


LONGPOST_DOCS = 400_000
LONGPOST_NEEDLES = 120  # ~15 per segment: >= k so every part seeds theta


def ensure_longposting_fixture() -> str:
    """Deterministic long-posting corpus (the MaxScore skip shape): a
    'common' term in every doc, a high-tf 'needle' in a few — block-max
    pruning must keep most of common's ~{LONGPOST_DOCS} postings
    undecoded."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = os.path.join(BENCH_ROOT,
                     f"longpost-{LONGPOST_DOCS}-{LONGPOST_NEEDLES}")
    path = os.path.join(d, "documents.parquet")
    if not os.path.exists(path):
        os.makedirs(d, exist_ok=True)
        rng = np.random.default_rng(17)
        needle = set(rng.choice(LONGPOST_DOCS, LONGPOST_NEEDLES,
                                replace=False).tolist())
        fill = rng.integers(0, 20000, (LONGPOST_DOCS, 6))
        reps = rng.integers(1, 4, LONGPOST_DOCS)
        texts = [
            " ".join(["common"] * int(reps[i])
                     + [f"f{v}" for v in fill[i]]
                     + (["needle"] * 8 if i in needle else []))
            for i in range(LONGPOST_DOCS)]
        pq.write_table(pa.table({
            "doc_id": pa.array(list(range(LONGPOST_DOCS)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * LONGPOST_DOCS),
            "source": pa.array(["t"] * LONGPOST_DOCS),
        }), path)
    return d


def _blockmax_quality() -> dict:
    """Stored block-max (BMW) evidence — round-4 VERDICT item 8: on
    the long-posting fixture, the pruned path must (a) return
    bit-identical top-k and (b) VALUE-decode a small fraction of the
    query terms' postings, and the wall-clock win is reported."""
    from raysearch.pipelines.search_queries import cached_index
    from raysearch.query import lexicon_df, query_index
    from raysearch.score import query_term_weights
    from raysearch.segments import (SCORER_COLUMNS_BMW, part_dirname,
                                    read_postings)
    from raysearch.stats import load_stats
    from raysearch.wand import LazyPostings, pruned_topk_blockmax

    sf = ensure_longposting_fixture()
    idx = cached_index(sf)
    q = "needle common"
    out: dict = {"blockmax_fixture_docs": LONGPOST_DOCS}

    def best2(label, **kw):
        secs, res = [], None
        for _ in range(2):     # best-of-2: one-shot scheduling noise
            t0 = time.perf_counter()
            res = query_index(idx, [q] * 10, k=10, mode="bm25", **kw)
            secs.append(time.perf_counter() - t0)
        out[label] = round(min(secs), 3)
        return res

    full = best2("blockmax_full_sec", prune=False)
    pruned = best2("blockmax_pruned_sec", prune=True)
    out["blockmax_identical"] = full.equals(pruned)

    st = load_stats(idx)
    qw = query_term_weights(q)
    terms = sorted({t for t, _ in qw})
    df = lexicon_df(idx, terms)
    total_df = decoded = 0
    for part in st["parts"]:
        tbl = read_postings(part_dirname(idx, part), terms,
                            columns=SCORER_COLUMNS_BMW)
        lazy = LazyPostings(tbl)
        pruned_topk_blockmax(qw, lazy, df, st["n_docs"], st["avgdl"],
                             st["config"]["k1"], st["config"]["b"],
                             10, "bm25")
        total_df += int(tbl["df"].to_pandas().sum())
        decoded += lazy.decoded_entries
    out["blockmax_decode_fraction"] = round(decoded / max(total_df, 1), 4)
    return out


def _clustered_ivf_quality() -> dict:
    """ivf-vs-exact agreement + speedup in the clustered regime the
    backbone targets: knn 1-NN edge recall, pagerank top-k overlap,
    label_prop agreement, at N=CLUSTERED_N over CLUSTERED_K gaussian
    clusters."""
    from raysearch.pipelines import graph as G
    from raysearch.pipelines import knn as KN

    sf = ensure_clustered_fixture()
    out: dict = {"clustered_fixture_n": CLUSTERED_N,
                 "clustered_fixture_k": CLUSTERED_K}

    def timed(key, fn, **kw):
        t0 = time.perf_counter()
        r = fn(sf, **kw).to_pandas()
        out[key] = round(time.perf_counter() - t0, 3)
        return r

    kex = timed("clustered_knn_exact_sec", KN.knn_graph)
    kiv = timed("clustered_knn_ivf_sec", KN.knn_graph, backbone="ivf")
    e1 = set(map(tuple, kex[kex["rank"] == 1][["vec_id", "nbr_id"]]
                 .values.tolist()))
    a1 = set(map(tuple, kiv[kiv["rank"] == 1][["vec_id", "nbr_id"]]
                 .values.tolist()))
    out["clustered_knn_ivf_1nn_recall"] = round(
        len(e1 & a1) / max(len(e1), 1), 3)
    out["clustered_knn_ivf_speedup"] = round(
        out["clustered_knn_exact_sec"]
        / max(out["clustered_knn_ivf_sec"], 1e-9), 2)

    pe = timed("clustered_pagerank_exact_sec", G.pagerank_topk)
    pi = timed("clustered_pagerank_ivf_sec", G.pagerank_topk,
               backbone="ivf")
    out["clustered_pagerank_ivf_topk_overlap"] = round(
        len(set(pe.vec_id) & set(pi.vec_id)) / max(len(pe), 1), 3)

    le = timed("clustered_label_prop_exact_sec", G.label_prop
               ).set_index("vec_id")
    li = timed("clustered_label_prop_ivf_sec", G.label_prop,
               backbone="ivf").set_index("vec_id")
    j = le.join(li, rsuffix="_ivf", how="inner")
    out["clustered_label_prop_ivf_label_agree"] = round(
        float((j.label == j.label_ivf).mean()), 3)
    return out


def _ivf_consumer_quality(sf_dir: str, exact: dict) -> dict:
    """Sub-quadratic-backbone evidence for the five kNN-graph
    consumers beyond knn_graph itself (round-3 VERDICT item 1): each
    runs on backbone='ivf', timed, and compared against its stashed
    exact-mode result — so BENCH shows both the ivf timing and how
    close the approximate graph's DOWNSTREAM answers stay."""
    from raysearch.pipelines import crossmodal as X
    from raysearch.pipelines import graph as G
    from raysearch.pipelines import knn as KN

    out: dict[str, float] = {}

    def timed(key, fn):
        t0 = time.perf_counter()
        r = fn(sf_dir, backbone="ivf").to_pandas()
        out[f"{key}_ivf_sec"] = round(time.perf_counter() - t0, 3)
        return r

    if "pagerank_topk" in exact:
        pe = exact["pagerank_topk"]
        pi = timed("pagerank_topk", G.pagerank_topk)
        out["pagerank_topk_ivf_topk_overlap"] = round(
            len(set(pe.vec_id) & set(pi.vec_id)) / max(len(pe), 1), 3)
    if "label_prop" in exact:
        le = exact["label_prop"].set_index("vec_id")
        li = timed("label_prop", G.label_prop).set_index("vec_id")
        j = le.join(li, rsuffix="_ivf", how="inner")
        out["label_prop_ivf_label_agree"] = round(
            float((j.label == j.label_ivf).mean()), 3)
    if "triangle_stats" in exact:
        te = exact["triangle_stats"].set_index("vec_id")
        ti = timed("triangle_stats", G.triangle_stats).set_index("vec_id")
        j = te.join(ti, rsuffix="_ivf", how="inner")
        out["triangle_stats_ivf_count_agree"] = round(
            float((j.n_triangles == j.n_triangles_ivf).mean()), 3)
    if "knn_label_eval" in exact:
        def acc(cm):
            tot = cm.n.sum()
            return float(cm[cm.true_label == cm.pred_label].n.sum()
                         / max(tot, 1))
        ae = acc(exact["knn_label_eval"])
        ai = acc(timed("knn_label_eval", KN.knn_label_eval))
        out["knn_label_eval_ivf_acc_delta"] = round(abs(ae - ai), 4)
    if "text_emb_consistency" in exact:
        ce = exact["text_emb_consistency"].set_index("doc_id")
        ci = timed("text_emb_consistency", X.text_emb_consistency
                   ).set_index("doc_id")
        j = ce.join(ci, rsuffix="_ivf", how="inner")
        out["text_emb_consistency_ivf_1nn_agree"] = round(
            float((j.nbr_id == j.nbr_id_ivf).mean()), 3)
    return out


def run_quality(sf_dir: str) -> dict:
    """Driver-visible quality numbers for the approximate (no-oracle)
    operators — recall/precision vs their exact counterparts and the
    CDC dedup ratio (round-2 VERDICT item 5). The pytest bounds exist
    too; this puts the measured curve in BENCH_r{N}.json where a user
    tuning planes/nprobe can see it."""
    from raysearch.pipelines import chunking as C
    from raysearch.pipelines import events as E
    from raysearch.pipelines import similarity as S

    out: dict[str, float] = {}
    exact = S.ann_topk(sf_dir).to_pandas()

    def recall(ap) -> float:
        recalls = []
        for q in range(S.N_QUERY_VECS):
            e = set(exact[exact.query_vec_id == q].vec_id)
            a = set(ap[ap.query_vec_id == q].vec_id)
            recalls.append(len(e & a) / max(len(e), 1))
        return round(sum(recalls) / len(recalls), 3)

    out[f"ann_ivf_recall_at_{S.TOPK}"] = recall(
        S.ann_ivf(sf_dir).to_pandas())
    from raysearch.pipelines import pq as PQ

    out[f"pq_topk_recall_at_{S.TOPK}"] = recall(
        PQ.pq_topk(sf_dir).to_pandas())
    out["pq_code_bytes_per_vec"] = PQ.PQ_M  # vs 4 x dim float32
    # the multiprobe recall/scan curve: default depth + one shallower
    # point, so the knob's tradeoff is visible in the artifact
    for probes in (S.LSH_PROBES, max(1, S.LSH_PROBES // 4)):
        out[f"ann_lsh_recall_at_{S.TOPK}_p{probes}"] = recall(
            S.ann_lsh(sf_dir, n_probes=probes).to_pandas())
        out[f"ann_lsh_scan_frac_p{probes}"] = round(
            probes / (1 << S.LSH_PLANES), 4)

    ex_pairs = S.embedding_dups(sf_dir).to_pandas()
    ap_pairs = S.embedding_dups_lsh(sf_dir).to_pandas()
    ex = set(zip(ex_pairs.vec_a, ex_pairs.vec_b))
    ap = set(zip(ap_pairs.vec_a, ap_pairs.vec_b))
    out["embedding_dups_lsh_pair_recall"] = round(
        len(ex & ap) / max(len(ex), 1), 3)
    out["embedding_dups_lsh_pair_precision"] = round(
        len(ex & ap) / max(len(ap), 1), 3)
    hot = ex_pairs[ex_pairs.cos >= 0.9]
    if len(hot):
        hs = set(zip(hot.vec_a, hot.vec_b))
        out["embedding_dups_lsh_recall_cos90"] = round(
            len(hs & ap) / len(hs), 3)

    sd = S.semdedup(sf_dir).to_pandas()
    sd_flagged = set(sd[sd.is_dup == 1].vec_id)
    sd_exact = set(ex_pairs.vec_b)
    out["semdedup_recall"] = round(
        len(sd_flagged & sd_exact) / max(len(sd_exact), 1), 3)
    out["semdedup_precision"] = round(
        len(sd_flagged & sd_exact) / max(len(sd_flagged), 1), 3)
    out["semdedup_flagged_frac"] = round(
        len(sd_flagged) / max(len(sd), 1), 4)

    from raysearch.pipelines import knn as KN

    kex = KN.knn_graph(sf_dir).to_pandas()
    kiv = KN.knn_graph(sf_dir, backbone="ivf").to_pandas()
    e1 = set(map(tuple, kex[kex["rank"] == 1][["vec_id", "nbr_id"]]
                 .values.tolist()))
    a1 = set(map(tuple, kiv[kiv["rank"] == 1][["vec_id", "nbr_id"]]
                 .values.tolist()))
    out["knn_ivf_1nn_edge_recall"] = round(
        len(e1 & a1) / max(len(e1), 1), 3)
    ek = set(map(tuple, kex[["vec_id", "nbr_id"]].values.tolist()))
    ak = set(map(tuple, kiv[["vec_id", "nbr_id"]].values.tolist()))
    out["knn_ivf_edge_recall"] = round(len(ek & ak) / max(len(ek), 1), 3)

    st = C.chunk_dedup_stats(sf_dir).to_pandas().iloc[0]
    out["cdc_distinct_chunk_ratio"] = round(
        float(st.distinct_chunks) / max(int(st.total_chunks), 1), 3)
    out["cdc_bytes_saved_pct"] = round(
        100.0 * (1 - float(st.distinct_bytes)
                 / max(int(st.total_bytes), 1)), 3)

    exq = E.event_quantiles(sf_dir).to_pandas().set_index("event_type")
    apq = E.event_quantiles_tdigest(sf_dir).to_pandas().set_index(
        "event_type")
    rel = max(
        (abs(apq.p50 - exq.p50) / exq.p50.abs().clip(lower=1e-9)).max(),
        (abs(apq.p95 - exq.p95) / exq.p95.abs().clip(lower=1e-9)).max())
    out["tdigest_max_rel_err"] = round(float(rel), 5)

    from raysearch.pipelines import sketches as K

    exd = K.distinct_users(sf_dir).to_pandas().set_index("event_type")
    apd = K.hll_distinct_users(sf_dir).to_pandas().set_index("event_type")
    out["hll_max_rel_err"] = round(float(
        (abs(apd.n_users_est - exd.n_users)
         / exd.n_users.clip(lower=1)).max()), 5)

    hh = K.heavy_hitters(sf_dir).to_pandas()
    ss = K.heavy_hitters_ss(sf_dir).to_pandas()
    if len(hh):
        # sketch top-k vs the TRUE top-k (exact list truncated the
        # same way) — measures sketch error, not the k cutoff
        top = set(hh.sort_values(["cnt", "term"],
                                 ascending=[False, True])
                  .head(len(ss)).term)
        out["hh_ss_recall_topk"] = round(
            len(top & set(ss.term)) / max(len(top), 1), 3)
    if len(ss):
        out["hh_ss_interval_rel_width"] = round(float(
            ((ss.cnt_hi - ss.cnt_lo) / ss.cnt_lo.clip(lower=1))
            .max()), 5)
    return out


def ensure_corpus() -> str:
    if not os.path.isdir(CORPUS_DIR) or not os.listdir(CORPUS_DIR):
        from raysearch.corpus import write_corpus_parallel

        os.makedirs(BENCH_ROOT, exist_ok=True)
        write_corpus_parallel(CORPUS_DIR, CORPUS_DOCS, rows_per_file=6250)
    return CORPUS_DIR


def run_bench() -> dict:
    ncpu = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    import ray.data
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    from raysearch.build import build_index
    from raysearch.config import IndexConfig
    from raysearch.corpus import QUERIES
    from raysearch.query import query_index

    corpus = ensure_corpus()
    # untimed warmup: one full (small) build spawns the whole worker
    # pool, imports, and page cache, so the timed run measures
    # steady-state compute + shuffle, not cluster cold-start
    warm_idx = os.path.join(BENCH_ROOT, f"warm-{ncpu}")
    shutil.rmtree(warm_idx, ignore_errors=True)
    import ray.data as _rd

    warm_src = sorted(
        os.path.join(CORPUS_DIR, f) for f in os.listdir(CORPUS_DIR))[:2]
    build_index(warm_src, warm_idx, IndexConfig(num_parts=8),
                input_id="warmup")
    n_docs = _rd.read_parquet(corpus).count()

    idx = os.path.join(BENCH_ROOT, f"idx-{ncpu}")
    shutil.rmtree(idx, ignore_errors=True)
    t0 = time.perf_counter()
    res = build_index(corpus, idx, IndexConfig(num_parts=NUM_PARTS),
                      input_id=f"bench-{CORPUS_DOCS}")
    build_sec = time.perf_counter() - t0
    assert res.stats["n_docs"] == n_docs

    t0 = time.perf_counter()
    out = query_index(idx, QUERIES, k=K, mode="bm25")
    qbatch_sec = time.perf_counter() - t0
    assert out.num_rows == len(QUERIES) * K

    # MaxScore/block-max pruned path: must be bit-identical to the
    # exhaustive scorer (exact pruning), reported alongside it
    t0 = time.perf_counter()
    out_pruned = query_index(idx, QUERIES, k=K, mode="bm25", prune=True)
    qbatch_pruned_sec = time.perf_counter() - t0
    assert out_pruned.equals(out), "pruned top-k diverged from exact"

    lat = []
    for q in QUERIES:
        t0 = time.perf_counter()
        query_index(idx, [q], k=K, mode="bm25")
        lat.append(time.perf_counter() - t0)
    lat.sort()
    p50_ms = 1000 * lat[len(lat) // 2]

    # resident serving: same per-query latency through the
    # segment-affine actor pool; the second pass is fully cache-hot
    # (no segment reads) — the long-lived-session serving number
    from raysearch.serve import QuerySession

    with QuerySession(idx, num_actors=min(8, ncpu)) as session:
        session.query_batch(QUERIES[:1], k=K)  # actor spin-up, untimed
        cold, warm = [], []
        for q in QUERIES:
            t0 = time.perf_counter()
            session.query_batch([q], k=K)
            cold.append(time.perf_counter() - t0)
        for q in QUERIES:
            t0 = time.perf_counter()
            session.query_batch([q], k=K)
            warm.append(time.perf_counter() - t0)
        # warm throughput: one 100-query batch (10 distinct x 10), all
        # terms cached — the steady-state serving rate
        big = QUERIES * 10
        t0 = time.perf_counter()
        session.query_batch(big, k=K)
        resident_qps = len(big) / (time.perf_counter() - t0)
    cold.sort()
    warm.sort()
    resident_cold_ms = 1000 * cold[len(cold) // 2]
    resident_warm_ms = 1000 * warm[len(warm) // 2]

    per_query: dict[str, float] = {}
    quality: dict[str, float] = {}
    import __ray_entry__ as entrymod

    qmap = entrymod.queries()
    if os.environ.get("RAY_GRAFT_SKIP_PEROP"):
        qmap = {}
    exact_results: dict = {}
    for name, fn in qmap.items():  # every registry entry, timed
        t0 = time.perf_counter()
        qres = fn(sf_dir)
        per_query[name] = round(time.perf_counter() - t0, 3)
        if name in KEEP_FOR_QUALITY:
            exact_results[name] = qres.to_pandas()
    if qmap:
        quality = run_quality(sf_dir)
        quality.update(_ivf_consumer_quality(sf_dir, exact_results))
        quality.update(_clustered_ivf_quality())
        quality.update(_blockmax_quality())

    # partition skew: largest / median posting mass across segments
    detail = res.stats.get("parts_detail") or []
    skew = None
    if detail:
        masses = sorted(d["n_postings"] for d in detail)
        med = masses[len(masses) // 2]
        skew = round(masses[-1] / med, 3) if med else None

    total = build_sec + qbatch_sec
    result = {
        "metric": f"index-build + 10-query BM25 batch (sec, "
                  f"{CORPUS_DOCS}-doc corpus)",
        "value": round(total, 3),
        "unit": "sec",
        "queries": per_query,
        "sf": sf_dir,
        "num_cpus": ncpu,
        "build_sec": round(build_sec, 3),
        "query_batch_sec": round(qbatch_sec, 3),
        "query_batch_pruned_sec": round(qbatch_pruned_sec, 3),
        "quality": quality,
        "docs_per_sec": round(n_docs / build_sec, 1),
        "p50_query_ms": round(p50_ms, 1),
        "p50_resident_cold_ms": round(resident_cold_ms, 1),
        "p50_resident_warm_ms": round(resident_warm_ms, 1),
        "resident_warm_qps": round(resident_qps, 1),
        "n_docs": n_docs,
        "part_skew_max_over_median": skew,
    }
    ray.shutdown()
    return result


def run_scaling() -> dict:
    # The sandbox host shows CPU-steal variance (identical builds range
    # +-30% across minutes), so each parallelism level runs TWICE in
    # fresh processes and the better run (min wall) represents the
    # level — standard noise-robust benchmarking. Default corpus for
    # scaling is 1M docs: enough work that the exchange's fixed
    # latency doesn't dominate the 32-cpu point.
    scaling_docs = os.environ.get("RAY_GRAFT_BENCH_DOCS", "1000000")

    def run_once(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   RAY_GRAFT_BENCH_DOCS=scaling_docs,
                   RAY_GRAFT_SKIP_PEROP="1",  # scaling measures the build
                   GRAFT_SF_DIR=os.environ.get("GRAFT_SF_DIR",
                                               "/root/testdata/sf0.1"))
        out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                             env=env, capture_output=True, text=True,
                             check=True).stdout
        return json.loads(out.strip().splitlines()[-1])

    def run(ncpu: int) -> dict:
        a, b = run_once(ncpu), run_once(ncpu)
        return a if a["build_sec"] <= b["build_sec"] else b

    # N -> 4N per the scaling criterion. Default 8 -> 32 (the honest
    # pair): round 2 measured 0.699 here and attributed the miss to
    # single-box memory-bandwidth saturation; round 3 cut shuffle
    # bytes (dictionary-encoded terms through the build exchange,
    # triples.py) and the pair now measures >= 0.8 — see BASELINE.md
    # for the run-by-run evidence. Override with
    # RAY_GRAFT_SCALE_CPUS="4,16" etc.
    lo_n, hi_n = (int(x) for x in os.environ.get(
        "RAY_GRAFT_SCALE_CPUS", "8,32").split(","))
    lo, hi = run(lo_n), run(hi_n)
    eff = (hi["docs_per_sec"] / lo["docs_per_sec"]) / (hi_n / lo_n)
    return {
        "metric": f"scaling efficiency (num_cpus {lo_n} -> {hi_n}, "
                  f"same input)",
        "value": round(eff, 3),
        "unit": "efficiency",
        "cpus_lo": lo_n, "cpus_hi": hi_n,
        "sec_lo": lo["value"], "sec_hi": hi["value"],
        "build_sec_lo": lo["build_sec"], "build_sec_hi": hi["build_sec"],
        "docs_per_sec_lo": lo["docs_per_sec"],
        "docs_per_sec_hi": hi["docs_per_sec"],
        "p50_query_ms_lo": lo["p50_query_ms"],
        "p50_query_ms_hi": hi["p50_query_ms"],
        "scaling_efficiency": round(eff, 3),
    }


def _emit(result: dict) -> None:
    """Print the bench record without overflowing the driver's tail
    capture (2000 chars, last line wins — BENCH_r03.json recorded
    "parsed": null because the single line with the 100+-entry per-op
    dict blew past it). Full record -> sidecar file + an early stdout
    line; FINAL stdout line = compact headline whose per-op dict is
    truncated to fit the capture window."""
    sidecar = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "BENCH_PEROP.json")
    if not result.get("queries"):
        # scaling subprocesses run with RAY_GRAFT_SKIP_PEROP and must
        # not clobber the rich per-op sidecar with an empty record
        sidecar = None
    if sidecar:
        try:
            with open(sidecar, "w") as f:
                json.dump(result, f, indent=1, sort_keys=True)
        except OSError:
            sidecar = None
    print(json.dumps(result))  # full record, own (possibly long) line

    headline = dict(result)
    per_op = headline.get("queries") or {}
    headline["quality"] = {}
    headline["n_queries_timed"] = len(per_op)
    if sidecar:
        headline["queries_full"] = os.path.basename(sidecar)
    # keep registry order; drop from the tail until the compact line
    # fits well inside the 2000-char window
    names = list(per_op)
    keep = dict(per_op)
    while True:
        headline["queries"] = {n: keep[n] for n in names if n in keep}
        line = json.dumps(headline, separators=(",", ":"))
        if len(line) <= 1800 or not keep:
            break
        keep.pop(names[len(keep) - 1])
        names = names[:len(keep)]
    print(line)


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        _emit(run_bench())
