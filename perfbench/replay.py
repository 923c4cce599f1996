"""Traced run: replay each layer's public functions in-process on the
workload's inputs and time them one by one.

Every workload's traced run covers all layers, each phase sized by the
workload it belongs to:

1. **build** — one warm Ray ``build_index`` gives the wall time; the
   replay runs ``make_triple_fn`` per corpus file, splits the triples by
   ``gkey`` as the exchange would, then ``build_partials`` ->
   ``merge_partials`` -> ``write_segment_files`` -> ``write_manifest``
   per part and the lexicon write. A seeded quarter of the replayed
   parts is then deleted and ``validate_manifest`` is run over all of
   them, as a resume does. ``build.ray_s`` is the Ray wall minus the
   replayed layers: the exchange, scheduling and reads.
2. **query** — ``query_index`` calls (one-shots and batches on
   ``query``, the tiered check set elsewhere) give the wall time; the
   replay runs ``lexicon_df`` -> ``read_postings`` ->
   ``decode_posting_row`` -> ``score_queries_over_postings`` per part ->
   ``merge_candidates``. ``query.ray_s`` is the planning and launch
   residual. The check set is also run through
   ``pruned_topk_blockmax`` per part for the decoded-entry fractions.
3. **serve** — a ``QuerySession`` over the warm head and a stream
   prefix gives the wall time; the replay drives the
   ``_SegmentServerImpl`` body in-process (``_ensure_terms`` then the
   scorer per part). ``serve.rpc_s`` is the residual.

The replay's outputs are checked against the Ray path: byte-identical
segment files, identical query tables, identical cache counters. A
second, span-free replay of the query phase gives the tracing
overhead.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from perfbench import measure, workloads
from perfbench.workloads import K

ONESHOT_CALLS = {"query": 12, "build": 3, "serve": 3}
BATCH_CALLS = {"query": 2, "build": 0, "serve": 0}
SERVE_CALLS = {"serve": 120, "build": 30, "query": 30}

UNITS = {
    "triples.s": "s", "triples.rows": "count",
    "segments.partials_s": "s", "segments.merge_s": "s",
    "segments.write_s": "s", "segments.bytes_written": "bytes",
    "checkpoint.manifest_s": "s", "checkpoint.validate_s": "s",
    "resume.parts_rebuilt": "count",
    "build.lexicon_s": "s", "build.part_skew": "ratio",
    "build.ray_s": "s", "build.wall_s": "s",
    "query.lexicon_s": "s", "query.merge_s": "s",
    "query.candidates": "count", "query.ray_s": "s", "query.wall_s": "s",
    "query.parts_useful_ratio.hot": "ratio",
    "query.parts_useful_ratio.mid": "ratio",
    "query.parts_useful_ratio.rare": "ratio",
    "segments.read_s": "s", "segments.rows_read": "count",
    "codec.decode_s": "s", "codec.entries_decoded": "count",
    "score.s": "s",
    "wand.decode_fraction.hot": "ratio",
    "wand.decode_fraction.mid": "ratio",
    "wand.decode_fraction.rare": "ratio",
    "serve.lexicon_s": "s", "serve.fetch_s": "s", "serve.score_s": "s",
    "serve.merge_s": "s", "serve.rpc_s": "s", "serve.wall_s": "s",
    "serve.cache_hit_ratio": "ratio", "serve.misses": "count",
}

BUILD_LAYERS = ("triples", "segments.partials", "segments.merge",
                "segments.write", "checkpoint.manifest", "build.lexicon")
QUERY_LAYERS = ("query.lexicon", "segments.read", "codec.decode", "score",
                "query.merge")
SERVE_LAYERS = ("serve.lexicon", "serve.fetch", "serve.score", "serve.merge")


# ---- build ----

def replay_build(files: list[str], config, out_dir: str, input_id: str,
                 spans: measure.Spans) -> dict:
    """Write a full index at ``out_dir`` layer by layer; per-part triple
    row counts, for the skew figure."""
    from raysearch import checkpoint
    from raysearch.build import _write_lexicon
    from raysearch.segments import (build_partials, merge_partials,
                                    part_dirname, write_segment_files)
    from raysearch.triples import make_triple_fn

    fn = make_triple_fn(config)
    corpus = [pq.read_table(f, columns=["doc_id", "lang", "content"])
              for f in files]
    with spans("triples"):
        triples = [fn(t) for t in corpus]
    spans.count("triples.rows", sum(t.num_rows for t in triples))
    # the exchange, emulated (not a layer: Ray's shuffle does this)
    allt = pa.concat_tables(triples)
    gkeys = allt["gkey"].to_numpy()
    config_hash = config.config_hash()
    part_rows, n_terms = {}, 0
    for g in np.unique(gkeys):
        group = allt.filter(pa.array(gkeys == g))
        part = int(g)
        part_rows[part] = group.num_rows
        part_dir = part_dirname(out_dir, part)
        with spans("segments.partials"):
            partial = build_partials(group)
        with spans("segments.merge"):
            postings, doclens = merge_partials(partial)
        with spans("segments.write"):
            s = write_segment_files(part_dir, postings, doclens)
        spans.count("segments.bytes_written", sum(
            os.path.getsize(os.path.join(part_dir, f))
            for f in ("postings.parquet", "doclens.parquet")))
        with spans("checkpoint.manifest"):
            checkpoint.write_manifest(part_dir, part, config_hash,
                                      {"input_id": input_id}, s, {})
        n_terms += s["n_terms"]
    with spans("build.lexicon"):
        _write_lexicon(out_dir, n_rows_hint=n_terms)
    return part_rows


def replay_resume(out_dir: str, config, input_id: str, seed: int,
                  spans: measure.Spans) -> None:
    """Delete a seeded quarter of the parts, then validate every part's
    manifest the way a resumed build does."""
    from raysearch import checkpoint
    from raysearch.segments import list_segment_parts, part_dirname

    parts = list_segment_parts(out_dir)
    rng = np.random.default_rng([seed, 4])
    for p in rng.choice(parts, size=max(1, len(parts) // 4), replace=False):
        shutil.rmtree(part_dirname(out_dir, int(p)))
    config_hash = config.config_hash()
    with spans("checkpoint.validate"):
        valid = [p for p in range(config.num_parts)
                 if checkpoint.validate_manifest(
                     part_dirname(out_dir, p), config_hash, input_id)]
    spans.count("resume.parts_rebuilt", config.num_parts - len(valid))


# ---- query ----

def replay_query(index_dir: str, queries: list[str],
                 spans: measure.Spans) -> pa.Table:
    """One ``query_index`` call, layer by layer, in-process."""
    from raysearch.query import (lexicon_df, merge_candidates,
                                 score_queries_over_postings)
    from raysearch.score import as_qweights
    from raysearch.segments import (SCORER_COLUMNS, decode_posting_row,
                                    part_dirname, read_postings)
    from raysearch.stats import load_stats

    st = load_stats(index_dir)
    cfg = st["config"]
    qweights = [as_qweights(q) for q in queries]
    terms = sorted({t for qw in qweights for t, _ in qw})
    with spans("query.lexicon"):
        df = lexicon_df(index_dir, terms)
    cands = []
    for part in st["parts"]:
        with spans("segments.read"):
            tbl = read_postings(part_dirname(index_dir, part), terms,
                                columns=SCORER_COLUMNS)
        spans.count("segments.rows_read", tbl.num_rows)
        with spans("codec.decode"):
            postings, max_tfs = {}, {}
            for i, t in enumerate(tbl["term"].to_pylist()):
                postings[t] = decode_posting_row(tbl, i)
                max_tfs[t] = tbl["max_tf"][i].as_py()
        spans.count("codec.entries_decoded",
                    sum(len(p[0]) for p in postings.values()))
        with spans("score"):
            cands.append(score_queries_over_postings(
                qweights, postings, max_tfs, df, st["n_docs"], st["avgdl"],
                cfg["k1"], cfg["b"], K, "bm25"))
    spans.count("query.candidates", sum(c.num_rows for c in cands))
    with spans("query.merge"):
        out = merge_candidates(pa.concat_tables(cands).to_pandas(),
                               len(queries), K)
    return out


def tier_ratios(index_dir: str, queries: list[str], tiers: list[str]) -> dict:
    """Per tier: parts holding any query term / parts read, and posting
    entries ``pruned_topk_blockmax`` decodes / the terms' summed df."""
    from raysearch.query import lexicon_df
    from raysearch.score import as_qweights
    from raysearch.segments import (SCORER_COLUMNS_BMW, part_dirname,
                                    read_postings)
    from raysearch.stats import load_stats
    from raysearch.wand import LazyPostings, pruned_topk_blockmax

    st = load_stats(index_dir)
    cfg = st["config"]
    acc: dict = {}
    for q, tier in zip(queries, tiers):
        qw = as_qweights(q)
        terms = sorted({t for t, _ in qw})
        df = lexicon_df(index_dir, terms)
        a = acc.setdefault(tier, [0, 0, 0, 0])
        for part in st["parts"]:
            lazy = LazyPostings(read_postings(
                part_dirname(index_dir, part), terms,
                columns=SCORER_COLUMNS_BMW))
            a[0] += bool(lazy.row)
            a[1] += 1
            pruned_topk_blockmax(qw, lazy, df, st["n_docs"], st["avgdl"],
                                 cfg["k1"], cfg["b"], K, "bm25")
            a[2] += lazy.decoded_entries
            a[3] += int(sum(lazy.df.values()))
    out = {}
    for tier, (useful, read, dec, total) in acc.items():
        out[f"query.parts_useful_ratio.{tier}"] = useful / read
        out[f"wand.decode_fraction.{tier}"] = dec / total if total else 1.0
    return out


# ---- serve ----

def replay_serve(index_dir: str, calls: list[list[str]],
                 spans: measure.Spans) -> tuple[list[pa.Table], object]:
    """``QuerySession.query_batch`` per call, with the actor body
    (``_SegmentServerImpl``) run in-process. Returns the outputs and the
    server, whose cache counters the real actor must match."""
    from raysearch.query import (lexicon_df, merge_candidates,
                                 score_queries_over_postings)
    from raysearch.score import as_qweights
    from raysearch.serve import _SegmentServerImpl
    from raysearch.stats import load_stats

    parts = load_stats(index_dir)["parts"]
    srv = _SegmentServerImpl(index_dir, parts)
    outs = []
    for queries in calls:
        qweights = [as_qweights(q) for q in queries]
        terms = sorted({t for qw in qweights for t, _ in qw})
        with spans("serve.lexicon"):
            df = lexicon_df(index_dir, terms)
        frames = []
        for part in srv.parts:
            with spans("serve.fetch"):
                postings, max_tfs = srv._ensure_terms(part, terms)
            with spans("serve.score"):
                frames.append(score_queries_over_postings(
                    qweights, postings, max_tfs, df, srv.n_docs, srv.avgdl,
                    srv.k1, srv.b, K, "bm25").to_pandas())
        with spans("serve.merge"):
            outs.append(merge_candidates(pd.concat(frames, ignore_index=True),
                                         len(queries), K))
    return outs, srv


# ---- traced run ----

def _timed(fn, *a, **kw):
    t0 = time.perf_counter()
    out = fn(*a, **kw)
    return out, time.perf_counter() - t0


def run(workload: str, ctx) -> dict:
    from raysearch.query import query_index
    from raysearch.serve import QuerySession

    counts = {"attempted": 0, "failed": 0}

    def check(ok: bool) -> None:
        counts["attempted"] += 1
        counts["failed"] += not ok

    spans = measure.Spans()
    files = ctx.inputs["corpus_files"]
    streams = ctx.inputs["streams"]
    ctx.probe.start()

    # 1. build: the set-up build, then one more for the wall time
    idx, _ = workloads.build(ctx, "setup")
    warm, build_wall = workloads.build(ctx, "warm")
    rep_dir = os.path.join(ctx.work, "replay")
    input_id = "replay"
    part_rows = replay_build(files, ctx.config, rep_dir, input_id, spans)
    check(workloads.segment_digests(rep_dir) == workloads.segment_digests(idx))
    shutil.rmtree(warm)
    replay_resume(rep_dir, ctx.config, input_id, ctx.seed, spans)
    rows = np.array(list(part_rows.values()), np.float64)

    # 2. query: Ray walls, then the same calls replayed
    calls = [[q] for q in streams["oneshot"][:ONESHOT_CALLS[workload]]]
    calls += streams["batches"][:BATCH_CALLS[workload]]
    if workload != "query":
        calls.append(streams["check"])
    ray_outs, query_wall = [], 0.0
    for qs in calls:
        out, wall = _timed(query_index, idx, qs, k=K)
        ray_outs.append(out)
        query_wall += wall
    t0 = time.perf_counter()
    for qs, want in zip(calls, ray_outs):
        check(replay_query(idx, qs, spans).equals(want))
    traced_wall = time.perf_counter() - t0
    bare = measure.Spans(enabled=False)
    t0 = time.perf_counter()
    for qs in calls:
        replay_query(idx, qs, bare)
    overhead_s = traced_wall - (time.perf_counter() - t0)
    traced_s = sum(spans.seconds[n] for n in QUERY_LAYERS)
    ratios = tier_ratios(idx, streams["check"], streams["check_tiers"])

    # 3. serve: a resident session over the warm head + stream prefix
    serve_calls = ([streams["serve_warm"]]
                   + [[q] for q in streams["serve"][:SERVE_CALLS[workload]]])
    session = QuerySession(idx, num_actors=ctx.nproc)
    served, serve_wall = [], 0.0
    for qs in serve_calls:
        out, wall = _timed(session.query_batch, qs, k=K)
        served.append(out)
        serve_wall += wall
    cache = session.cache_stats()
    session.close()
    replayed, srv = replay_serve(idx, serve_calls, spans)
    check(all(a.equals(b) for a, b in zip(replayed, served)))
    check(sum(c["misses"] for c in cache) == srv.misses
          and sum(c["hits"] for c in cache) == srv.hits)
    host = ctx.probe.stop()

    sec, cnt = spans.seconds, spans.counts
    metrics = {
        "triples.s": sec["triples"], "triples.rows": cnt["triples.rows"],
        "segments.partials_s": sec["segments.partials"],
        "segments.merge_s": sec["segments.merge"],
        "segments.write_s": sec["segments.write"],
        "segments.bytes_written": cnt["segments.bytes_written"],
        "checkpoint.manifest_s": sec["checkpoint.manifest"],
        "checkpoint.validate_s": sec["checkpoint.validate"],
        "resume.parts_rebuilt": cnt["resume.parts_rebuilt"],
        "build.lexicon_s": sec["build.lexicon"],
        "build.part_skew": float(rows.max() / np.median(rows)),
        "build.ray_s": build_wall - sum(sec[n] for n in BUILD_LAYERS),
        "build.wall_s": build_wall,
        "query.lexicon_s": sec["query.lexicon"],
        "query.merge_s": sec["query.merge"],
        "query.candidates": cnt["query.candidates"],
        "query.ray_s": query_wall - traced_s,
        "query.wall_s": query_wall,
        **ratios,
        "segments.read_s": sec["segments.read"],
        "segments.rows_read": cnt["segments.rows_read"],
        "codec.decode_s": sec["codec.decode"],
        "codec.entries_decoded": cnt["codec.entries_decoded"],
        "score.s": sec["score"],
        "serve.lexicon_s": sec["serve.lexicon"],
        "serve.fetch_s": sec["serve.fetch"],
        "serve.score_s": sec["serve.score"],
        "serve.merge_s": sec["serve.merge"],
        "serve.rpc_s": serve_wall - sum(sec[n] for n in SERVE_LAYERS),
        "serve.wall_s": serve_wall,
        "serve.cache_hit_ratio": srv.hits / max(1, srv.hits + srv.misses),
        "serve.misses": srv.misses,
    }
    report = {
        "calls": {"build": 1, "query": len(calls), "serve": len(serve_calls)},
        "trace_overhead_s": overhead_s,
        "layer_share": {
            "build": 1 - metrics["build.ray_s"] / build_wall,
            "query": 1 - metrics["query.ray_s"] / query_wall,
            "serve": 1 - metrics["serve.rpc_s"] / serve_wall,
        },
    }
    return {"metrics": metrics, "report": report, "host": host, **counts}
