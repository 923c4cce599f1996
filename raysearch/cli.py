"""CLI entry points (``ray job submit`` friendly).

    python -m raysearch.cli gen-corpus --out /tmp/corpus --docs 100000
    python -m raysearch.cli build --corpus /tmp/corpus --index /tmp/idx \
        --parts 64 [--with-positions]
    python -m raysearch.cli query --index /tmp/idx --query "hash join" \
        [--k 10 --mode bm25 --prune]
    python -m raysearch.cli serve --index /tmp/idx   # stdin REPL (S3)

The CLI owns the Ray session: a command starts Ray only when no
session is running, and shuts down only a session it started. The
library never calls ray.init itself, so the same code runs under the
driver's pre-initialised session, pytest's session fixture, or a
submitted job.
"""

from __future__ import annotations

import argparse
import contextlib
import json


@contextlib.contextmanager
def _ray_session():
    """Ray for one command: a session already running (the driver's,
    pytest's, a submitted job's) is used and left running; one this
    command starts is shut down when the command ends, however it
    ends."""
    import ray

    started = not ray.is_initialized()
    if started:
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    try:
        yield
    finally:
        if started:
            ray.shutdown()


def cmd_gen_corpus(args) -> None:
    with _ray_session():
        from raysearch.corpus import write_corpus, write_corpus_parallel

        if args.docs >= 50_000:
            write_corpus_parallel(args.out, args.docs, seed=args.seed)
        else:
            write_corpus(args.out, args.docs, seed=args.seed)
        print(json.dumps({"out": args.out, "docs": args.docs}))


def cmd_build(args) -> None:
    with _ray_session():
        from raysearch.build import build_index
        from raysearch.config import IndexConfig

        cfg = IndexConfig(num_parts=args.parts, k1=args.k1, b=args.b,
                          with_positions=args.with_positions)
        res = build_index(
            args.corpus, args.index, cfg, input_id=args.corpus,
            supported_langs=frozenset(args.langs.split(","))
            if args.langs else None,
            dedup_input=args.dedup_input)
        print(json.dumps({
            "index": res.index_dir,
            "n_docs": res.stats["n_docs"],
            "vocab_size": res.stats.get("vocab_size"),
            "avgdl": res.stats["avgdl"],
            "parts_built": res.parts_built,
            "parts_skipped": res.parts_skipped,
        }))


def _require_index(path: str) -> None:
    import os

    from raysearch.stats import stats_path

    if not os.path.exists(stats_path(path)):
        print(json.dumps({
            "error": f"not a completed index: {path} "
                     f"(missing stats.json — is the build finished? "
                     f"use 'monitor --index {path}' to inspect)"}),
            flush=True)
        raise SystemExit(2)


def cmd_query(args) -> None:
    _require_index(args.index)
    from raysearch.query import query_index, read_queries

    if args.queries_file:
        queries = read_queries(args.queries_file)
    else:
        queries = [args.query]
    if args.dsl:
        # boolean query language (Lucene classic QueryParser surface):
        # AND/OR/NOT with grouping, BM25 over the positive terms,
        # restricted to the matching set. Own plan — the scoring-mode
        # and boost/decay/prune knobs apply to bag-of-words queries
        if (args.prune or args.mode != "bm25"
                or args.boost_term or args.decay or args.rank_feature):
            raise SystemExit("--dsl implies --mode bm25 without "
                             "--prune/--boost-term/--decay/"
                             "--rank-feature")
        from raysearch.pipelines.queryparse import (DslError,
                                                    dsl_query_index)

        with _ray_session():
            try:
                out = dsl_query_index(args.index, queries, k=args.k)
            except DslError as e:
                raise SystemExit(f"DSL parse error: {e}") from None
            _emit_query_results(args, out)
        return
    decay = (_float_pair(args.decay, "--decay expects ORIGIN,SCALE "
                         "(e.g. 50,40)") if args.decay else None)
    rank_feature = (_float_pair(args.rank_feature, "--rank-feature "
                                "expects W,PIVOT (e.g. 2,50)")
                    if args.rank_feature else None)
    from raysearch.score import check_query_options

    try:  # before the distributed boost-list derivation: fail fast
        check_query_options(
            args.mode, args.prune,
            (None, args.boost_factor) if args.boost_term else None,
            decay, rank_feature)
    except ValueError as e:  # name the flag the user typed
        msg = str(e)
        for knob, flag in (("boost factor", "--boost-factor"),
                           ("decay scale", "--decay SCALE"),
                           ("rank_feature w and pivot",
                            "--rank-feature W and PIVOT"),
                           ("rank_feature", "--rank-feature")):
            msg = msg.replace(knob, flag)
        raise SystemExit(msg) from None
    if args.boost_term:
        _one_token(args.boost_term, "--boost-term")
    # Ray starts only once the flags are known to be valid
    with _ray_session():
        boost = None
        if args.boost_term:
            # Lucene-style static boost list sourced from the index: docs
            # containing --boost-term score x --boost-factor, applied
            # pre-truncation in every segment scorer (exact ranking)
            from raysearch.pipelines.search_queries import static_boost_ids

            boost = (static_boost_ids(args.index, args.boost_term),
                     args.boost_factor)
        out = query_index(args.index, queries, k=args.k, mode=args.mode,
                          prune=args.prune, boost=boost, decay=decay,
                          rank_feature=rank_feature)
        _emit_query_results(args, out)


def _one_token(text: str, what: str) -> str:
    """The one token ``text`` normalizes to under the query tokenizer;
    anything else exits with a message naming ``what``."""
    from raysearch.tokenize import tokenize_query

    toks = tokenize_query(text)
    if len(toks) != 1:
        raise SystemExit(f"{what} must normalize to exactly one token, "
                         f"got {toks!r} from {text!r}")
    return toks[0]


def _float_pair(text: str, usage: str) -> tuple[float, float]:
    """``"A,B"`` as two floats; anything else exits with ``usage``.
    Their values are checked by score.check_query_options."""
    try:
        a, b = (float(x) for x in text.split(","))
    except ValueError:
        raise SystemExit(usage) from None
    return a, b


def _emit_query_results(args, out) -> None:
    if args.out:
        import pyarrow.parquet as pq

        os_mod = __import__("os")
        os_mod.makedirs(args.out, exist_ok=True)
        pq.write_table(out, os_mod.path.join(args.out, "results.parquet"))
        print(json.dumps({"out": args.out, "rows": out.num_rows}))
    else:
        for row in out.to_pylist():
            print(json.dumps(row))


def cmd_serve(args) -> None:
    """Resident query REPL (the reference's stdin serve surface,
    src/main.rs:247-287, re-expressed over the segment-affine actor
    pool): one query per stdin line, top-k JSON per result line;
    decoded postings stay cached in the actors between lines.
    ``:stats`` prints per-actor cache stats; EOF or ``:quit`` exits."""
    import sys

    _require_index(args.index)
    with _ray_session():
        from raysearch.serve import QuerySession

        with QuerySession(args.index, num_actors=args.actors) as session:
            print(json.dumps({"ready": True, "index": args.index,
                              "parts": session.n_parts}), flush=True)
            for line in sys.stdin:
                q = line.strip()
                if not q:
                    continue
                if q == ":quit":
                    break
                if q == ":stats":
                    print(json.dumps({"cache": session.cache_stats()}),
                          flush=True)
                    continue
                out = session.query_batch([q], k=args.k, mode=args.mode)
                print(json.dumps({"query": q, "results": out.to_pylist()}),
                      flush=True)


def cmd_serve_tcp(args) -> None:
    """TCP submit/poll servers (the reference's S4/S5 surface,
    src/server.rs:34-118): JSON {"query": ...} on the submit port
    returns a query_id; JSON {"query_id": ...} on the poll port
    returns documents + timing (or the not-ready message). Backed by
    the same resident actor pool as `serve`. Runs until SIGINT."""
    import signal
    import threading

    _require_index(args.index)
    with _ray_session():
        from raysearch.server import SearchServer

        with SearchServer(args.index, k=args.k, mode=args.mode,
                          num_actors=args.actors,
                          submit_port=args.submit_port,
                          poll_port=args.poll_port) as srv:
            print(json.dumps({"ready": True, "index": args.index,
                              "submit_port": srv.submit_port,
                              "poll_port": srv.poll_port}), flush=True)
            # Event.wait is race-free (a SIGINT between the loop check and
            # the wait still wakes it), unlike check-then-signal.pause()
            stop = threading.Event()
            signal.signal(signal.SIGINT, lambda *a: stop.set())
            while not stop.is_set():
                stop.wait(timeout=1.0)


def cmd_verify_index(args) -> None:
    """Offline integrity check: every partition manifest must validate
    (config hash, lineage, file digests) and the tree-merged partials
    must reproduce stats.json."""
    import json as _json

    from raysearch import checkpoint
    from raysearch import stats as statsmod
    from raysearch.segments import part_dirname

    st = statsmod.load_stats(args.index)
    cfg_hash = st["lineage"]["config_hash"]
    input_id = st["lineage"]["input_id"]
    bad, partials = [], []
    for p in st["parts"]:
        m = checkpoint.validate_manifest(part_dirname(args.index, p),
                                         cfg_hash, input_id)
        if m is None:
            bad.append(p)
        else:
            partials.append(m["stats"])
    merged = statsmod.tree_merge(partials)
    ok = (not bad and merged["n_docs"] == st["n_docs"]
          and merged["sum_dl"] == st["total_tokens"])
    print(_json.dumps({"ok": ok, "parts": len(st["parts"]),
                       "invalid_parts": bad,
                       "n_docs": merged["n_docs"],
                       "expected_docs": st["n_docs"]}))
    if not ok:
        raise SystemExit(1)


def cmd_evaluate(args) -> None:
    """The reference's accuracy harness as one command
    (build_and_run_tests.sh + src/bin/test.rs:122-173): build an index
    from a labeled file tree (query{q}document{d}.* names), run the
    queries file, report precision@10 per query and the average.
    Uses the distributed file-tree source (corpus_from_files)."""
    import os
    import tempfile

    with _ray_session():
        from raysearch.build import build_index
        from raysearch.config import IndexConfig
        from raysearch.corpus import corpus_from_files
        from raysearch.query import query_index, read_queries

        ds = corpus_from_files(args.corpus_dir)
        # label map: (doc_id -> path). Harness corpora are small labeled
        # test sets; at scale labels would live in the corpus table itself.
        id_path = {int(r["doc_id"]): r["path"]
                   for r in ds.select_columns(["doc_id", "path"]).take_all()}
        # the reference harness repeats each query 50x to measure latency
        # (build_and_run_tests.sh); accuracy is per DISTINCT query, labeled
        # by first-occurrence order
        raw = read_queries(args.queries)
        queries = list(dict.fromkeys(raw))
        idx = args.index or tempfile.mkdtemp(prefix="rayseval-")
        build_index(ds, idx, IndexConfig(num_parts=args.parts),
                    input_id=f"evaluate:{os.path.abspath(args.corpus_dir)}")
        out = query_index(idx, queries, k=args.k, mode=args.mode).to_pandas()
        per_query = []
        for qid in range(len(queries)):
            # reference labeling: doc query{q}document{d}.* is relevant to
            # the q-th query (1-based line number), src/bin/test.rs:122-137
            label = f"query{qid + 1}document"
            sub = out[out.query_id == qid]
            hits = sum(
                1 for d in sub.doc_id
                if os.path.basename(id_path.get(int(d), "")).startswith(label))
            per_query.append({"query": queries[qid],
                              "precision_at_k": round(hits / args.k, 4)})
        avg = (sum(p["precision_at_k"] for p in per_query) / len(per_query)
               if per_query else 0.0)
        print(json.dumps({"mode": args.mode, "k": args.k,
                          "n_queries": len(queries),
                          "n_query_lines": len(raw),
                          "avg_precision": round(avg, 4),
                          "per_query": per_query}))


def cmd_monitor(args) -> None:
    """Live build progress (SURVEY §2.5 O5 — the reference's monitor
    thread polls per-shard counters, src/processor.rs:390-526; here
    progress is read from the durable per-partition manifests, so the
    monitor works from ANY process, during or after the run, and
    after a crash). One JSON line per poll: parts done, docs/postings
    so far, throughput since monitoring began; --watch polls until
    stats.json (written last) appears."""
    import os
    import time

    if not os.path.isdir(args.index):
        # a live build creates the index dir first, so a missing dir
        # means a wrong path, not an early poll
        print(json.dumps({"error": f"no such index dir: {args.index}"}),
              flush=True)
        raise SystemExit(2)

    from raysearch import checkpoint
    from raysearch import stats as statsmod
    from raysearch.segments import list_segment_parts, part_dirname

    t_start = time.time()
    docs_start = None
    while True:
        seg_root = os.path.join(args.index, "segments")
        parts = list_segment_parts(args.index) if os.path.isdir(seg_root) \
            else []
        done, n_docs, n_postings = 0, 0, 0
        for p in parts:
            m = checkpoint.load_manifest(part_dirname(args.index, p))
            if m is None:
                continue
            done += 1
            n_docs += m["stats"]["n_docs"]
            n_postings += m["stats"]["n_postings"]
        if docs_start is None:
            docs_start = n_docs
        finished = os.path.exists(statsmod.stats_path(args.index))
        dt = max(time.time() - t_start, 1e-9)
        print(json.dumps({
            "parts_done": done,
            "n_docs": n_docs,
            "n_postings": n_postings,
            "docs_per_sec_since_start": round((n_docs - docs_start) / dt, 1),
            "complete": finished,
        }), flush=True)
        if finished or not args.watch:
            break
        time.sleep(args.interval)


def cmd_append(args) -> None:
    _require_index(args.index)
    with _ray_session():
        from raysearch.maintenance import append_index

        st = append_index(args.corpus, args.index, input_id=args.corpus,
                          num_parts=args.parts)
        print(json.dumps({"index": args.index, "n_docs": st["n_docs"],
                          "vocab_size": st.get("vocab_size"),
                          "parts": len(st.get("parts", []))}))


def cmd_delete(args) -> None:
    _require_index(args.index)
    from raysearch.maintenance import delete_docs

    ids = [int(x) for x in args.doc_ids.split(",")] if args.doc_ids else []
    if args.ids_file:
        with open(args.ids_file) as f:
            ids.extend(int(ln) for ln in f if ln.strip())
    n = delete_docs(args.index, ids)
    print(json.dumps({"index": args.index, "tombstones": n}))


def cmd_compact(args) -> None:
    _require_index(args.index)
    with _ray_session():
        from raysearch.maintenance import compact_index

        st = compact_index(args.index)
        print(json.dumps({"index": args.index, "n_docs": st["n_docs"],
                          "vocab_size": st.get("vocab_size"),
                          "avgdl": st["avgdl"]}))


def cmd_merge(args) -> None:
    with _ray_session():
        from raysearch.merge import merge_indexes

        stats = merge_indexes(args.inputs.split(","), args.out)
        print(json.dumps({"out": args.out, "n_docs": stats["n_docs"],
                          "vocab_size": stats["vocab_size"]}))


def cmd_suggest(args) -> None:
    """Autocomplete from the lexicon (no Ray session needed: a
    searchsorted range scan of the already-built term dictionary)."""
    _require_index(args.index)
    from raysearch.pipelines.suggest import completion_for_index

    prefixes = []
    for p in args.prefix.split(","):
        if not p:
            continue
        # normalize through the query tokenizer (the static_boost_ids
        # contract): 'Ha' must scan the same lowercase lexicon range
        # 'ha' does, never a silent zero-completion no-op
        prefixes.append(_one_token(p, "prefix"))
    if not prefixes:
        raise SystemExit("--prefix needs at least one non-empty prefix")
    out = completion_for_index(args.index, prefixes, args.k)
    for row in out.to_pylist():
        print(json.dumps(row))


def main(argv=None) -> None:
    from raysearch.score import SIMILARITIES

    modes = sorted(SIMILARITIES)
    p = argparse.ArgumentParser(prog="raysearch")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen-corpus")
    g.add_argument("--out", required=True)
    g.add_argument("--docs", type=int, default=10_000)
    g.add_argument("--seed", type=int, default=42)
    g.set_defaults(fn=cmd_gen_corpus)

    b = sub.add_parser("build")
    b.add_argument("--corpus", required=True)
    b.add_argument("--index", required=True)
    b.add_argument("--parts", type=int, default=32)
    b.add_argument("--k1", type=float, default=1.2)
    b.add_argument("--b", type=float, default=0.75)
    b.add_argument("--langs", default=None,
                   help="comma-separated lang whitelist (M6 filter)")
    b.add_argument("--dedup-input", action="store_true")
    b.add_argument("--with-positions", action="store_true",
                   help="store per-term within-doc positions "
                        "(delta+varint pos_enc column) for index-only "
                        "phrase/NEAR/slop verification")
    b.set_defaults(fn=cmd_build)

    q = sub.add_parser("query")
    q.add_argument("--index", required=True)
    q.add_argument("--query", default=None)
    q.add_argument("--queries-file", default=None,
                   help="file of queries, one per line (reference "
                        "queries.txt format)")
    q.add_argument("--k", type=int, default=10)
    q.add_argument("--mode", choices=modes, default="bm25")
    q.add_argument("--prune", action="store_true")
    q.add_argument("--dsl", action="store_true",
                   help="parse queries as the boolean DSL "
                        "(term AND (term OR term) AND NOT term)")
    q.add_argument("--boost-term", default=None,
                   help="docs containing this term score x "
                        "--boost-factor (bm25/overlap, not --prune)")
    q.add_argument("--boost-factor", type=float, default=1.5)
    q.add_argument("--decay", default=None, metavar="ORIGIN,SCALE",
                   help="gauss length decay: score x 0.5^(((dl-ORIGIN)"
                        "/SCALE)^2) (bm25 only, not --prune)")
    q.add_argument("--rank-feature", default=None, metavar="W,PIVOT",
                   dest="rank_feature",
                   help="saturation doc prior: score + W*dl/(dl+PIVOT)"
                        " (bm25 only, not --prune)")
    q.add_argument("--out", default=None,
                   help="write results parquet here instead of stdout")
    q.set_defaults(fn=cmd_query)

    s = sub.add_parser("serve")
    s.add_argument("--index", required=True)
    s.add_argument("--k", type=int, default=10)
    s.add_argument("--mode", choices=modes, default="bm25")
    s.add_argument("--actors", type=int, default=None)
    s.set_defaults(fn=cmd_serve)

    st = sub.add_parser("serve-tcp")
    st.add_argument("--index", required=True)
    st.add_argument("--k", type=int, default=10)
    st.add_argument("--mode", choices=modes, default="bm25")
    st.add_argument("--actors", type=int, default=None)
    st.add_argument("--submit-port", type=int, default=8080)
    st.add_argument("--poll-port", type=int, default=8081)
    st.set_defaults(fn=cmd_serve_tcp)

    v = sub.add_parser("verify-index")
    v.add_argument("--index", required=True)
    v.set_defaults(fn=cmd_verify_index)

    e = sub.add_parser("evaluate")
    e.add_argument("--corpus-dir", required=True,
                   help="labeled file tree (query{q}document{d}.* names)")
    e.add_argument("--queries", required=True,
                   help="queries file, one per line")
    e.add_argument("--index", default=None,
                   help="index dir (default: fresh temp dir)")
    e.add_argument("--parts", type=int, default=4)
    e.add_argument("--k", type=int, default=10)
    e.add_argument("--mode", choices=modes, default="bm25")
    e.set_defaults(fn=cmd_evaluate)

    mo = sub.add_parser("monitor")
    mo.add_argument("--index", required=True)
    mo.add_argument("--watch", action="store_true",
                    help="poll until the build completes")
    mo.add_argument("--interval", type=float, default=2.0)
    mo.set_defaults(fn=cmd_monitor)

    sg = sub.add_parser("suggest",
                        help="autocomplete: top completions per "
                             "prefix by collection frequency")
    sg.add_argument("--index", required=True)
    sg.add_argument("--prefix", required=True,
                    help="comma-separated prefixes")
    sg.add_argument("--k", type=int, default=5)
    sg.set_defaults(fn=cmd_suggest)

    m = sub.add_parser("merge")
    m.add_argument("--inputs", required=True,
                   help="comma-separated index dirs (disjoint corpora, "
                        "same config)")
    m.add_argument("--out", required=True)
    m.set_defaults(fn=cmd_merge)

    ap = sub.add_parser("append",
                        help="index NEW docs into an existing index "
                             "(fresh segments past the current parts)")
    ap.add_argument("--corpus", required=True)
    ap.add_argument("--index", required=True)
    ap.add_argument("--parts", type=int, default=None,
                    help="segments for the appended docs (auto-sized)")
    ap.set_defaults(fn=cmd_append)

    d = sub.add_parser("delete",
                       help="tombstone doc_ids (filtered from results; "
                            "stats stay build-time until compact)")
    d.add_argument("--index", required=True)
    d.add_argument("--doc-ids", default=None,
                   help="comma-separated doc_ids")
    d.add_argument("--ids-file", default=None,
                   help="file of doc_ids, one per line")
    d.set_defaults(fn=cmd_delete)

    c = sub.add_parser("compact",
                       help="rewrite segments without tombstoned docs; "
                            "recompute exact stats + lexicon")
    c.add_argument("--index", required=True)
    c.set_defaults(fn=cmd_compact)

    args = p.parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    main()
