"""Alternate source-format coverage (SURVEY §2.1 S1 widening): the
corpus loaders beyond parquet. The reference ingests loose files from
a directory walk (/root/reference/src/lib.rs:303-339); the Ray-native
equivalents are ray.data.read_json / read_csv over partitioned shard
directories. jsonl_roundtrip proves the JSONL path end-to-end: write
the documents table as JSONL shards (one file per block — the
resumable partitioned-output layout), read it back with
ray.data.read_json, and content-hash every document; the oracle hashes
the original table, so any encoding/escaping/row-loss defect in the
write->read path breaks parity byte-exactly.
"""

from __future__ import annotations

import glob
import hashlib
import os
import shutil

import numpy as np
import pyarrow as pa


def jsonl_roundtrip(sf_dir: str) -> pa.Table:
    """(doc_id, text_md5) for every document after a JSONL write ->
    read round trip. Shard dir is content-fingerprinted (same cache
    contract as the index cache) and rebuilt only when the corpus
    changes; the hash pass is the dedup_exact content-hash shape
    (per-row md5 over utf-8 — work ∝ corpus bytes, one streaming
    pass, no exchange)."""
    import hashlib

    import ray.data

    from raysearch.pipelines.search_queries import (_concat_ds,
                                                    _docs_path,
                                                    _source_fingerprint)

    src = _docs_path(sf_dir)
    shard_dir = os.path.join(
        "/tmp/raysearch_cache",
        f"jsonl-{_source_fingerprint(src)}")
    # marker sits BESIDE the dir so read_json never sees a non-JSON file
    done = shard_dir + ".done"
    if not os.path.exists(done):
        if os.path.isdir(shard_dir):
            shutil.rmtree(shard_dir)  # half-written shards never serve
        os.makedirs(shard_dir, exist_ok=True)
        (ray.data.read_parquet(src, columns=["doc_id", "text"])
         .write_json(shard_dir))
        with open(done, "w") as f:
            f.write("ok")

    def hash_rows(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        texts = batch["text"].to_pylist()
        return pa.table({
            "doc_id": pa.array(ids.astype(np.int64), pa.int64()),
            "text_md5": pa.array(
                [hashlib.md5(t.encode()).hexdigest() for t in texts],
                pa.string())})

    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "text_md5": pa.array([], pa.string())})
    got = _concat_ds(
        ray.data.read_json(shard_dir)
        .map_batches(hash_rows, batch_format="pyarrow",
                     zero_copy_batch=True), empty).to_pandas()
    got = got.sort_values("doc_id", ignore_index=True)
    return pa.table({
        "doc_id": pa.array(got.doc_id.to_numpy(np.int64), pa.int64()),
        "text_md5": pa.array(got.text_md5.tolist(), pa.string()),
    })


def sql_jsonl_roundtrip() -> str:
    return "SELECT doc_id, md5(text) AS text_md5 FROM documents"


def csv_roundtrip(sf_dir: str) -> pa.Table:
    """(doc_id, text_md5) after a CSV write -> ray.data.read_csv round
    trip — the second alternate source format. CSV is the adversarial
    one: commas, quotes and newlines in text must survive the quoting
    rules; the md5-vs-original-table oracle catches any mangling.
    Same shard/caching/streaming shape as jsonl_roundtrip."""
    import hashlib

    import ray.data

    from raysearch.pipelines.search_queries import (_concat_ds,
                                                    _docs_path,
                                                    _source_fingerprint)

    src = _docs_path(sf_dir)
    shard_dir = os.path.join(
        "/tmp/raysearch_cache",
        f"csv-{_source_fingerprint(src)}")
    done = shard_dir + ".done"
    if not os.path.exists(done):
        if os.path.isdir(shard_dir):
            shutil.rmtree(shard_dir)
        os.makedirs(shard_dir, exist_ok=True)
        (ray.data.read_parquet(src, columns=["doc_id", "text"])
         .write_csv(shard_dir))
        with open(done, "w") as f:
            f.write("ok")

    def hash_rows(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        # a fully-empty text column can be type-inferred as null by
        # the CSV reader; '' is the round-trip value for such rows
        texts = ["" if t is None else str(t)
                 for t in batch["text"].to_pylist()]
        return pa.table({
            "doc_id": pa.array(ids.astype(np.int64), pa.int64()),
            "text_md5": pa.array(
                [hashlib.md5(t.encode()).hexdigest() for t in texts],
                pa.string())})

    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "text_md5": pa.array([], pa.string())})
    from pyarrow import csv as pacsv

    got = _concat_ds(
        ray.data.read_csv(
            shard_dir,
            parse_options=pacsv.ParseOptions(newlines_in_values=True),
            # pin the schema: without it each shard type-infers
            # independently (an all-numeric shard becomes double —
            # str(1.1) != "1.10" breaks md5 parity; an all-empty
            # shard becomes null and breaks schema unification)
            convert_options=pacsv.ConvertOptions(
                column_types={"doc_id": pa.int64(),
                              "text": pa.string()}))
        .map_batches(hash_rows, batch_format="pyarrow"), empty
    ).to_pandas()
    got = got.sort_values("doc_id", ignore_index=True)
    return pa.table({
        "doc_id": pa.array(got.doc_id.to_numpy(np.int64), pa.int64()),
        "text_md5": pa.array(got.text_md5.tolist(), pa.string()),
    })


def sql_csv_roundtrip() -> str:
    return "SELECT doc_id, md5(text) AS text_md5 FROM documents"


def trec_run_export(sf_dir: str) -> pa.Table:
    """TREC run-format result sink, proven by round trip: the BM25
    top-k table formats to standard run lines
    (``q<qid> Q0 <doc_id> <rank> <score:.6f> raysearch``), writes as
    sharded text, reads back, parses, and returns the reconstructed
    (query_id, doc_id, rank, score) — which must equal the plain BM25
    ranking (the oracle). The S6 result-sink family member for the
    IR-eval ecosystem (trec_eval consumes exactly these lines); the
    reference's own sink is a results file per query batch
    (/root/reference/src/main.rs).

    Exact float round trip: scores are round6 values (the nearest
    double to a 6-decimal decimal), so ``%.6f`` prints that decimal
    and parsing returns the identical double. Formatting and parsing
    are distributed map_batches; the run table itself is k-bounded
    (queries x k rows) so shard count stays 1 at test scale — at a
    million-query batch the same code shards by block."""
    import ray.data

    from raysearch.pipelines.search_queries import (_concat_ds,
                                                    bm25_topk)

    run = bm25_topk(sf_dir)
    empty = pa.table({"query_id": pa.array([], pa.int64()),
                      "doc_id": pa.array([], pa.int64()),
                      "rank": pa.array([], pa.int64()),
                      "score": pa.array([], pa.float64())})
    if run.num_rows == 0:
        # write_csv skips empty blocks, leaving zero shard files for
        # read_csv to choke on — the no-hit path returns the typed
        # contract table directly
        return empty
    run_dir = os.path.join(
        "/tmp/raysearch_cache",
        f"trec-{hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10]}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir, exist_ok=True)

    def fmt(batch: pa.Table) -> pa.Table:
        lines = [
            f"q{q} Q0 {d} {r} {s:.6f} raysearch"
            for q, d, r, s in zip(batch["query_id"].to_pylist(),
                                  batch["doc_id"].to_pylist(),
                                  batch["rank"].to_pylist(),
                                  batch["score"].to_pylist())]
        return pa.table({"line": pa.array(lines, pa.string())})

    (ray.data.from_arrow(run)
     .map_batches(fmt, batch_format="pyarrow")
     .write_csv(run_dir))

    def parse(batch: pa.Table) -> pa.Table:
        qs, ds, rs, ss = [], [], [], []
        for line in batch["line"].to_pylist():
            qid, _q0, did, rank, score, _tag = line.split(" ")
            qs.append(int(qid[1:]))
            ds.append(int(did))
            rs.append(int(rank))
            ss.append(float(score))
        return pa.table({
            "query_id": pa.array(qs, pa.int64()),
            "doc_id": pa.array(ds, pa.int64()),
            "rank": pa.array(rs, pa.int64()),
            "score": pa.array(ss, pa.float64())})

    got = _concat_ds(
        ray.data.read_csv(run_dir).map_batches(
            parse, batch_format="pyarrow"), empty).to_pandas()
    got = got.sort_values(["query_id", "rank"], ignore_index=True)
    return pa.Table.from_pandas(got, preserve_index=False)


def sql_trec_run_export() -> str:
    from raysearch.pipelines.search_queries import sql_bm25_topk

    return sql_bm25_topk()


def ipc_roundtrip(sf_dir: str) -> pa.Table:
    """(doc_id, text_md5) after an Arrow IPC (Feather v2) write ->
    read round trip — the THIRD alternate source format, and the one
    that proves the BINARY-file ingestion pattern end to end: shards
    are written task-side inside map_batches (one .arrow file per
    block, the partitioned resumable layout), read back with
    ray.data.read_binary_files, and decoded in the batch kernel with
    a REAL in-process codec (pyarrow.ipc) — the exact source + decode
    shape the multimodal family stubs for codec-less media, exercised
    here with zero-copy Arrow instead of a fake.

    Scale note: /tmp shards are node-local; on a cluster the shard
    dir is shared storage (the write path is identical — Ray tasks
    write wherever the URI points). One streaming pass each way, no
    exchange."""
    import hashlib

    import ray.data

    from raysearch.pipelines.search_queries import (_concat_ds,
                                                    _docs_path,
                                                    _source_fingerprint)

    src = _docs_path(sf_dir)
    shard_dir = os.path.join(
        "/tmp/raysearch_cache",
        f"ipc-{_source_fingerprint(src)}")
    done = shard_dir + ".done"
    if not os.path.exists(done):
        if os.path.isdir(shard_dir):
            shutil.rmtree(shard_dir)
        os.makedirs(shard_dir, exist_ok=True)

        def write_shard(batch: pa.Table) -> pa.Table:
            # deterministic per-block name (md5 of the block's id set)
            # makes the write IDEMPOTENT under Ray task retry: a
            # re-executed task rewrites the SAME shard via tmp+rename
            # instead of duplicating the block under a fresh name
            digest = hashlib.md5(
                batch["doc_id"].to_numpy().tobytes()).hexdigest()
            name = os.path.join(shard_dir, f"part-{digest}.arrow")
            tmp = name + f".tmp-{os.getpid()}"
            with pa.OSFile(tmp, "wb") as f, \
                    pa.ipc.new_file(f, batch.schema) as w:
                w.write_table(batch)
            os.rename(tmp, name)  # readers never see partial shards
            return pa.table({"rows": pa.array([batch.num_rows],
                                              pa.int64())})

        n = (ray.data.read_parquet(src, columns=["doc_id", "text"])
             .map_batches(write_shard, batch_format="pyarrow",
                          zero_copy_batch=True).sum("rows"))
        assert n and n > 0
        with open(done, "w") as f:
            f.write("ok")

    def decode(b: pa.Table) -> pa.Table:
        ids, md5s = [], []
        for buf in b["bytes"].to_pylist():
            t = pa.ipc.open_file(pa.BufferReader(buf)).read_all()
            ids.extend(int(x) for x in t["doc_id"].to_pylist())
            md5s.extend(hashlib.md5(s.encode()).hexdigest()
                        for s in t["text"].to_pylist())
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "text_md5": pa.array(md5s, pa.string())})

    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "text_md5": pa.array([], pa.string())})
    # committed shards only: a task killed mid-write leaves a
    # part-*.arrow.tmp-<pid> orphan that must never be decoded
    shards = sorted(glob.glob(os.path.join(shard_dir, "part-*.arrow")))
    got = _concat_ds(
        ray.data.read_binary_files(shards)
        .map_batches(decode, batch_format="pyarrow"),
        empty).to_pandas()
    got = got.sort_values("doc_id", ignore_index=True)
    return pa.table({
        "doc_id": pa.array(got.doc_id.to_numpy(np.int64), pa.int64()),
        "text_md5": pa.array(got.text_md5.tolist(), pa.string()),
    })


def sql_ipc_roundtrip() -> str:
    return "SELECT doc_id, md5(text) AS text_md5 FROM documents"


QUERIES = {"jsonl_roundtrip": jsonl_roundtrip,
           "csv_roundtrip": csv_roundtrip,
           "ipc_roundtrip": ipc_roundtrip,
           "trec_run_export": trec_run_export}
ORACLE_SQL = {"jsonl_roundtrip": sql_jsonl_roundtrip(),
              "csv_roundtrip": sql_csv_roundtrip(),
              "ipc_roundtrip": sql_ipc_roundtrip(),
              "trec_run_export": sql_trec_run_export()}
