"""Trigram-index-accelerated regex search (the Google Code Search /
Zoekt design, Cox 2012): a character-trigram posting index prunes the
corpus to docs that contain every trigram of some required literal of
the regex, and only those candidates are read and verified with the
real regex engine — a regex query never scans the corpus.

Fits this engine's (repo, path, commit, lang, content) code-table
mandate exactly: regex-over-code is the canonical code-search query
shape the reference's token index cannot answer (its tokenizer loses
intra-token structure — /root/reference/src/lib.rs:70-74).

Index derivation is fully vectorized: per batch, the lowered texts
flatten into ONE byte buffer, every 3-byte window comes from a single
numpy sliding-window view (cross-document windows masked by offset
arithmetic — same invariant as chunking.py's CDC kernel), and the
space-joined trigram-token string per doc is assembled as one buffer
+ offsets pair (zero per-row Python). Bytes <= 0x20 (whitespace)
encode as '_' and >= 0x80 as '?' so every trigram survives the \\S+
tokenizer and stays valid UTF-8; the SAME encoding is applied to
query literals, and coarsening can only WIDEN the candidate set —
the exact verify pass keeps the result sound.
"""

from __future__ import annotations

import hashlib
import os
import re

import numpy as np
import pyarrow as pa

_DOCS = "documents.parquet"

# (pattern, required-literal alternatives): the regex matches only if
# the doc contains at least one alternative IN FULL, so candidates =
# UNION over alternatives of the AND of that literal's trigrams.
# Production would derive these with Cox's RegexpQuery analysis; the
# fixed set here exercises literal, alternation, wildcard and repeat.
# Every literal must be >= 3 chars (else it yields no trigram and the
# pruning index cannot help — enforced below).
REGEX_QUERIES: list[tuple[str, list[str]]] = [
    ("hash join", ["hash join"]),
    ("(sort|merge) the", ["sort the", "merge the"]),
    ("wind.w", ["wind"]),
    ("batch batch batch", ["batch batch batch"]),
    ("dup( dup)+", ["dup dup"]),
]

for _p, _lits in REGEX_QUERIES:
    assert all(len(_l) >= 3 for _l in _lits), (_p, _lits)


def _encode_bytes(arr: np.ndarray) -> np.ndarray:
    """Trigram byte alphabet: control/whitespace -> '_', non-ASCII ->
    '?'. Applied identically to corpus windows and query literals."""
    out = arr.copy()
    out[out <= 0x20] = ord("_")
    out[out >= 0x80] = ord("?")
    return out


def literal_trigrams(lit: str) -> list[str]:
    """The encoded trigram tokens a doc must contain to contain
    ``lit`` (lowercased, same byte alphabet as the index)."""
    b = _encode_bytes(np.frombuffer(lit.lower().encode(), np.uint8))
    return sorted({b[i:i + 3].tobytes().decode()
                   for i in range(len(b) - 2)})


def _trigram_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, content) rows where content = space-joined encoded
    char trigrams of lower(text) — the trigram-index corpus."""
    texts = [t.lower().encode() for t in batch["text"].to_pylist()]
    doc_ids = batch["doc_id"].to_numpy()
    lens = np.array([len(t) for t in texts], dtype=np.int64)
    n_docs = len(texts)
    nw = np.maximum(lens - 2, 0)
    total = int(nw.sum())
    if total == 0:
        return pa.table({"doc_id": pa.array(doc_ids, pa.int64()),
                         "content": pa.array([""] * n_docs, pa.string())})
    flat = _encode_bytes(np.frombuffer(b"".join(texts), np.uint8))
    starts = np.zeros(n_docs, dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    win = np.lib.stride_tricks.sliding_window_view(flat, 3)
    first = np.zeros(n_docs, dtype=np.int64)
    np.cumsum(nw[:-1], out=first[1:])
    doc_rep = np.repeat(np.arange(n_docs), nw)
    widx = np.arange(total) - np.repeat(first, nw)
    sel = win[starts[doc_rep] + widx]          # (total, 3) in-doc windows
    out = np.empty((total, 4), np.uint8)
    out[:, :3] = sel
    out[:, 3] = 0x20                            # token separator
    offsets = np.append(4 * first, 4 * total).astype(np.int32)
    content = pa.Array.from_buffers(
        pa.utf8(), n_docs,
        [None, pa.py_buffer(offsets.tobytes()),
         pa.py_buffer(out.tobytes())])
    return pa.table({"doc_id": pa.array(doc_ids, pa.int64()),
                     "content": content})


def cached_trigram_index(sf_dir: str) -> str:
    """Build (or resume) the char-trigram segment index for this
    sf_dir — the same build pipeline (doc-hash exchange, delta+varint
    segments, manifests) over the derived trigram-token corpus."""
    import ray.data

    from raysearch.build import build_index
    from raysearch.config import IndexConfig
    from raysearch.pipelines.search_queries import _source_fingerprint

    key = hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    idx = os.path.join("/tmp", "raysearch_cache", f"docidx-{key}-tri")
    os.makedirs(idx, exist_ok=True)
    src = os.path.join(sf_dir, _DOCS)
    ds = ray.data.read_parquet(src, columns=["doc_id", "text"])
    corpus = ds.map_batches(_trigram_batch, batch_format="pyarrow",
                            zero_copy_batch=True)
    input_id = (f"tri:{os.path.abspath(sf_dir)}"
                f"@{_source_fingerprint(src)}")
    build_index(corpus, idx, IndexConfig(num_parts=8), input_id=input_id)
    return idx


def regex_trigram_docs(sf_dir: str) -> pa.Table:
    """Regex retrieval over the corpus via the trigram index: for each
    fixed regex query, all documents whose lower(text) matches the
    pattern (query_id, doc_id rows).

    Plan (two k-/selectivity-bounded stages, zero corpus scans):
    1. CANDIDATES — the shared term-group probe
       (rankex._term_group_docs with all_of) keeps, per trigram-index
       part, the docs holding every trigram of a required literal;
       the union across a query's literal alternatives is its
       candidate set (per-part sets are final under doc-hash
       partitioning and concatenate).
    2. VERIFY — ONE candidate-filtered documents read (predicate
       pushdown on doc_id) runs the real regex engine per candidate
       only; compiled patterns live in the task closure. Trigram
       pruning is sound-by-construction (a match contains its required
       literal, hence all the literal's trigrams), so verify output =
       exact answer."""
    import pyarrow.compute as pc
    import ray.data

    from raysearch.pipelines.rankex import _term_group_docs
    from raysearch.pipelines.search_queries import _concat_ds

    # one all_of group per (query, literal alternative)
    alts = [(qid, literal_trigrams(l))
            for qid, (_, lits) in enumerate(REGEX_QUERIES) for l in lits]
    empty = pa.table({"query_id": pa.array([], pa.int64()),
                      "doc_id": pa.array([], pa.int64())})
    hits = _term_group_docs(cached_trigram_index(sf_dir),
                            [grams for _, grams in alts], all_of=True)
    if not hits.num_rows:
        return empty
    qids = np.asarray([q for q, _ in alts], np.int64)[
        hits["group"].to_numpy()]
    docs = hits["doc_id"].to_numpy()
    per_q = {int(q): np.unique(docs[qids == q]) for q in np.unique(qids)}
    all_ids = np.unique(docs)
    patterns = [(qid, p) for qid, (p, _) in enumerate(REGEX_QUERIES)]

    def verify_kern(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        texts = batch["text"].to_pylist()
        comp = [(qid, re.compile(p)) for qid, p in patterns]
        out_q, out_d = [], []
        for qid, rx in comp:
            elig = per_q.get(qid)
            if elig is None:
                continue
            pos = np.searchsorted(elig, ids)
            pos_c = np.clip(pos, 0, max(0, len(elig) - 1))
            member = (elig[pos_c] == ids) if len(elig) else \
                np.zeros(len(ids), bool)
            for i in np.flatnonzero(member):
                if rx.search(texts[i].lower()):
                    out_q.append(qid)
                    out_d.append(int(ids[i]))
        if not out_q:
            return empty
        return pa.table({"query_id": pa.array(out_q, pa.int64()),
                         "doc_id": pa.array(out_d, pa.int64())})

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, _DOCS), columns=["doc_id", "text"],
        filter=pc.field("doc_id").isin(pa.array(all_ids, pa.int64())))
    out = _concat_ds(docs.map_batches(
        verify_kern, batch_format="pyarrow"), empty).to_pandas()
    out = out.sort_values(["query_id", "doc_id"], ignore_index=True)
    return pa.table({
        "query_id": pa.array(out.query_id.to_numpy(np.int64), pa.int64()),
        "doc_id": pa.array(out.doc_id.to_numpy(np.int64), pa.int64()),
    })


def sql_regex_trigram_docs() -> str:
    arms = "\nUNION ALL\n".join(
        f"SELECT {qid}::BIGINT AS query_id, doc_id FROM documents "
        f"WHERE regexp_matches(lower(text), '{p}')"
        for qid, (p, _) in enumerate(REGEX_QUERIES))
    return arms


QUERIES = {
    "regex_trigram_docs": regex_trigram_docs,
}

ORACLE_SQL = {
    "regex_trigram_docs": sql_regex_trigram_docs(),
}
