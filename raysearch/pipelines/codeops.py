"""Code-corpus line-level operators: index-accelerated grep and the
Lucene TermVectors forward-index export — the two doc-major read
shapes a source-code search engine serves beyond the ranked doc list
(the reference stops at doc ids + snippets, /root/reference/src/lib.rs:374-411).

- grep_lines: classic code-search line results ("show me the lines
  that mention X") with an EXACT bounded contract: for each query
  term, the first {GREP_MAX} matching lines of the corpus under
  (doc_id, line_no) order. The inverted index prunes the text read:
  a term's candidate docs come from its posting list, and because
  every candidate doc contributes >= 1 matching line, only the first
  {GREP_MAX} candidate doc ids per term can reach the global first
  {GREP_MAX} lines — so the broadcast id set AND the text read are
  k-bounded even for hot terms (grep without the cap is df-sized by
  definition; the cap is what makes the operator serveable).
- term_vectors_topk: per BM25 top-k hit, the document's full
  (term, tf) vector — Lucene's TermVectors API. The index is
  term-major, so doc-major vectors come from a k-bounded
  candidate-filtered corpus read + one vectorized tokenize, the
  snippet-fetch broadcast-join shape.

Whitespace contract: same as raysearch.pipelines.textops — Arrow
unicode tokenization vs RE2 ``\\S+`` oracles agree on ASCII input;
the testdata corpus is ASCII. Line splitting is a literal ``\\n``
split on both sides, and a token never spans lines (``\\n`` is
whitespace to both tokenizers), so posting-list candidates are
exactly the docs with >= 1 matching line.

Scale shapes: grep_lines ships (term, doc_id) candidate partials
already truncated per part (first {GREP_MAX} per term per part merge
associatively under the total order), then reads text for <= terms x
{GREP_MAX} docs. term_vectors_topk reads text for <= k x queries
docs. Neither ever scans the corpus text.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from raysearch.numutil import fmt_doc

# rare term ('dup', df ~3% of docs), hot term ('batch'), and an
# index miss — the three grep regimes
GREP_TERMS = ["batch", "dup", "zzznothingzzz"]
GREP_MAX = 50

_GREP_EMPTY = pa.table({
    "term": pa.array([], pa.string()),
    "doc_id": pa.array([], pa.int64()),
    "line_no": pa.array([], pa.int64()),
    "line": pa.array([], pa.string()),
})


def _doc_lines(batch: pa.Table) -> tuple[np.ndarray, np.ndarray, pa.Array]:
    """Literal '\\n' line split of a (doc_id, text) batch ->
    (line_doc_id, 1-based line_no, lines) flat arrays, all
    vectorized Arrow/numpy."""
    lines = pc.split_pattern(
        pc.cast(batch["text"], pa.large_string()), "\n")
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    nlines = pc.list_value_length(lines).to_numpy().astype(np.int64)
    flat = lines.flatten()
    line_doc = np.repeat(batch["doc_id"].to_numpy(), nlines)
    ends = np.cumsum(nlines)
    line_no = (np.arange(int(ends[-1]) if len(ends) else 0,
                         dtype=np.int64)
               - np.repeat(ends - nlines, nlines) + 1)
    return line_doc, line_no, flat


@fmt_doc(K=GREP_MAX)
def grep_lines(sf_dir: str) -> pa.Table:
    """Index-accelerated grep: for each term in GREP_TERMS, the first
    {K} corpus lines containing the term as a whitespace token, in
    (doc_id, line_no) order — (term, doc_id, line_no, line) rows.

    Plan: (1) one segment fan-out reads each grep term's posting list
    and emits its first {K} doc ids per part (candidates merge
    associatively: a doc beyond a part's first {K} can never be among
    the global first {K} matching docs, and every candidate doc has
    >= 1 matching line); (2) the driver keeps the global first {K}
    ids per term and broadcasts the <= terms x {K} union into a
    pruned documents read; (3) the batch kernel line-splits the
    candidate texts and matches lines with an RE2 token-boundary
    regex ('(^|\\s)term(\\s|$)' — identical semantics to the
    oracle's list_contains over RE2 tokens); (4) the driver truncates
    the <= candidate-docs x lines rows to the first {K} per term."""
    import ray.data

    from raysearch.fanout import map_parts
    from raysearch.pipelines.search_queries import (_concat_ds,
                                                    _docs_path,
                                                    cached_index)
    from raysearch.segments import part_postings
    from raysearch.stats import load_stats

    idx = cached_index(sf_dir)
    terms = sorted(GREP_TERMS)
    cand_empty = pa.table({"term": pa.array([], pa.string()),
                           "doc_id": pa.array([], pa.int64())})

    def cand_kern(part: int) -> pa.Table:
        out_t: list[str] = []
        out_d: list[int] = []
        post = part_postings(idx, part, terms)
        for t, (docs, _, _) in post.items():
            docs = docs[:GREP_MAX]  # sorted; first K per part
            out_t.extend([t] * len(docs))
            out_d.extend(int(d) for d in docs)
        return pa.table({"term": pa.array(out_t, pa.string()),
                         "doc_id": pa.array(out_d, pa.int64())})

    cand = map_parts(load_stats(idx)["parts"], cand_kern,
                     cand_empty).to_pandas()
    if not len(cand):
        return _GREP_EMPTY
    cand = (cand.sort_values(["term", "doc_id"])
            .groupby("term").head(GREP_MAX))
    by_term = {t: np.sort(g.doc_id.to_numpy(np.int64))
               for t, g in cand.groupby("term")}
    wanted = pa.array(np.unique(cand.doc_id.to_numpy(np.int64)),
                      pa.int64())

    def fetch(b: pa.Table) -> pa.Table:
        # in-kernel refilter after the pushed-down read: the parquet
        # filter prunes at row-group granularity, rows still need the
        # exact membership cut
        b = b.filter(pc.is_in(b["doc_id"], wanted))
        if b.num_rows == 0:
            return _GREP_EMPTY
        line_doc, line_no, flat = _doc_lines(b)
        low = pc.utf8_lower(flat)
        outs = []
        for t, dset in by_term.items():
            pat = rf"(^|\s){re.escape(t)}(\s|$)"
            hit = pc.match_substring_regex(low, pat).to_numpy(
                zero_copy_only=False)
            keep = np.flatnonzero(hit & np.isin(line_doc, dset))
            if len(keep):
                outs.append(pa.table({
                    "term": pa.array([t] * len(keep), pa.string()),
                    "doc_id": pa.array(line_doc[keep], pa.int64()),
                    "line_no": pa.array(line_no[keep], pa.int64()),
                    "line": pc.cast(flat.take(keep), pa.string()),
                }))
        return pa.concat_tables(outs) if outs else _GREP_EMPTY

    import pyarrow.dataset as pads

    ds = ray.data.read_parquet(
        _docs_path(sf_dir), columns=["doc_id", "text"],
        filter=pads.field("doc_id").isin(wanted))
    out = _concat_ds(
        ds.map_batches(fetch, batch_format="pyarrow",
                       zero_copy_batch=True),
        _GREP_EMPTY).to_pandas()
    out = (out.sort_values(["term", "doc_id", "line_no"],
                           ignore_index=True)
           .groupby("term").head(GREP_MAX))
    return pa.table({
        "term": pa.array(out.term.tolist(), pa.string()),
        "doc_id": pa.array(out.doc_id.to_numpy(np.int64), pa.int64()),
        "line_no": pa.array(out.line_no.to_numpy(np.int64), pa.int64()),
        "line": pa.array(out.line.tolist(), pa.string()),
    })


def sql_grep_lines() -> str:
    vals = ", ".join(f"('{t}')" for t in sorted(GREP_TERMS))
    return rf"""
WITH lines AS (
  SELECT doc_id,
         unnest(string_split(text, chr(10))) AS line,
         unnest(range(1, len(string_split(text, chr(10))) + 1))::BIGINT
           AS line_no
  FROM documents
),
q(term) AS (VALUES {vals}),
m AS (
  SELECT q.term, l.doc_id, l.line_no, l.line
  FROM lines l CROSS JOIN q
  WHERE list_contains(regexp_extract_all(lower(l.line), '\S+'), q.term)
),
r AS (
  SELECT *, row_number() OVER (PARTITION BY term
                               ORDER BY doc_id, line_no) AS rn
  FROM m
)
SELECT term, doc_id, line_no, line FROM r WHERE rn <= {GREP_MAX}
"""


_TV_EMPTY = pa.table({
    "doc_id": pa.array([], pa.int64()),
    "term": pa.array([], pa.string()),
    "tf": pa.array([], pa.int64()),
})


def term_vectors_topk(sf_dir: str) -> pa.Table:
    """Lucene TermVectors for the BM25 top-k: one (query_id, doc_id,
    term, tf) row per distinct term of each hit document — the
    doc-major forward-index export (relevance-feedback UIs, MLT
    debugging, per-hit term clouds).

    Plan: the k-bounded hit ids are broadcast into a pruned
    candidate-filtered documents read (the snippet-fetch shape); one
    vectorized tokenize + (doc, term) count over <= k x queries
    docs; the (query, doc) pairing is a driver-side merge over k x
    queries rows. Zero corpus-sized work."""
    import ray.data

    from raysearch.pipelines.search_queries import (_concat_ds,
                                                    _docs_path,
                                                    bm25_topk)
    from raysearch.pipelines.textops import _tokens

    res = bm25_topk(sf_dir).to_pandas()
    wanted = pa.array(np.unique(res.doc_id.to_numpy(np.int64)),
                      pa.int64())

    def vec(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_in(b["doc_id"], wanted))
        if b.num_rows == 0:
            return _TV_EMPTY
        toks = _tokens(b)
        n = pc.list_value_length(toks).to_numpy().astype(np.int64)
        flat = np.asarray(toks.flatten().to_pandas(), dtype=object)
        ids = np.repeat(b["doc_id"].to_numpy(), n)
        g = (pd.DataFrame({"doc_id": ids, "term": flat})
             .groupby(["doc_id", "term"]).size().reset_index(name="tf"))
        return pa.table({
            "doc_id": pa.array(g.doc_id.to_numpy(np.int64), pa.int64()),
            "term": pa.array(g.term.tolist(), pa.string()),
            "tf": pa.array(g.tf.to_numpy(np.int64), pa.int64()),
        })

    import pyarrow.dataset as pads

    ds = ray.data.read_parquet(
        _docs_path(sf_dir), columns=["doc_id", "text"],
        filter=pads.field("doc_id").isin(wanted))
    tv = _concat_ds(
        ds.map_batches(vec, batch_format="pyarrow",
                       zero_copy_batch=True),
        _TV_EMPTY).to_pandas()
    out = (res[["query_id", "doc_id"]]
           .merge(tv, on="doc_id", how="inner")
           .sort_values(["query_id", "doc_id", "term"],
                        ignore_index=True))
    return pa.table({
        "query_id": pa.array(out.query_id.to_numpy(np.int64), pa.int64()),
        "doc_id": pa.array(out.doc_id.to_numpy(np.int64), pa.int64()),
        "term": pa.array(out.term.tolist(), pa.string()),
        "tf": pa.array(out.tf.to_numpy(np.int64), pa.int64()),
    })


def sql_term_vectors_topk() -> str:
    from raysearch.pipelines.search_queries import (_TOK_CTES,
                                                    sql_bm25_topk)

    return f"""
WITH b AS ({sql_bm25_topk()}),
{_TOK_CTES}
SELECT b.query_id, b.doc_id, tf.term, tf.tf
FROM b JOIN tf ON tf.doc_id = b.doc_id
"""


QUERIES = {
    "grep_lines": grep_lines,
    "term_vectors_topk": term_vectors_topk,
}

ORACLE_SQL = {
    "grep_lines": sql_grep_lines(),
    "term_vectors_topk": sql_term_vectors_topk(),
}
