"""Driver-contract pipelines: the search-engine operator surface run
over the testdata ``documents`` table, each with an equivalent DuckDB
oracle SQL (the driver's correctness gate).

Every callable takes ``sf_dir`` and returns a pyarrow Table whose
column names/types match the oracle SQL exactly (int64 / float64 /
rounded doubles; the driver hash-compares values after sorting columns
by name). Scores are rounded to 6 decimals and re-ranked on the
ROUNDED value with (score DESC, doc_id ASC) tie order on BOTH sides so
float summation-order differences (engine accumulates term-major,
DuckDB sums in its own order, both ~1e-15 apart) cannot flip ranks.

The full segment index (build -> manifest checkpoints -> lexicon) is
built once per sf_dir into a /tmp cache and resumed on later calls via
the manifest validation path — the driver therefore exercises the real
build pipeline, not a shortcut.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from raysearch.config import IndexConfig
from raysearch.fanout import map_parts
from raysearch.numutil import fmt_doc, round6
from raysearch.score import DIRICHLET_MU, query_term_weights
from raysearch.segments import SCORER_COLUMNS_POS, part_postings


# fixed query set over the documents-table vocabulary (punctuation and
# case exercise the \w+-lower query tokenizer, FIXTURES.md §2)
DOC_QUERIES: list[str] = [
    "Fast hash join?",
    "Sort the big table; merge it!",
    "Stream window aggregation, slow query.",
    "Filter the customer batch data.",
    "Spark query plan: scan, filter, agg!",
    "Why is the group-by slow?",
    "Vector column scan order.",
    "Small part, big key value?",
    "Merge sort the data stream.",
    "Dup dup dup row line.",
]

FIXED_TERMS = ["dup", "hash", "join", "merge", "window"]

K1, B = 1.2, 0.75
TOPK = 10
_TOPK_BUFFER = 30  # raw top-30 per (query, part) before rounded re-rank


def _docs_path(sf_dir: str) -> str:
    return os.path.join(sf_dir, "documents.parquet")



def _concat_ds(ds, empty: pa.Table) -> pa.Table:
    """pa.concat_tables over a Dataset's batches, tolerating ZERO
    batches: Ray Data may drop all-empty blocks entirely, and
    pa.concat_tables([]) raises — `empty` supplies the typed schema
    for that case (every no-hit path must still return the contract
    schema)."""
    batches = list(ds.iter_batches(batch_format="pyarrow"))
    return pa.concat_tables(batches) if batches else empty


def _corpus_ds(sf_dir: str):
    """documents -> engine corpus schema (doc_id, content); column-pruned
    read, no lang column (all natural-language rows tokenize as plain)."""
    import ray.data

    ds = ray.data.read_parquet(_docs_path(sf_dir), columns=["doc_id", "text"])
    return ds.map_batches(
        lambda b: b.rename_columns(["doc_id", "content"]),
        batch_format="pyarrow", zero_copy_batch=True)


def _source_fingerprint(path: str) -> str:
    """Cheap content fingerprint (size + mtime_ns) so a changed
    documents.parquet at the same path invalidates the cached index
    instead of serving stale segments."""
    st = os.stat(path)
    return f"{st.st_size}:{st.st_mtime_ns}"


def cached_index(sf_dir: str, with_positions: bool = False) -> str:
    """Build (or resume from checkpoints) the segment index for this
    sf_dir under /tmp; returns the index dir. The manifest input_id
    embeds a file fingerprint, so path-stable-but-content-changed
    inputs rebuild. ``with_positions`` builds (and caches separately —
    the flag is part of the config hash) the positional variant the
    proximity family verifies against; every other pipeline keeps the
    cheaper plain index."""
    from raysearch.build import build_index

    key = hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    suffix = "-pos" if with_positions else ""
    idx = os.path.join("/tmp", "raysearch_cache", f"docidx-{key}{suffix}")
    os.makedirs(idx, exist_ok=True)
    cfg = IndexConfig(num_parts=8, k1=K1, b=B,
                      with_positions=with_positions)
    input_id = (f"{os.path.abspath(sf_dir)}"
                f"@{_source_fingerprint(_docs_path(sf_dir))}")
    build_index(_corpus_ds(sf_dir), idx, cfg, input_id=input_id)
    return idx


# ---- pipelines ----

def doc_lengths(sf_dir: str) -> pa.Table:
    """(doc_id, dl): token count per document — the per-partition
    doc-length quantity (M2 tokenizer + combine, SURVEY §2.2/§2.3)."""
    import ray.data

    def count_tokens(b: pa.Table) -> pa.Table:
        # shared tokenizer path (drops Arrow's empty edge tokens, applies
        # the split-after-transform kernel-bug copy) so dl here always
        # equals the dl stored in the index and the \S+ oracle
        from raysearch.pipelines.textops import _tokens

        toks = _tokens(b)
        return pa.table({
            "doc_id": b["doc_id"],
            "dl": pc.cast(pc.list_value_length(toks), pa.int64()),
        })

    ds = ray.data.read_parquet(_docs_path(sf_dir), columns=["doc_id", "text"])
    out = ds.map_batches(count_tokens, batch_format="pyarrow",
                         zero_copy_batch=True)
    return pa.concat_tables(out.iter_batches(batch_format="pyarrow"))


def collection_stats(sf_dir: str) -> pa.Table:
    """Global stats (N, total tokens, avgdl, vocab) — tree-merged from
    the segment manifests at build time (SURVEY §2.6 aggregations)."""
    from raysearch.stats import load_stats

    st = load_stats(cached_index(sf_dir))
    return pa.table({
        "n_docs": pa.array([st["n_docs"]], pa.int64()),
        "total_tokens": pa.array([st["total_tokens"]], pa.int64()),
        "avgdl": pa.array([round6(st["avgdl"])], pa.float64()),
        "vocab_size": pa.array([st["vocab_size"]], pa.int64()),
    })


def term_stats(sf_dir: str) -> pa.Table:
    """Global lexicon (term, df, cf) — the groupby(term) merge of
    per-segment lexicon columns (the I1 shuffle's summary)."""
    import pyarrow.dataset as pads

    idx = cached_index(sf_dir)
    lex = pads.dataset(os.path.join(idx, "lexicon")).to_table(
        columns=["term", "df", "cf"])
    return pa.table({
        "term": pc.cast(lex["term"], pa.string()),
        "df": pc.cast(lex["df"], pa.int64()),
        "cf": pc.cast(lex["cf"], pa.int64()),
    })


def postings(sf_dir: str) -> pa.Table:
    """Decoded posting entries (term, doc_id, tf, dl) for FIXED_TERMS —
    the I1/I4 posting-construction operators, read back from the
    delta+varint segments."""
    from raysearch.stats import load_stats

    idx = cached_index(sf_dir)
    st = load_stats(idx)
    cols = {"term": [], "doc_id": [], "tf": [], "dl": []}
    for part in st["parts"]:
        for term, (d, f, l) in part_postings(idx, part,
                                             FIXED_TERMS).items():
            cols["term"].extend([term] * len(d))
            cols["doc_id"].append(d)
            cols["tf"].append(f)
            cols["dl"].append(l)
    if not cols["doc_id"]:
        return pa.table({"term": pa.array([], pa.string()),
                         "doc_id": pa.array([], pa.int64()),
                         "tf": pa.array([], pa.int64()),
                         "dl": pa.array([], pa.int64())})
    return pa.table({
        "term": pa.array(cols["term"], pa.string()),
        "doc_id": pa.array(np.concatenate(cols["doc_id"]), pa.int64()),
        "tf": pa.array(np.concatenate(cols["tf"]), pa.int64()),
        "dl": pa.array(np.concatenate(cols["dl"]), pa.int64()),
    })


def _topk_rounded(sf_dir: str, mode: str) -> pa.Table:
    return topk_rounded_for_index(cached_index(sf_dir), mode)


def topk_rounded_for_index(idx: str, mode: str, rank_lo: int = 1,
                           rank_hi: int = TOPK,
                           buffer: int = _TOPK_BUFFER,
                           queries=None, boost=None,
                           keep=None, decay=None, rank_feature=None,
                           asof=None) -> pa.Table:
    """DOC_QUERIES top-k over an already-built index with the oracle's
    rounding/tie contract — shared by the sf_dir-cached entries here,
    the index-lifecycle entries (pipelines/lifecycle.py), the
    deep-pagination entry (rank_lo..rank_hi window; the per-part raw
    buffer must exceed rank_hi by the rounding-tie slack), and the
    synonym-expansion entry (pre-tokenized ``queries`` override)."""
    from raysearch.pipelines.rankex import _ranked_from_candidates
    from raysearch.query import query_index

    raw = query_index(idx, queries if queries is not None
                      else DOC_QUERIES, k=buffer, mode=mode,
                      boost=boost, keep=keep, decay=decay,
                      rank_feature=rank_feature, asof=asof)
    out = _ranked_from_candidates(
        raw.to_pandas(), score_int=mode in ("overlap", "boolean"),
        topk=rank_hi)
    return out.filter(pc.greater_equal(out["rank"], rank_lo))


def bm25_topk(sf_dir: str) -> pa.Table:
    """BM25 top-10 per query over the segment index (Q1/Q3/Q4)."""
    return _topk_rounded(sf_dir, "bm25")


def overlap_topk(sf_dir: str) -> pa.Table:
    """The reference's integer overlap-tf score, top-10 per query
    (src/lib.rs:374-411 semantics, deterministic tie order)."""
    return _topk_rounded(sf_dir, "overlap")


# static boost: documents containing this term rank-boost by the
# factor (a "sponsored/editorial" list SOURCED FROM THE INDEX — the
# boost set is df-bounded, never a corpus scan; 1.5 is exactly
# representable so engine and oracle multiply bit-identically)
BOOST_TERM = "spark"
BOOST_FACTOR = 1.5


def static_boost_ids(index_dir: str, term: str) -> np.ndarray:
    """Sorted doc ids containing ``term`` — the static boost list,
    read FROM the index's posting lists via the shared term-group
    probe (rankex._term_group_docs) with the term as its one group.
    The term is normalized through the QUERY tokenizer so a
    capitalized/padded input matches the same postings the query
    side would ('Parser' boosts 'parser' docs, never a silent no-op);
    a multi-word input is rejected rather than silently dropped.
    Shared by boosted_topk and `cli query --boost-term`."""
    from raysearch.pipelines.rankex import _term_group_docs
    from raysearch.tokenize import tokenize_query

    toks = tokenize_query(term)
    if len(toks) != 1:
        raise ValueError(
            f"boost term must normalize to exactly one token, "
            f"got {toks!r} from {term!r}")
    return np.unique(
        _term_group_docs(index_dir, [toks])["doc_id"].to_numpy())


@fmt_doc(t=BOOST_TERM, f=BOOST_FACTOR, k=TOPK)
def boosted_topk(sf_dir: str) -> pa.Table:
    """BM25 top-{k} with a static document boost (the Lucene
    query-time boost shape): docs containing '{t}' score x{f}. The
    boost list is read FROM the posting lists (work proportional to
    the term's df), sorted, and handed to every segment scorer, which
    multiplies the FINAL accumulated score of member docs BEFORE its
    local top-k — so the boosted ranking is exact, not a post-hoc
    reorder of an unboosted top-k (a boosted doc outside the raw
    top-k can enter the boosted one). At a larger boost-list scale
    the ids would ray.put once like the snippet candidate set."""
    idx = cached_index(sf_dir)
    ids = static_boost_ids(idx, BOOST_TERM)
    return topk_rounded_for_index(idx, "bm25",
                                  boost=(ids, BOOST_FACTOR))


def sql_boosted_topk() -> str:
    return sql_bm25_topk(boost_expr=(
        f" * (CASE WHEN doc_id IN (SELECT DISTINCT doc_id FROM tf "
        f"WHERE term = '{BOOST_TERM}') THEN {BOOST_FACTOR} "
        f"ELSE 1 END)"))


SNIPPET_CHARS = 80
SNIPPET_LINES = 5


def _render_snippet(text: pa.Array, mode: str) -> pa.Array:
    """Two renderings: 'chars' = first 80 chars; 'lines' = the
    reference's display semantics (first 5 lines,
    /root/reference/src/lib.rs:240-256). Both vectorized."""
    text = pc.cast(text, pa.large_string())
    if mode == "chars":
        return pc.utf8_slice_codeunits(text, 0, SNIPPET_CHARS)
    splits = pc.list_slice(pc.split_pattern(text, "\n"), 0, SNIPPET_LINES)
    # binary_join has no (large_list, scalar) kernel — separator must
    # be an array of the same length
    sep = pa.array(["\n"] * len(text), pa.large_string())
    return pc.binary_join(splits, sep)


def _snippet_topk_mode(sf_dir: str, mode: str) -> pa.Table:
    """Q6 snippet fetch: top-k results joined back to the corpus by
    doc_id — the small results side is broadcast into a map_batches
    filter over the documents table (a broadcast hash join, no
    shuffle)."""
    import ray.data

    res = bm25_topk(sf_dir).to_pandas()
    wanted = set(res.doc_id.tolist())

    def fetch(b: pa.Table) -> pa.Table:
        mask = pc.is_in(b["doc_id"], pa.array(list(wanted), pa.int64()))
        sub = b.filter(mask)
        return pa.table({
            "doc_id": sub["doc_id"],
            "snippet": _render_snippet(sub["text"], mode),
        })

    ds = ray.data.read_parquet(_docs_path(sf_dir), columns=["doc_id", "text"])
    snip = pa.concat_tables(
        b for b in ds.map_batches(fetch, batch_format="pyarrow",
                                  zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow")).to_pandas()
    snip["snippet"] = snip["snippet"].astype(str)
    merged = res.merge(snip, on="doc_id", how="left")
    return pa.table({
        "query_id": pa.array(merged.query_id.to_numpy(np.int64), pa.int64()),
        "rank": pa.array(merged["rank"].to_numpy(np.int64), pa.int64()),
        "doc_id": pa.array(merged.doc_id.to_numpy(np.int64), pa.int64()),
        "snippet": pa.array(merged.snippet.tolist(), pa.string()),
    })


def snippet_topk(sf_dir: str) -> pa.Table:
    """Q6 snippet fetch, 80-char rendering."""
    return _snippet_topk_mode(sf_dir, "chars")


# quoted-phrase queries (normalized token sequences): common phrases,
# a >k-hit phrase, a single-hit phrase, a zero-hit phrase, a trigram
PHRASE_QUERIES: list[list[str]] = [
    ["merge", "sort"],
    ["hash", "join"],
    ["data", "stream"],
    ["slow", "query"],
    ["dup", "dup"],
    ["query", "plan"],
    ["slow", "query", "join"],
]


# ---- positional verification (index-only proximity) ----
#
# With config.with_positions the segment rows carry pos_enc and the
# whole proximity family verifies FROM THE INDEX: one term-filtered,
# row-group-pruned postings read per segment, zero documents.parquet
# bytes. The global-coordinate trick lets one flat searchsorted
# kernel verify every candidate doc at once: a term occurrence becomes
# (candidate_doc_rank << 32) | within_doc_position — ascending by
# construction (docs ascending per posting list, positions ascending
# per doc) — so within-doc gaps are plain int64 differences and the
# rank IS the doc-boundary guard. The reference has no positions at
# all (/root/reference/src/lib.rs:341-343); this is the Lucene-grade
# upgrade its SpanNear-shaped queries imply.

def _gpos(entry, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(global positions, candidate ranks) of one term's positional
    posting row (segments.part_postings with pos_enc) restricted to
    the sorted candidate doc array: gpos = rank << 32 | pos."""
    docs, tfs, _, pos = entry
    sel = np.isin(docs, cand, assume_unique=True)
    if not sel.any():
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    val_sel = np.repeat(sel, tfs)
    ranks = np.repeat(np.searchsorted(cand, docs), tfs)[val_sel] \
        .astype(np.int64)
    return (ranks << np.int64(32)) | pos[val_sel], ranks


def _phrase_rows_positional(idx: str, parts) -> pd.DataFrame:
    all_terms = sorted({t for ph in PHRASE_QUERIES for t in ph})
    empty = pa.table({"phrase_id": pa.array([], pa.int64()),
                      "doc_id": pa.array([], pa.int64()),
                      "tf": pa.array([], pa.int64())})

    def kern(batch: pa.Table) -> pa.Table:
        pids, dids, tfs_out = [], [], []
        for part in batch["part"].to_pylist():
            data = part_postings(idx, part, all_terms,
                                 SCORER_COLUMNS_POS)
            for pid, ph in enumerate(PHRASE_QUERIES):
                if any(t not in data for t in ph):
                    continue
                cand = data[ph[0]][0]
                for t in ph[1:]:
                    cand = cand[np.isin(cand, data[t][0],
                                        assume_unique=True)]
                    if not len(cand):
                        break
                if not len(cand):
                    continue
                cur, _ = _gpos(data[ph[0]], cand)
                for j in range(1, len(ph)):
                    gj, _ = _gpos(data[ph[j]], cand)
                    k = np.searchsorted(gj, cur + j)
                    ok = np.zeros(len(cur), bool)
                    inb = k < len(gj)
                    ok[inb] = gj[k[inb]] == cur[inb] + j
                    cur = cur[ok]
                    if not len(cur):
                        break
                if not len(cur):
                    continue
                tf = np.bincount((cur >> np.int64(32)).astype(np.int64),
                                 minlength=len(cand))
                hit = np.flatnonzero(tf)
                pids.append(np.full(len(hit), pid, np.int64))
                dids.append(cand[hit])
                tfs_out.append(tf[hit].astype(np.int64))
        if not pids:
            return empty
        return pa.table({
            "phrase_id": pa.array(np.concatenate(pids), pa.int64()),
            "doc_id": pa.array(np.concatenate(dids), pa.int64()),
            "tf": pa.array(np.concatenate(tfs_out), pa.int64())})

    return map_parts(parts, kern, empty).to_pandas()


def _pair_rows_positional(idx: str, parts, ordered: bool) -> pd.DataFrame:
    """Index-only verification for the 2-term proximity queries:
    ordered=False -> near_topk semantics (min |gap|, within-W count),
    ordered=True -> slop_topk semantics (nearest b AFTER a, count in
    (a, a+W], hit iff some ordered pair within W). Nearest-neighbour
    searchsorted math on gpos coordinates, the candidate rank as the
    doc-boundary guard."""
    all_terms = sorted({t for q in NEAR_QUERIES for t in q})
    big = np.iinfo(np.int64).max
    W = SLOP_W if ordered else NEAR_W
    c3, c4 = (("min_gap", "pair_count") if ordered
              else ("min_dist", "win_count"))
    empty = pa.table({"query_id": pa.array([], pa.int64()),
                      "doc_id": pa.array([], pa.int64()),
                      c3: pa.array([], pa.int64()),
                      c4: pa.array([], pa.int64())})

    def kern(batch: pa.Table) -> pa.Table:
        out_q, out_d, out_m, out_w = [], [], [], []
        for part in batch["part"].to_pylist():
            data = part_postings(idx, part, all_terms,
                                 SCORER_COLUMNS_POS)
            for qid, (ta, tb) in enumerate(NEAR_QUERIES):
                if ta not in data or tb not in data:
                    continue
                cand = data[ta][0][np.isin(data[ta][0], data[tb][0],
                                           assume_unique=True)]
                if not len(cand):
                    continue
                ia, ra = _gpos(data[ta], cand)
                ib, rb = _gpos(data[tb], cand)
                if ordered:
                    lo = np.searchsorted(ib, ia, side="right")
                    gap = np.full(len(ia), big, np.int64)
                    r = np.flatnonzero(lo < len(ib))
                    r = r[rb[lo[r]] == ra[r]]
                    gap[r] = ib[lo[r]] - ia[r]
                    hi_i = np.searchsorted(ib, ia + W, side="right")
                    doc_hi = np.searchsorted(rb, ra, side="right")
                    cnt = (np.minimum(hi_i, doc_hi) - lo).clip(min=0)
                    wc = np.zeros(len(cand), np.int64)
                    np.add.at(wc, ra, cnt)
                    mind = np.full(len(cand), big, np.int64)
                    valid = gap < big
                    if valid.any():
                        np.minimum.at(mind, ra[valid], gap[valid])
                    hit = np.flatnonzero(wc > 0)
                else:
                    lo = np.searchsorted(ib, ia)
                    gap = np.full(len(ia), big, np.int64)
                    r = np.flatnonzero(lo < len(ib))
                    r = r[rb[lo[r]] == ra[r]]
                    gap[r] = ib[lo[r]] - ia[r]
                    ll = np.flatnonzero(lo > 0)
                    ll = ll[rb[lo[ll] - 1] == ra[ll]]
                    gap[ll] = np.minimum(gap[ll], ia[ll] - ib[lo[ll] - 1])
                    valid = gap < big
                    if not valid.any():
                        continue
                    mind = np.full(len(cand), big, np.int64)
                    np.minimum.at(mind, ra[valid], gap[valid])
                    hi_i = np.searchsorted(ib, ia + W, side="right")
                    lo_i = np.searchsorted(ib, ia - W, side="left")
                    doc_lo = np.searchsorted(rb, ra, side="left")
                    doc_hi = np.searchsorted(rb, ra, side="right")
                    cnt = (np.minimum(hi_i, doc_hi)
                           - np.maximum(lo_i, doc_lo)).clip(min=0)
                    wc = np.zeros(len(cand), np.int64)
                    np.add.at(wc, ra, cnt)
                    hit = np.flatnonzero(mind < big)
                if not len(hit):
                    continue
                out_q.append(np.full(len(hit), qid, np.int64))
                out_d.append(cand[hit])
                out_m.append(mind[hit])
                out_w.append(wc[hit])
        if not out_q:
            return empty
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q), pa.int64()),
            "doc_id": pa.array(np.concatenate(out_d), pa.int64()),
            c3: pa.array(np.concatenate(out_m), pa.int64()),
            c4: pa.array(np.concatenate(out_w), pa.int64())})

    return map_parts(parts, kern, empty).to_pandas()


def phrase_topk(sf_dir: str) -> pa.Table:
    """Quoted-phrase search over the POSITIONAL segment index:
    adjacency is verified entirely from pos_enc — one term-filtered
    postings read per segment, candidate intersection AND adjacency
    check in the same kernel, ZERO documents.parquet bytes (work ∝ the
    terms' posting+position bytes). Ranked by score = overlapping
    phrase tf, (tf DESC, doc_id), top-10, hits only.

    Scale contract: per-phrase work is bounded by the MINIMUM df over
    the phrase's terms — the selectivity the inverted index provides
    (this synthetic corpus's 31-word vocabulary makes that bound
    loose; real vocabularies make AND-intersection sharp)."""
    from raysearch.stats import load_stats

    empty = pa.table({"phrase_id": pa.array([], pa.int64()),
                      "doc_id": pa.array([], pa.int64()),
                      "rank": pa.array([], pa.int64()),
                      "tf": pa.array([], pa.int64())})
    idx = cached_index(sf_dir, with_positions=True)
    counts = _phrase_rows_positional(idx, load_stats(idx)["parts"])
    return _rank_phrase_counts(counts, empty)


def _rank_phrase_counts(counts: pd.DataFrame, empty: pa.Table) -> pa.Table:
    """(tf DESC, doc_id) per phrase, top-k, hits only — shared by
    phrase_topk and phrase_prefix_topk."""
    if counts.empty:
        return empty
    counts = counts.sort_values(["phrase_id", "tf", "doc_id"],
                                ascending=[True, False, True])
    counts["rank"] = counts.groupby("phrase_id").cumcount() + 1
    counts = counts[counts["rank"] <= TOPK]
    return pa.table({
        "phrase_id": pa.array(counts.phrase_id.to_numpy(np.int64),
                              pa.int64()),
        "doc_id": pa.array(counts.doc_id.to_numpy(np.int64), pa.int64()),
        "rank": pa.array(counts["rank"].to_numpy(np.int64), pa.int64()),
        "tf": pa.array(counts.tf.to_numpy(np.int64), pa.int64()),
    })


# ES match_phrase_prefix: "first pre*" — the second position matches
# ANY lexicon term extending the prefix. ("dup", "zz") is the
# index-miss case; ("batch", "b") includes the self-extension
# ("batch batch" matches "batch b*", the Lucene rewrite semantics).
PHRASE_PREFIX_QUERIES = [("batch", "b"), ("the", "s"), ("hash", "j"),
                         ("query", "m"), ("dup", "zz")]


def phrase_prefix_topk(sf_dir: str) -> pa.Table:
    """ES match_phrase_prefix (Lucene MatchPhrasePrefixQuery): the
    search-as-you-type phrase — per query ("first", "pre"), docs
    where some occurrence of "first" is immediately followed by a
    token extending "pre"; tf = count of such phrase-start positions,
    ranked (tf DESC, doc_id), top-10, hits only (phrase_topk's
    contract with a prefix-expanded final position).

    Plan: the prefix expands via a lexicon RANGE SCAN (prefix_topk's
    shape — searchsorted [pre, pre+maxchar) bounds, never a corpus
    pass); verification is INDEX-ONLY on the positional variant:
    candidates = docs(first) AND union(docs(expansion)), then one
    searchsorted of the first term's gpos+1 into the MERGED expansion
    gpos (distinct terms cannot share a position, so the merged array
    is duplicate-free). Zero documents.parquet bytes; work ∝ the
    terms' posting+position bytes."""
    import pyarrow.dataset as pads

    from raysearch.stats import load_stats

    idx = cached_index(sf_dir, with_positions=True)
    vocab = np.sort(np.asarray(
        pads.dataset(os.path.join(idx, "lexicon")).to_table(
            columns=["term"])["term"].to_pylist(), dtype=object))
    expansions: list[list[str]] = []
    for _first, pre in PHRASE_PREFIX_QUERIES:
        lo = np.searchsorted(vocab, pre)
        hi = np.searchsorted(vocab, pre + chr(0x10FFFF))
        expansions.append(sorted(vocab[lo:hi].tolist()))
    all_terms = sorted({f for f, _ in PHRASE_PREFIX_QUERIES}
                       | {e for ex in expansions for e in ex})
    empty = pa.table({"phrase_id": pa.array([], pa.int64()),
                      "doc_id": pa.array([], pa.int64()),
                      "tf": pa.array([], pa.int64())})
    out_empty = pa.table({"phrase_id": pa.array([], pa.int64()),
                          "doc_id": pa.array([], pa.int64()),
                          "rank": pa.array([], pa.int64()),
                          "tf": pa.array([], pa.int64())})

    def kern(batch: pa.Table) -> pa.Table:
        pids, dids, tfs_out = [], [], []
        for part in batch["part"].to_pylist():
            data = part_postings(idx, part, all_terms,
                                 SCORER_COLUMNS_POS)
            for pid, (first, _pre) in enumerate(PHRASE_PREFIX_QUERIES):
                ex = [e for e in expansions[pid] if e in data]
                if first not in data or not ex:
                    continue
                exdocs = np.unique(np.concatenate(
                    [data[e][0] for e in ex]))
                cand = data[first][0]
                cand = cand[np.isin(cand, exdocs, assume_unique=True)]
                if not len(cand):
                    continue
                cur, _ = _gpos(data[first], cand)
                g = np.sort(np.concatenate(
                    [_gpos(data[e], cand)[0] for e in ex]))
                k = np.searchsorted(g, cur + 1)
                ok = np.zeros(len(cur), bool)
                inb = k < len(g)
                ok[inb] = g[k[inb]] == cur[inb] + 1
                cur = cur[ok]
                if not len(cur):
                    continue
                tf = np.bincount((cur >> np.int64(32)).astype(np.int64),
                                 minlength=len(cand))
                hit = np.flatnonzero(tf)
                pids.append(np.full(len(hit), pid, np.int64))
                dids.append(cand[hit])
                tfs_out.append(tf[hit].astype(np.int64))
        if not pids:
            return empty
        return pa.table({
            "phrase_id": pa.array(np.concatenate(pids), pa.int64()),
            "doc_id": pa.array(np.concatenate(dids), pa.int64()),
            "tf": pa.array(np.concatenate(tfs_out), pa.int64())})

    counts = map_parts(load_stats(idx)["parts"], kern, empty).to_pandas()
    return _rank_phrase_counts(counts, out_empty)


def sql_phrase_prefix_topk() -> str:
    vals = ", ".join(f"({i}, '{f}', '{p}')" for i, (f, p)
                     in enumerate(PHRASE_PREFIX_QUERIES))
    return rf"""
WITH t AS (SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS toks
           FROM documents),
pos AS (
  SELECT doc_id, unnest(toks) AS tok,
         unnest(range(len(toks)))::BIGINT AS p
  FROM t
),
q(phrase_id, first, pre) AS (VALUES {vals}),
m AS (
  SELECT q.phrase_id, a.doc_id, a.p
  FROM q
  JOIN pos a ON a.tok = q.first
  JOIN pos b ON b.doc_id = a.doc_id AND b.p = a.p + 1
            AND starts_with(b.tok, q.pre)
),
tfc AS (
  SELECT phrase_id, doc_id, count(*)::BIGINT AS tf
  FROM m GROUP BY phrase_id, doc_id
),
ranked AS (
  SELECT phrase_id, doc_id, tf,
         row_number() OVER (PARTITION BY phrase_id
                            ORDER BY tf DESC, doc_id) AS rank
  FROM tfc
)
SELECT phrase_id::BIGINT AS phrase_id, doc_id, rank, tf
FROM ranked WHERE rank <= {TOPK}
"""


def snippet_lines_topk(sf_dir: str) -> pa.Table:
    """Q6 snippet fetch with the REFERENCE's display semantics: the
    first 5 lines of each hit (src/lib.rs:240-256)."""
    return _snippet_topk_mode(sf_dir, "lines")


PAGE2_LO, PAGE2_HI = TOPK + 1, 2 * TOPK
_PAGE_BUFFER = 40  # raw per-part buffer for the page-2 window


def paged_topk(sf_dir: str) -> pa.Table:
    """Deep pagination (search_after): the SECOND page of BM25 results
    (ranks 11..20 per query). Same k-bounded plan as bm25_topk with a
    larger per-part raw buffer — pagination never rescans the corpus,
    it only widens the per-segment top-k selection."""
    return topk_rounded_for_index(cached_index(sf_dir), "bm25",
                                  rank_lo=PAGE2_LO, rank_hi=PAGE2_HI,
                                  buffer=_PAGE_BUFFER)


def facet_counts(sf_dir: str) -> pa.Table:
    """Faceted search: per-query facet histogram (lang x source) over
    the BM25 top-k. The k-bounded result ids are broadcast into a
    filtered map_batches read of the documents table (the snippet
    fetch's broadcast-join shape), then counted — never a corpus
    groupby."""
    import ray.data

    res = bm25_topk(sf_dir).to_pandas()
    wanted = set(res.doc_id.tolist())

    def fetch(b: pa.Table) -> pa.Table:
        mask = pc.is_in(b["doc_id"], pa.array(list(wanted), pa.int64()))
        return b.filter(mask)

    ds = ray.data.read_parquet(_docs_path(sf_dir),
                               columns=["doc_id", "lang", "source"])
    meta = pa.concat_tables(
        ds.map_batches(fetch, batch_format="pyarrow",
                       zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow")).to_pandas()
    merged = res.merge(meta, on="doc_id", how="left")
    out = (merged.groupby(["query_id", "lang", "source"])
           .size().reset_index(name="n_docs")
           .sort_values(["query_id", "lang", "source"]))
    return pa.table({
        "query_id": pa.array(out.query_id.to_numpy(np.int64), pa.int64()),
        "lang": pa.array(out.lang.astype(str).tolist(), pa.string()),
        "source": pa.array(out.source.astype(str).tolist(), pa.string()),
        "n_docs": pa.array(out.n_docs.to_numpy(np.int64), pa.int64()),
    })


HL_BEFORE, HL_LEN = 20, 60  # highlight window: 20 chars of left context


def highlight_topk(sf_dir: str) -> pa.Table:
    """Hit highlighting: for each BM25 top-k hit, the first query-term
    occurrence position (1-based CHARACTER position, min over the
    query's terms as substrings of lower(text)) and a 60-char window
    starting 20 chars before it. Text fetch is the snippet
    broadcast-join shape (k-bounded ids filter a pruned documents
    read); the position search runs driver-side over that query's
    <= k hit texts in Python's character domain (str.find), the same
    unit DuckDB's strpos/substr use — pyarrow's find_substring
    returns BYTE offsets and would diverge on non-ASCII text. The
    per-row work is k-bounded by construction, never a corpus scan."""
    import ray.data

    res = bm25_topk(sf_dir).to_pandas()
    wanted = set(res.doc_id.tolist())

    def fetch(b: pa.Table) -> pa.Table:
        mask = pc.is_in(b["doc_id"], pa.array(list(wanted), pa.int64()))
        return b.filter(mask)

    ds = ray.data.read_parquet(_docs_path(sf_dir),
                               columns=["doc_id", "text"])
    docs = pa.concat_tables(
        ds.map_batches(fetch, batch_format="pyarrow",
                       zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow"))
    text_by_id = dict(zip(docs["doc_id"].to_pylist(),
                          docs["text"].to_pylist()))

    out = {"query_id": [], "rank": [], "doc_id": [],
           "first_hit": [], "window": []}
    for qid, grp in res.groupby("query_id", sort=True):
        grp = grp.sort_values("rank")
        terms = [t for t, _ in query_term_weights(DOC_QUERIES[qid])]
        for did in grp.doc_id:
            text = text_by_id[did]
            low = text.lower()
            hits = [p for p in (low.find(t) for t in terms) if p >= 0]
            first = min(hits) + 1  # a BM25 hit always contains a term
            start = max(1, first - HL_BEFORE)
            out["first_hit"].append(first)
            out["window"].append(text[start - 1:start - 1 + HL_LEN])
        out["query_id"].extend([qid] * len(grp))
        out["rank"].extend(grp["rank"].tolist())
        out["doc_id"].extend(grp.doc_id.tolist())
    return pa.table({
        "query_id": pa.array(out["query_id"], pa.int64()),
        "rank": pa.array(out["rank"], pa.int64()),
        "doc_id": pa.array(out["doc_id"], pa.int64()),
        "first_hit": pa.array(out["first_hit"], pa.int64()),
        "window": pa.array(out["window"], pa.string()),
    })


def hit_positions_topk(sf_dir: str) -> pa.Table:
    """Positional highlighting FROM THE INDEX: for each BM25 top-k
    hit, the 1-based TOKEN position of the earliest occurrence of any
    of the query's terms (``first_pos``) and the total query-term
    occurrence count (``n_hits``) — both computed entirely from the
    positional index's pos_enc/tf columns via the same term-filtered,
    row-group-pruned per-segment reads the proximity family uses.
    Zero documents.parquet bytes: this is the positions-make-text-
    reads-optional half of highlighting; highlight_topk keeps the
    char-domain window contract, which genuinely needs the text.

    Scale contract: work ∝ the query terms' posting+position bytes
    restricted to k candidate docs per query — never a corpus scan.
    The reference has no positions at all (src/lib.rs:341-343)."""
    from raysearch.pipelines.rankex import (_candidates_by_query,
                                            _probe_candidates)

    idx = cached_index(sf_dir, with_positions=True)
    res = topk_rounded_for_index(idx, "bm25").to_pandas()
    hits = _probe_candidates(
        idx, [query_term_weights(q) for q in DOC_QUERIES],
        _candidates_by_query(res), SCORER_COLUMNS_POS)
    rows = hits.groupby(["query_id", "doc_id"], as_index=False).agg(
        first_pos=("first_pos", "min"), n_hits=("tf", "sum"))
    rows["first_pos"] += 1   # 0-based ordinal -> 1-based
    merged = res.merge(rows, on=["query_id", "doc_id"], how="inner") \
        .sort_values(["query_id", "rank"], ignore_index=True)
    return pa.table({
        "query_id": pa.array(merged.query_id.to_numpy(np.int64),
                             pa.int64()),
        "doc_id": pa.array(merged.doc_id.to_numpy(np.int64), pa.int64()),
        "rank": pa.array(merged["rank"].to_numpy(np.int64), pa.int64()),
        "first_pos": pa.array(merged.first_pos.to_numpy(np.int64),
                              pa.int64()),
        "n_hits": pa.array(merged.n_hits.to_numpy(np.int64), pa.int64()),
    })


# analyzer synonym table: query-side expansion at equal weight (the
# classic synonym token filter). Entries whose synonym is absent from
# the corpus exercise the posting-miss path.
SYNONYMS: dict[str, tuple[str, ...]] = {
    "sort": ("order",),
    "stream": ("batch",),
    "row": ("line",),
    "big": ("large",),      # absent from the corpus vocabulary
    "merge": ("combine",),  # absent
}


def expanded_qweights(query: str) -> list[tuple[str, int]]:
    """query_term_weights plus each term's synonyms at the SAME
    multiplicity; collisions sum; ascending unique-term order (the
    accumulation contract is unchanged, so per-segment scores stay
    final)."""
    agg: dict[str, int] = {}
    for t, w in query_term_weights(query):
        agg[t] = agg.get(t, 0) + w
        for s in SYNONYMS.get(t, ()):
            agg[s] = agg.get(s, 0) + w
    return sorted(agg.items())


def synonym_topk(sf_dir: str) -> pa.Table:
    """BM25 top-k with query-side synonym expansion — the analyzer
    chain's synonym filter as a query rewrite: each query term also
    matches its SYNONYMS entries at equal weight. Pre-tokenized
    weights flow through the same broadcast/scorer plan as bm25_topk
    (expansion widens the posting reads, never the corpus)."""
    qw = [expanded_qweights(q) for q in DOC_QUERIES]
    return topk_rounded_for_index(cached_index(sf_dir), "bm25",
                                  queries=qw)


MU = DIRICHLET_MU  # the oracle SQL's copy of the engine's prior


def dirichlet_topk(sf_dir: str) -> pa.Table:
    """Query-likelihood top-10 with Dirichlet smoothing — a third
    scoring mode beside BM25 and the reference's overlap·tf
    (generalizes src/lib.rs:374-411's lookup-score shape). Same
    distributed plan as bm25_topk: per-segment FINAL scores (global
    cf/total-token stats broadcast from the lexicon/stats.json),
    k-bounded merge; candidates are docs matching >= 1 query term."""
    return _topk_rounded(sf_dir, "dirichlet")


# ---- oracle SQL ----

def dfr_topk(sf_dir: str) -> pa.Table:
    """DFR InL2 top-10 per query (Lucene DFRSimilarity, the
    divergence-from-randomness family): tfn = tf*log2(1 + avgdl/dl),
    score(q,d) = sum_t w_t * (tfn/(tfn+1)) * log2((N+1)/(df_t+0.5)).
    With bm25/classic/dirichlet/jm this makes every major Lucene
    similarity family available as a mode; same doc-partitioned
    fan-out, exhaustive by contract (prune guard)."""
    return _topk_rounded(sf_dir, "dfr")


def boolean_topk(sf_dir: str) -> pa.Table:
    """Lucene BooleanSimilarity top-10 per query: every matched term
    contributes exactly its query weight (tf ignored) — the weighted
    coordination count, an integer score like the reference's overlap
    mode but frequency-blind. Ties are rampant by construction; the
    (-score, doc_id) total order keeps engine and oracle
    deterministic."""
    return _topk_rounded(sf_dir, "boolean")


def jm_topk(sf_dir: str) -> pa.Table:
    """Jelinek-Mercer query-likelihood top-10 per query (Lucene
    LMJelinekMercerSimilarity, lambda = 0.1) — the FIFTH scoring mode:
    score(q,d) = sum_t w_t * ln(1 + ((1-lambda)*tf/dl) /
    (lambda*cf_t/C)). Unlike dirichlet, a tf = 0 term contributes
    ln(1) = 0, so candidate-only scoring is exact per segment and the
    standard per-term posting loop applies; global cf/C broadcast
    beside df (the dirichlet plumbing, raysearch/query.py)."""
    return _topk_rounded(sf_dir, "jm")


def dfi_topk(sf_dir: str) -> pa.Table:
    """DFI top-10 per query (Lucene DFISimilarity, standardized
    independence) — the EIGHTH scoring mode, completing the Lucene
    similarity set (BM25 / TFIDF classic / DFR / DFI / LM-Dirichlet /
    LM-JM / Boolean / the reference's overlap): expected tf under
    independence e = (cf_t + 1) * dl / (C + 1); a term contributes
    w * log2((tf - e)/sqrt(e) + 1) only when tf EXCEEDS expectation,
    else 0 — frequency evidence is divergence from the
    term-occurrence/doc-length independence model, not raw tf. Global
    cf/C broadcast beside df (the jm plumbing); candidate-only
    scoring is exact (tf = 0 never exceeds e); exhaustive by contract
    (prune guard — no MaxScore bounds for the thresholded curve)."""
    return _topk_rounded(sf_dir, "dfi")


def axiomatic_topk(sf_dir: str) -> pa.Table:
    """AxiomaticF2EXP top-10 per query (Lucene's axiomatic retrieval
    family, Fang & Zhai) — the NINTH scoring mode:
    score(q,d) = sum_t w_t * (N/df_t)^{K} * tf / (tf + {S} + {S}*dl/avgdl).
    Needs only df/N/avgdl (the bm25 broadcast), same doc-partitioned
    fan-out; exhaustive by contract (prune guard)."""
    return _topk_rounded(sf_dir, "axiomatic")


def classic_topk(sf_dir: str) -> pa.Table:
    """Lucene ClassicSimilarity (pre-6.0 TFIDFSimilarity) top-10 per
    query — the fourth scoring mode (bm25/overlap/dirichlet/classic):
    score(q,d) = sum_t w_t * (1 + ln(N/(df_t+1)))^2 * sqrt(tf) /
    sqrt(dl). Same doc-partitioned segment plan as bm25_topk (global
    df/N broadcast, per-segment scores final, k-bounded merge);
    classic mode always scores exhaustively (no MaxScore bounds for
    the sqrt(tf) curve — still df-bounded per query term)."""
    return _topk_rounded(sf_dir, "classic")


# gauss length decay: full weight at DECAY_ORIGIN tokens, halved at
# DECAY_ORIGIN +/- DECAY_SCALE (the ES function_score `gauss` shape
# with offset 0, decay 0.5). Constants chosen against the fixture's
# dl range [10, 99] so multipliers span ~[0.35, 1.0] — enough to
# reorder, never collapsing scores into round6 ties.
DECAY_ORIGIN, DECAY_SCALE = 50.0, 40.0


@fmt_doc(o=DECAY_ORIGIN, s=DECAY_SCALE, k=TOPK)
def decay_topk(sf_dir: str) -> pa.Table:
    """Function-score retrieval (the ES function_score `gauss` decay
    shape): BM25 top-{k} with each doc's FINAL accumulated score
    multiplied by 0.5 ** (((dl - {o}) / {s})^2) before truncation, so
    the decayed ranking is exact — a doc outside the raw top-k can
    enter the decayed one. The decay variable is the doc's TOKEN
    LENGTH from the index's own doc-length table: the multiplier is
    computed segment-locally from the dl column already riding in the
    decoded postings — zero text bytes, zero extra reads/broadcasts
    (contrast boosted_topk, whose doc set is a broadcast list)."""
    return topk_rounded_for_index(cached_index(sf_dir), "bm25",
                                  decay=(DECAY_ORIGIN, DECAY_SCALE))


# rank_feature saturation prior: w * dl / (dl + pivot). Pivot at the
# fixture's dl midpoint so sat spans ~[0.17, 0.66]; w = 2.0 is large
# vs one-term BM25 contributions, so the prior visibly reorders
# without drowning the text score.
RF_W, RF_PIVOT = 2.0, 50.0


@fmt_doc(w=RF_W, p=RF_PIVOT, k=TOPK)
def rank_feature_topk(sf_dir: str) -> pa.Table:
    """ES rank_feature query (Lucene FeatureField `saturation`): BM25
    top-{k} with {w} * dl / (dl + {p}) ADDED to each doc's FINAL
    accumulated score before truncation — a static per-doc prior
    (here: document length, the docvalue the index already stores)
    blended additively with the text score, the standard
    pagerank-as-feature shape. Contrast decay_topk (multiplicative
    reshaping) and boosted_topk (broadcast id-list factor): the
    saturation prior needs NO extra reads — dl rides the decoded
    posting rows, segment-locally, zero text bytes."""
    return topk_rounded_for_index(cached_index(sf_dir), "bm25",
                                  rank_feature=(RF_W, RF_PIVOT))


def sql_rank_feature_topk() -> str:
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
             / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl))) AS score
  FROM q
  JOIN tf ON q.term = tf.term
  JOIN df ON q.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
ranked AS (
  SELECT s.query_id, s.doc_id,
         round(s.score + {RF_W} * (dl.dl::DOUBLE
                                   / (dl.dl + {RF_PIVOT})), 6) AS score,
         row_number() OVER (
           PARTITION BY s.query_id
           ORDER BY round(s.score + {RF_W} * (dl.dl::DOUBLE
                                              / (dl.dl + {RF_PIVOT})), 6)
             DESC, s.doc_id) AS rank
  FROM scores s JOIN dl ON dl.doc_id = s.doc_id
)
SELECT query_id::BIGINT AS query_id, doc_id, rank, score
FROM ranked WHERE rank <= {TOPK}
"""


def _qterms_values(weights_as_float: bool) -> str:
    rows = []
    for qid, q in enumerate(DOC_QUERIES):
        for term, w in query_term_weights(q):
            wlit = f"{float(w)!r}" if weights_as_float else str(int(w))
            rows.append(f"({qid}, '{term}', {wlit})")
    return ", ".join(rows)


def _tok_ctes(rel: str = "documents") -> str:
    """The tokenize/doclen/tf CTE block over an arbitrary relation
    (the lifecycle oracles score a filtered corpus)."""
    return rf"""
tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '\S+')) AS term
  FROM {rel}
),
dl AS (
  SELECT doc_id, len(regexp_extract_all(text, '\S+'))::BIGINT AS dl
  FROM {rel}
),
tf AS (
  SELECT doc_id, term, count(*)::BIGINT AS tf FROM tok GROUP BY doc_id, term
)
"""


_TOK_CTES = _tok_ctes()


def sql_doc_lengths() -> str:
    return (r"SELECT doc_id, len(regexp_extract_all(text, '\S+'))::BIGINT"
            r" AS dl FROM documents")


def sql_collection_stats() -> str:
    return r"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '\S+')) AS term
  FROM documents
),
dl AS (SELECT doc_id, len(regexp_extract_all(text, '\S+'))::BIGINT AS dl
       FROM documents)
SELECT (SELECT count(*) FROM documents)::BIGINT AS n_docs,
       (SELECT coalesce(sum(dl), 0) FROM dl)::BIGINT AS total_tokens,
       round((SELECT coalesce(sum(dl), 0) FROM dl)::DOUBLE
             / (SELECT count(*) FROM documents), 6) AS avgdl,
       (SELECT count(DISTINCT term) FROM tok)::BIGINT AS vocab_size
"""


def sql_term_stats() -> str:
    return f"""
WITH {_TOK_CTES}
SELECT term, count(*)::BIGINT AS df, sum(tf)::BIGINT AS cf
FROM tf GROUP BY term
"""


def sql_postings() -> str:
    terms = ", ".join(f"'{t}'" for t in FIXED_TERMS)
    return f"""
WITH {_TOK_CTES}
SELECT tf.term, tf.doc_id, tf.tf, dl.dl
FROM tf JOIN dl USING (doc_id)
WHERE tf.term IN ({terms})
"""


def sql_bm25_topk(rel: str = "documents", scores_where: str = "",
                  rank_lo: int = 1, rank_hi: int = TOPK,
                  qvalues: str | None = None,
                  boost_expr: str = "") -> str:
    """BM25 oracle. ``rel`` swaps the corpus relation (lifecycle
    oracles score a filtered corpus with recomputed stats);
    ``scores_where`` restricts only the SCORED candidate rows while
    df/N/avgdl stay whole-corpus — the tombstone (stale-stats)
    semantics; ``rank_lo``/``rank_hi`` select a pagination window;
    ``qvalues`` overrides the query-term VALUES rows (synonym
    expansion); ``boost_expr`` multiplies the UNROUNDED accumulated
    score before the round-then-rank step (static doc boost)."""
    where = f"WHERE {scores_where}" if scores_where else ""
    return f"""
WITH {_tok_ctes(rel)},
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
stats AS (
  SELECT (SELECT count(*) FROM {rel})::DOUBLE AS n_docs,
         (SELECT sum(dl) FROM dl)::DOUBLE
           / (SELECT count(*) FROM {rel}) AS avgdl
),
q(query_id, term, w) AS (VALUES {qvalues or _qterms_values(True)}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum(q.w * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
             * (tf.tf * ({K1} + 1))
             / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl))) AS score
  FROM q
  JOIN tf ON q.term = tf.term
  JOIN df ON q.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN stats s
  {where}
  GROUP BY q.query_id, tf.doc_id
),
ranked AS (
  SELECT query_id, doc_id, round(score{boost_expr}, 6) AS score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score{boost_expr}, 6) DESC,
                                     doc_id) AS rank
  FROM scores
)
SELECT query_id::BIGINT AS query_id, doc_id, rank, score
FROM ranked WHERE rank BETWEEN {rank_lo} AND {rank_hi}
"""


def sql_overlap_topk() -> str:
    return f"""
WITH {_TOK_CTES},
q(query_id, term, w) AS (VALUES {_qterms_values(False)}),
scores AS (
  SELECT q.query_id, tf.doc_id, sum(q.w * tf.tf)::BIGINT AS score
  FROM q JOIN tf ON q.term = tf.term
  GROUP BY q.query_id, tf.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score DESC, doc_id) AS rank
  FROM scores
)
SELECT query_id::BIGINT AS query_id, doc_id, rank, score
FROM ranked WHERE rank <= {TOPK}
"""


def sql_dirichlet_topk() -> str:
    return f"""
WITH {_TOK_CTES},
q(query_id, term, w) AS (VALUES {_qterms_values(True)}),
cf AS (SELECT term, sum(tf)::DOUBLE AS cf FROM tf GROUP BY term),
tot AS (SELECT sum(dl)::DOUBLE AS c FROM dl),
cand AS (SELECT DISTINCT q.query_id, tf.doc_id FROM q JOIN tf USING (term)),
scores AS (
  SELECT cand.query_id, cand.doc_id,
         sum(q.w * ln((coalesce(m.tf, 0) + {MU} * cf.cf / tot.c)
                      / (dl.dl + {MU}))) AS score
  FROM cand
  JOIN q ON q.query_id = cand.query_id
  JOIN cf ON cf.term = q.term
  LEFT JOIN tf m ON m.term = q.term AND m.doc_id = cand.doc_id
  JOIN dl ON dl.doc_id = cand.doc_id
  CROSS JOIN tot
  GROUP BY cand.query_id, cand.doc_id
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


def sql_paged_topk() -> str:
    return sql_bm25_topk(rank_lo=PAGE2_LO, rank_hi=PAGE2_HI)


def sql_dfr_topk() -> str:
    return f"""
WITH {_TOK_CTES},
dfq AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs,
         (SELECT sum(dl) FROM dl)::DOUBLE
           / (SELECT count(*) FROM documents) AS avgdl
),
q(query_id, term, w) AS (VALUES {_qterms_values(True)}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum(q.w * ((tf.tf * log2(1 + s.avgdl / dl.dl))
                    / (tf.tf * log2(1 + s.avgdl / dl.dl) + 1))
             * log2((s.n_docs + 1) / (dfq.df + 0.5))) AS score
  FROM q
  JOIN tf ON q.term = tf.term
  JOIN dfq ON q.term = dfq.term
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
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


def sql_boolean_topk() -> str:
    return f"""
WITH {_TOK_CTES},
q(query_id, term, w) AS (VALUES {_qterms_values(False)}),
scores AS (
  SELECT q.query_id, tf.doc_id, sum(q.w)::BIGINT AS score
  FROM q JOIN tf ON q.term = tf.term
  GROUP BY q.query_id, tf.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score DESC, doc_id) AS rank
  FROM scores
)
SELECT query_id::BIGINT AS query_id, doc_id, rank, score
FROM ranked WHERE rank <= {TOPK}
"""


def sql_jm_topk() -> str:
    from raysearch.score import JM_LAMBDA as LAM

    return f"""
WITH {_TOK_CTES},
cf AS (SELECT term, sum(tf)::DOUBLE AS cf FROM tf GROUP BY term),
tot AS (SELECT sum(dl)::DOUBLE AS c FROM dl),
q(query_id, term, w) AS (VALUES {_qterms_values(True)}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum(q.w * ln(1 + ((1 - {LAM}) * tf.tf / dl.dl)
                      / ({LAM} * cf.cf / tot.c))) AS score
  FROM q
  JOIN tf ON q.term = tf.term
  JOIN cf ON q.term = cf.term
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN tot
  GROUP BY q.query_id, tf.doc_id
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


def sql_dfi_topk() -> str:
    # e and the measure mirror score.dfi_contrib term-for-term:
    # e = (cf + 1) * dl / (C + 1), contribution =
    # w * log2((tf - e)/sqrt(e) + 1) iff tf > e
    return f"""
WITH {_TOK_CTES},
cf AS (SELECT term, sum(tf)::DOUBLE AS cf FROM tf GROUP BY term),
tot AS (SELECT sum(dl)::DOUBLE AS c FROM dl),
q(query_id, term, w) AS (VALUES {_qterms_values(True)}),
expanded AS (
  SELECT q.query_id, q.w, tf.doc_id, tf.tf::DOUBLE AS tf,
         (cf.cf + 1) * dl.dl / (tot.c + 1) AS e
  FROM q
  JOIN tf ON q.term = tf.term
  JOIN cf ON q.term = cf.term
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN tot
),
scores AS (
  SELECT query_id, doc_id,
         sum(CASE WHEN tf > e
             THEN w * log2((tf - e) / sqrt(e) + 1) ELSE 0 END) AS score
  FROM expanded
  GROUP BY query_id, doc_id
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


def sql_axiomatic_topk() -> str:
    from raysearch.score import AX_K, AX_S

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
         sum(q.w * pow(s.n_docs / df.df, {AX_K}) * tf.tf
             / (tf.tf + {AX_S} + {AX_S} * dl.dl / s.avgdl)) AS score
  FROM q
  JOIN tf ON q.term = tf.term
  JOIN df ON q.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
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


def sql_classic_topk() -> str:
    return f"""
WITH {_TOK_CTES},
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
stats AS (SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs),
q(query_id, term, w) AS (VALUES {_qterms_values(True)}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum(q.w * pow(1 + ln(s.n_docs / (df.df + 1)), 2)
             * sqrt(tf.tf) / sqrt(dl.dl)) AS score
  FROM q
  JOIN tf ON q.term = tf.term
  JOIN df ON q.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
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


def sql_decay_topk() -> str:
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
             / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl))) AS score
  FROM q
  JOIN tf ON q.term = tf.term
  JOIN df ON q.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
ranked AS (
  SELECT s.query_id, s.doc_id,
         round(s.score * pow(0.5, pow((dl.dl - {DECAY_ORIGIN})
                                      / {DECAY_SCALE}, 2)), 6) AS score,
         row_number() OVER (
           PARTITION BY s.query_id
           ORDER BY round(s.score * pow(0.5, pow((dl.dl - {DECAY_ORIGIN})
                                                 / {DECAY_SCALE}, 2)), 6)
             DESC, s.doc_id) AS rank
  FROM scores s JOIN dl ON dl.doc_id = s.doc_id
)
SELECT query_id::BIGINT AS query_id, doc_id, rank, score
FROM ranked WHERE rank <= {TOPK}
"""


def _qterms_values_expanded() -> str:
    rows = []
    for qid, q in enumerate(DOC_QUERIES):
        for term, w in expanded_qweights(q):
            rows.append(f"({qid}, '{term}', {float(w)!r})")
    return ", ".join(rows)


def sql_synonym_topk() -> str:
    return sql_bm25_topk(qvalues=_qterms_values_expanded())


def sql_highlight_topk() -> str:
    return f"""
WITH b AS ({sql_bm25_topk()}),
q(query_id, term, w) AS (VALUES {_qterms_values(True)}),
hits AS (
  SELECT b.query_id, b.rank, b.doc_id,
         min(strpos(lower(d.text), q.term))
           FILTER (WHERE strpos(lower(d.text), q.term) > 0)
           ::BIGINT AS first_hit
  FROM b
  JOIN documents d ON b.doc_id = d.doc_id
  JOIN q ON q.query_id = b.query_id
  GROUP BY b.query_id, b.rank, b.doc_id
)
SELECT h.query_id, h.rank, h.doc_id, h.first_hit,
       substr(d.text, greatest(1, h.first_hit - {HL_BEFORE})::INT,
              {HL_LEN}) AS window
FROM hits h JOIN documents d ON h.doc_id = d.doc_id
"""


def sql_msm_topk() -> str:
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
             / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl))) AS score
  FROM q
  JOIN tf ON q.term = tf.term
  JOIN df ON q.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
  HAVING count(DISTINCT tf.term) >= {MSM_M}
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


def sql_hit_positions_topk() -> str:
    return rf"""
WITH b AS ({sql_bm25_topk()}),
q(query_id, term, w) AS (VALUES {_qterms_values(True)}),
t AS (SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS toks
      FROM documents),
ptok AS (
  SELECT doc_id, unnest(toks) AS tok,
         unnest(range(1, len(toks) + 1)) AS pos
  FROM t
),
agg AS (
  SELECT q.query_id, p.doc_id, min(p.pos)::BIGINT AS first_pos,
         count(*)::BIGINT AS n_hits
  FROM q JOIN ptok p ON p.tok = q.term
  GROUP BY q.query_id, p.doc_id
)
SELECT b.query_id, b.doc_id, b.rank, a.first_pos, a.n_hits
FROM b JOIN agg a ON a.query_id = b.query_id AND a.doc_id = b.doc_id
"""


def sql_facet_counts() -> str:
    return f"""
WITH b AS ({sql_bm25_topk()})
SELECT b.query_id, d.lang, d.source, count(*)::BIGINT AS n_docs
FROM b JOIN documents d ON b.doc_id = d.doc_id
GROUP BY b.query_id, d.lang, d.source
"""


def sql_snippet_topk() -> str:
    bm25 = sql_bm25_topk()
    return f"""
WITH base AS ({bm25})
SELECT base.query_id, base.rank, base.doc_id,
       substr(documents.text, 1, {SNIPPET_CHARS}) AS snippet
FROM base JOIN documents ON base.doc_id = documents.doc_id
"""


def sql_snippet_lines_topk() -> str:
    bm25 = sql_bm25_topk()
    return f"""
WITH base AS ({bm25})
SELECT base.query_id, base.rank, base.doc_id,
       array_to_string(list_slice(string_split(documents.text, chr(10)),
                                  1, {SNIPPET_LINES}), chr(10)) AS snippet
FROM base JOIN documents ON base.doc_id = documents.doc_id
"""


def sql_phrase_topk() -> str:
    rows = ", ".join(
        "({}, [{}])".format(pid, ", ".join(f"'{t}'" for t in ph))
        for pid, ph in enumerate(PHRASE_QUERIES))
    return rf"""
WITH t AS (SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS toks
           FROM documents),
p(phrase_id, ptoks) AS (VALUES {rows}),
tf AS (
  SELECT doc_id, phrase_id,
         len(list_filter(range(1, len(toks) - len(ptoks) + 2),
             i -> list_slice(toks, i, i + len(ptoks) - 1) = ptoks))::BIGINT
           AS tf
  FROM t, p WHERE len(toks) >= len(ptoks)
),
ranked AS (
  SELECT phrase_id, doc_id, tf,
         row_number() OVER (PARTITION BY phrase_id
                            ORDER BY tf DESC, doc_id)::BIGINT AS rank
  FROM tf WHERE tf > 0
)
SELECT phrase_id::BIGINT AS phrase_id, doc_id, rank, tf
FROM ranked WHERE rank <= {TOPK}
"""


# terms whose presence flags a document (the index-backed blocklist
# path a cleaning pipeline runs instead of a corpus scan); includes a
# term absent from the corpus to exercise the filtered-read miss path
BLOCK_TERMS = ("dup", "slow", "spark", "zzzblockedzzz")


def blocklist_docs(sf_dir: str) -> pa.Table:
    """Index-backed blocklist filter: every document containing >= 1
    blocklist term, with its DISTINCT blocked-term count — computed
    entirely from posting lists (term-filtered, row-group-pruned
    segment reads), never a corpus scan.

    Scale contract: work is proportional to the blocklist terms'
    total df, not corpus size — the selectivity the inverted index
    exists to provide. Segments partition documents disjointly
    (doc-hash partitioning), so per-part counts are FINAL: zero
    exchanges, the result streams straight out of the shared
    term-group probe (rankex._term_group_docs, one group). The
    blocklist itself rides the task closure (tiny); a large blocklist
    would ray.put once like the snippet candidate set."""
    from raysearch.pipelines.rankex import _term_group_docs

    out = _term_group_docs(cached_index(sf_dir), [BLOCK_TERMS])
    return pa.table({"doc_id": out["doc_id"],
                     "n_blocked": out["n_terms"]}).sort_by("doc_id")


def sql_blocklist_docs() -> str:
    terms = ", ".join(f"'{t}'" for t in sorted(set(BLOCK_TERMS)))
    return rf"""
WITH t AS (SELECT doc_id,
                  unnest(regexp_extract_all(lower(text), '\S+')) AS tok
           FROM documents)
SELECT doc_id, count(DISTINCT tok)::BIGINT AS n_blocked
FROM t WHERE tok IN ({terms}) GROUP BY doc_id
"""


def segment_stats(sf_dir: str) -> pa.Table:
    """Index observability: one row per segment partition — doc /
    term / posting counts, token mass, and on-disk bytes of each
    compressed file — read from the durable partition MANIFESTS (the
    same artifacts `cli monitor` and crash-resume validate), via the
    parts fan-out (manifests are read where the segments live; no
    driver loop over a 100k-part index). Partition layout is
    engine-internal, so this is a rows-only entry; pytest asserts the
    cross-partition invariants (doc/token totals match the corpus,
    bytes match the files)."""
    from raysearch.checkpoint import load_manifest
    from raysearch.segments import part_dirname
    from raysearch.stats import load_stats

    idx = cached_index(sf_dir)
    parts = load_stats(idx)["parts"]

    def rows(batch: pa.Table) -> pa.Table:
        cols = {k: [] for k in ("part", "n_docs", "n_terms",
                                "n_postings", "sum_dl",
                                "postings_bytes", "doclens_bytes")}
        for part in batch["part"].to_pylist():
            m = load_manifest(part_dirname(idx, int(part)))
            if m is None:
                continue
            st, fl = m["stats"], m["files"]
            cols["part"].append(int(part))
            cols["n_docs"].append(int(st["n_docs"]))
            cols["n_terms"].append(int(st["n_terms"]))
            cols["n_postings"].append(int(st["n_postings"]))
            cols["sum_dl"].append(int(st["sum_dl"]))
            cols["postings_bytes"].append(
                int(fl["postings.parquet"]["bytes"]))
            cols["doclens_bytes"].append(
                int(fl["doclens.parquet"]["bytes"]))
        return pa.table({k: pa.array(v, pa.int64())
                         for k, v in cols.items()})

    out = map_parts(parts, rows,
                    rows(pa.table({"part": pa.array([], pa.int64())})))
    return out.sort_by("part")


MLT_DOCS = [0, 1, 2, 3, 4]
MLT_TERMS = 3


@fmt_doc(T=MLT_TERMS)
def more_like_this(sf_dir: str) -> pa.Table:
    """Query-by-document ("related documents"): for each source doc,
    take its top-{T} tf-idf terms (tf x ln(N/df), df from the global
    lexicon, ties by term asc — the exact ``top_terms_tfidf``
    contract), run them as a unit-weight BM25 query over the segment
    index, drop the source doc itself, and return the top-10 under
    the rounded (-score, doc_id) order.

    Shape: the source docs are a predicate-pushdown read (row groups
    containing MLT_DOCS only); term selection is driver-side over
    {T} x |sources| rows; retrieval is the existing distributed
    segment-scorer fan-out fed pre-tokenized term-weight lists. The
    oracle composes the tf-idf CTE with the BM25 scorer CTE, so both
    stages stay pinned to their standalone contracts."""
    import pyarrow.parquet as pq

    from raysearch.query import lexicon_df, query_index
    from raysearch.stats import load_stats
    from raysearch.tokenize import tokenize_plain

    idx = cached_index(sf_dir)
    st = load_stats(idx)

    src = pq.read_table(_docs_path(sf_dir),
                        columns=["doc_id", "text"],
                        filters=[("doc_id", "in", MLT_DOCS)])
    order = np.argsort(src["doc_id"].to_numpy())
    ids = src["doc_id"].to_numpy()[order]
    texts = [src["text"][int(i)].as_py() for i in order]

    per_doc = []
    for text in texts:
        toks = tokenize_plain(text)
        terms, tf = np.unique(np.asarray(toks, dtype=object),
                              return_counts=True)
        per_doc.append((terms, tf))
    # ONE filtered lexicon scan over the union of all sources' terms
    dfs = lexicon_df(idx, sorted({str(t) for terms, _ in per_doc
                                  for t in terms}))
    qweights = []
    for terms, tf in per_doc:
        # every term of an indexed doc must be in the lexicon; a miss
        # means tokenizer drift or a stale index — fail loudly rather
        # than silently handing the phantom term maximal idf
        score = round6(tf.astype(np.float64) * np.log(
            float(st["n_docs"])
            / np.array([float(dfs[str(t)]) for t in terms])))
        pick = sorted(zip(-score, terms))[:MLT_TERMS]
        qweights.append(sorted((str(t), 1) for _, t in pick))

    raw = query_index(idx, qweights, k=_TOPK_BUFFER).to_pandas()
    raw["score"] = round6(raw["score"].to_numpy(np.float64))
    raw["src_doc_id"] = np.asarray(ids, dtype=np.int64)[
        raw["query_id"].to_numpy(np.int64)]
    raw = raw[raw.doc_id != raw.src_doc_id]
    raw = raw.sort_values(["src_doc_id", "score", "doc_id"],
                          ascending=[True, False, True])
    raw["rank"] = raw.groupby("src_doc_id").cumcount() + 1
    raw = raw[raw["rank"] <= TOPK]
    return pa.table({
        "src_doc_id": pa.array(raw.src_doc_id.to_numpy(np.int64),
                               pa.int64()),
        "doc_id": pa.array(raw.doc_id.to_numpy(np.int64), pa.int64()),
        "rank": pa.array(raw["rank"].to_numpy(np.int64), pa.int64()),
        "score": pa.array(raw.score.to_numpy(np.float64), pa.float64()),
    })


def sql_more_like_this() -> str:
    srcs = ", ".join(str(d) for d in MLT_DOCS)
    return f"""
WITH {_TOK_CTES},
dfq AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs,
         (SELECT sum(dl) FROM dl)::DOUBLE
           / (SELECT count(*) FROM documents) AS avgdl
),
srcscore AS (
  SELECT tf.doc_id AS src, tf.term,
         round(tf.tf * ln(s.n_docs / dfq.df), 6) AS tfidf
  FROM tf JOIN dfq USING (term) CROSS JOIN stats s
  WHERE tf.doc_id IN ({srcs})
),
q AS (
  SELECT src, term FROM (
    SELECT src, term,
           row_number() OVER (PARTITION BY src
                              ORDER BY tfidf DESC, term) AS r
    FROM srcscore) WHERE r <= {MLT_TERMS}
),
scores AS (
  SELECT q.src, tf.doc_id,
         sum(ln(1 + (s.n_docs - dfq.df + 0.5) / (dfq.df + 0.5))
             * (tf.tf * ({K1} + 1))
             / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl)))
           AS score
  FROM q
  JOIN tf ON q.term = tf.term
  JOIN dfq ON q.term = dfq.term
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN stats s
  GROUP BY q.src, tf.doc_id
),
ranked AS (
  SELECT src AS src_doc_id, doc_id, round(score, 6) AS score,
         row_number() OVER (PARTITION BY src
                            ORDER BY round(score, 6) DESC, doc_id)
           AS rank
  FROM scores WHERE doc_id <> src
)
SELECT src_doc_id, doc_id, rank, score
FROM ranked WHERE rank <= {TOPK}
"""


MSM_M = 2  # minimum_should_match: docs must hold >= 2 distinct terms


@fmt_doc(m=MSM_M)
def msm_topk(sf_dir: str) -> pa.Table:
    """Lucene-style ``minimum_should_match`` retrieval: BM25 top-10
    per query over only the documents containing at least {m} DISTINCT
    query terms — the standard middle ground between the pure
    disjunction (bm25_topk) and the full conjunction (bool_and_docs).

    Plan: per segment, decode the query terms' posting lists once,
    count distinct matching terms per doc (one np.unique over the
    concatenated doc arrays), mask ``n_match >= {m}``, then accumulate
    BM25 contributions in the canonical ascending-term order for the
    eligible docs only and keep a raw per-(part, query) buffer; the
    driver applies the shared round6 -> (-score, doc_id) rank
    contract. Doc-hash partitioning keeps per-segment scores FINAL, so
    this is one fan-out + a k-bounded merge, zero exchanges — work is
    bounded by the query terms' df, never a corpus scan.
    """
    from raysearch.pipelines.rankex import (_part_topk, _plan,
                                            _ranked_from_candidates)
    from raysearch.query import keep_postings

    idx = cached_index(sf_dir)
    plan = _plan(idx, DOC_QUERIES)

    def score_query(qid, post):
        present = [(t, w) for t, w in plan.qweights[qid] if t in post]
        if len(present) < MSM_M:
            return None
        uniq, cnt = np.unique(
            np.concatenate([post[t][0] for t, _ in present]),
            return_counts=True)
        elig = uniq[cnt >= MSM_M]
        if not len(elig):
            return None
        return plan.score(present, lambda t: keep_postings(post[t], elig))

    return _ranked_from_candidates(
        _part_topk(idx, plan.all_terms, len(plan.qweights), score_query))


def bool_and_docs(sf_dir: str) -> pa.Table:
    """Index-backed conjunctive (boolean AND) retrieval: for every
    query, ALL documents containing EVERY distinct query term —
    computed purely by posting-list intersection (term-filtered,
    row-group-pruned segment reads), never a corpus scan.

    Scale contract: per-part work is bounded by the query terms'
    total df (the shared term-group probe, rankex._term_group_docs
    with all_of, keeps the docs that hold every distinct term);
    segments partition documents disjointly, so per-part results are
    FINAL — zero exchanges, exactly like ``blocklist_docs``."""
    from raysearch.pipelines.rankex import _term_group_docs

    out = _term_group_docs(
        cached_index(sf_dir),
        [[t for t, _ in query_term_weights(q)] for q in DOC_QUERIES],
        all_of=True)
    return pa.table({"query_id": out["group"],
                     "doc_id": out["doc_id"]}).sort_by(
        [("query_id", "ascending"), ("doc_id", "ascending")])


def _bool_qterms_values() -> str:
    from raysearch.score import query_term_weights

    rows = []
    for qid, q in enumerate(DOC_QUERIES):
        for term in sorted({t for t, _ in query_term_weights(q)}):
            rows.append(f"({qid}, '{term}')")
    return ", ".join(rows)


def sql_bool_and_docs() -> str:
    return rf"""
WITH t AS (SELECT DISTINCT doc_id,
                  unnest(regexp_extract_all(lower(text), '\S+')) AS tok
           FROM documents),
q(query_id, term) AS (VALUES {_bool_qterms_values()}),
need AS (SELECT query_id, count(*)::BIGINT AS k FROM q GROUP BY 1),
hit AS (
  SELECT q.query_id, t.doc_id, count(*)::BIGINT AS k
  FROM q JOIN t ON q.term = t.tok GROUP BY 1, 2
)
SELECT h.query_id::BIGINT AS query_id, h.doc_id
FROM hit h JOIN need n ON h.query_id = n.query_id AND h.k = n.k
ORDER BY h.query_id, h.doc_id
"""


RRF_K = 60


def hybrid_topk(sf_dir: str) -> pa.Table:
    """Hybrid retrieval: reciprocal-rank fusion (Cormack et al. 2009)
    of the exact BM25 top-10 and the exact embedding-cosine top-10.
    Contract: query i pairs text query DOC_QUERIES[i] with query
    vector vec_id=i, and a vec_id IS the doc_id of the document it
    embeds; rrf(d) = sum over the systems whose top-10 contains d of
    1/(RRF_K + rank_sys(d)); final top-10 by (rrf desc, doc_id).

    Shape: both component rankings are the existing distributed
    pipelines (segment-index BM25 scorers; brute-force cosine over
    streamed batches against the broadcast query matrix); fusion is
    driver-side over 2 x queries x 10 candidate rows — k-bounded,
    never data-sized."""
    from raysearch.pipelines.similarity import N_QUERY_VECS, ann_topk

    bm = bm25_topk(sf_dir).to_pandas()
    an = ann_topk(sf_dir).to_pandas()
    bm = bm[bm.query_id < N_QUERY_VECS]
    cand = pd.concat([
        pd.DataFrame({"query_id": bm.query_id.to_numpy(np.int64),
                      "doc_id": bm.doc_id.to_numpy(np.int64),
                      "c": 1.0 / (RRF_K + bm["rank"].to_numpy(np.int64))}),
        pd.DataFrame({"query_id": an.query_vec_id.to_numpy(np.int64),
                      "doc_id": an.vec_id.to_numpy(np.int64),
                      "c": 1.0 / (RRF_K + an["rank"].to_numpy(np.int64))}),
    ], ignore_index=True)
    f = cand.groupby(["query_id", "doc_id"], as_index=False).agg(
        rrf_score=("c", "sum"))
    f["rrf_score"] = round6(f.rrf_score.to_numpy(np.float64))
    f = f.sort_values(["query_id", "rrf_score", "doc_id"],
                      ascending=[True, False, True], ignore_index=True)
    f["rank"] = f.groupby("query_id").cumcount() + 1
    f = f[f["rank"] <= TOPK]
    return pa.table({
        "query_id": pa.array(f.query_id.to_numpy(np.int64), pa.int64()),
        "doc_id": pa.array(f.doc_id.to_numpy(np.int64), pa.int64()),
        "rank": pa.array(f["rank"].to_numpy(np.int64), pa.int64()),
        "rrf_score": pa.array(f.rrf_score.to_numpy(np.float64),
                              pa.float64()),
    })


def sql_hybrid_topk() -> str:
    from raysearch.pipelines.similarity import N_QUERY_VECS, sql_ann_topk

    return f"""
WITH b AS ({sql_bm25_topk()}),
a AS ({sql_ann_topk()}),
cand AS (
  SELECT query_id, doc_id, 1.0 / ({RRF_K} + rank) AS c
  FROM b WHERE query_id < {N_QUERY_VECS}
  UNION ALL
  SELECT query_vec_id AS query_id, vec_id AS doc_id,
         1.0 / ({RRF_K} + rank) AS c
  FROM a
),
f AS (
  SELECT query_id, doc_id, round(sum(c), 6) AS rrf_score
  FROM cand GROUP BY query_id, doc_id
),
ranked AS (
  SELECT query_id, doc_id, rrf_score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY rrf_score DESC, doc_id) AS rank
  FROM f
)
SELECT query_id, doc_id, rank, rrf_score
FROM ranked WHERE rank <= {TOPK}
"""


# ES 8 normalized linear-combination hybrid: min-max normalize each
# system's per-query top-k scores to [0,1], then weighted sum
HY_W_TEXT, HY_W_VEC = 0.7, 0.3


@fmt_doc(wt=HY_W_TEXT, wv=HY_W_VEC)
def hybrid_minmax_topk(sf_dir: str) -> pa.Table:
    """Hybrid retrieval, ES-8 `normalizer: minmax` semantics: each
    system's per-query top-10 scores are min-max normalized to [0,1]
    WITHIN that list (a constant list normalizes to 1.0 — presence is
    evidence), then fused as {wt} * norm_bm25 + {wv} * norm_cos over
    the union of candidates (absent from a system contributes 0);
    final top-10 by (score DESC, doc_id). The score-aware complement
    of hybrid_topk's rank-only RRF.

    Shape: both component rankings are the existing distributed
    pipelines; normalization + fusion are driver arithmetic over
    2 x queries x 10 rounded component rows — k-bounded, never
    data-sized."""
    from raysearch.pipelines.similarity import N_QUERY_VECS, ann_topk

    bm = bm25_topk(sf_dir).to_pandas()
    an = ann_topk(sf_dir).to_pandas()
    bm = bm[bm.query_id < N_QUERY_VECS]

    def norm(df, qcol, scol):
        g = df.groupby(qcol)[scol]
        mn, mx = g.transform("min"), g.transform("max")
        rng = mx - mn
        out = np.where(rng.to_numpy() > 0,
                       (df[scol] - mn) / rng.replace(0, 1.0), 1.0)
        return out

    bmn = pd.DataFrame({"query_id": bm.query_id.to_numpy(np.int64),
                        "doc_id": bm.doc_id.to_numpy(np.int64),
                        "nb": norm(bm, "query_id", "score")})
    ann = pd.DataFrame({"query_id": an.query_vec_id.to_numpy(np.int64),
                        "doc_id": an.vec_id.to_numpy(np.int64),
                        "nc": norm(an, "query_vec_id", "cos")})
    f = bmn.merge(ann, on=["query_id", "doc_id"], how="outer")
    f["score"] = round6(HY_W_TEXT * f.nb.fillna(0.0).to_numpy(np.float64)
                        + HY_W_VEC * f.nc.fillna(0.0).to_numpy(np.float64))
    f = f.sort_values(["query_id", "score", "doc_id"],
                      ascending=[True, False, True], ignore_index=True)
    f["rank"] = f.groupby("query_id").cumcount() + 1
    f = f[f["rank"] <= TOPK]
    return pa.table({
        "query_id": pa.array(f.query_id.to_numpy(np.int64), pa.int64()),
        "doc_id": pa.array(f.doc_id.to_numpy(np.int64), pa.int64()),
        "rank": pa.array(f["rank"].to_numpy(np.int64), pa.int64()),
        "score": pa.array(f.score.to_numpy(np.float64), pa.float64()),
    })


def sql_hybrid_minmax_topk() -> str:
    from raysearch.pipelines.similarity import N_QUERY_VECS, sql_ann_topk

    return f"""
WITH b AS ({sql_bm25_topk()}),
a AS ({sql_ann_topk()}),
bn AS (
  SELECT query_id, doc_id,
         CASE WHEN max(score) OVER w > min(score) OVER w
              THEN (score - min(score) OVER w)
                   / (max(score) OVER w - min(score) OVER w)
              ELSE 1.0 END AS nb
  FROM b WHERE query_id < {N_QUERY_VECS}
  WINDOW w AS (PARTITION BY query_id)
),
an AS (
  SELECT query_vec_id AS query_id, vec_id AS doc_id,
         CASE WHEN max(cos) OVER w > min(cos) OVER w
              THEN (cos - min(cos) OVER w)
                   / (max(cos) OVER w - min(cos) OVER w)
              ELSE 1.0 END AS nc
  FROM a
  WINDOW w AS (PARTITION BY query_vec_id)
),
f AS (
  SELECT coalesce(bn.query_id, an.query_id) AS query_id,
         coalesce(bn.doc_id, an.doc_id) AS doc_id,
         round({HY_W_TEXT} * coalesce(bn.nb, 0.0)
               + {HY_W_VEC} * coalesce(an.nc, 0.0), 6) AS score
  FROM bn FULL OUTER JOIN an
    ON bn.query_id = an.query_id AND bn.doc_id = an.doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score DESC, doc_id) AS rank
  FROM f
)
SELECT query_id, doc_id, rank, score
FROM ranked WHERE rank <= {TOPK}
"""


# NEAR/W proximity queries: unordered 2-term pairs (the Lucene
# SpanNear / classic WITHIN operator). Includes a rare term ('dup',
# df ~3% of docs) to exercise the selective-candidate path and a pair
# with an absent term to exercise the index miss.
NEAR_QUERIES = [
    ("query", "join"),
    ("hash", "merge"),
    ("dup", "scan"),
    ("query", "zzznothingzzz"),
]
NEAR_W = 4


@fmt_doc(w=NEAR_W, k=TOPK)
def near_topk(sf_dir: str) -> pa.Table:
    """NEAR/{w} proximity search — the unordered within-window
    operator (Lucene SpanNearQuery shape): for each 2-term query, the
    top-{k} documents ranked by (min token gap ASC, within-{w}
    pair count DESC, doc_id), hits only.

    Plan: index-only verification from the POSITIONAL index —
    candidate intersection (work ∝ min(df)) and the gap/window math
    run in one kernel over pos_enc, zero documents.parquet bytes. It
    generalizes the reference's lookup-then-score loop
    (src/lib.rs:374-411) to position predicates. The kernel is fully
    vectorized: sorted (global-coordinate) positions, per-occurrence
    nearest-neighbor gaps via searchsorted with doc-boundary guards,
    np.minimum.at / np.add.at scatters onto docs. No per-token Python
    anywhere."""
    from raysearch.stats import load_stats

    empty = pa.table({"query_id": pa.array([], pa.int64()),
                      "doc_id": pa.array([], pa.int64()),
                      "rank": pa.array([], pa.int64()),
                      "min_dist": pa.array([], pa.int64()),
                      "win_count": pa.array([], pa.int64())})
    idx = cached_index(sf_dir, with_positions=True)
    rows = _pair_rows_positional(idx, load_stats(idx)["parts"],
                                 ordered=False)
    return _rank_pair_rows(rows, empty, ordered=False)


def _rank_pair_rows(rows: pd.DataFrame, empty: pa.Table,
                    ordered: bool) -> pa.Table:
    """Shared ranking for the 2-term proximity family: near =
    (min_dist ASC, win_count DESC, doc_id); slop = (pair_count DESC,
    min_gap ASC, doc_id). Top-k per query, hits only."""
    if rows.empty:
        return empty
    c3, c4 = (("min_gap", "pair_count") if ordered
              else ("min_dist", "win_count"))
    if ordered:
        rows = rows.sort_values(["query_id", c4, c3, "doc_id"],
                                ascending=[True, False, True, True])
    else:
        rows = rows.sort_values(["query_id", c3, c4, "doc_id"],
                                ascending=[True, True, False, True])
    rows["rank"] = rows.groupby("query_id").cumcount() + 1
    rows = rows[rows["rank"] <= TOPK]
    return pa.table({
        "query_id": pa.array(rows.query_id.to_numpy(np.int64),
                             pa.int64()),
        "doc_id": pa.array(rows.doc_id.to_numpy(np.int64), pa.int64()),
        "rank": pa.array(rows["rank"].to_numpy(np.int64), pa.int64()),
        c3: pa.array(rows[c3].to_numpy(np.int64), pa.int64()),
        c4: pa.array(rows[c4].to_numpy(np.int64), pa.int64()),
    })


MMR_LAMBDA = 0.7
MMR_POOL = 2 * TOPK  # candidate pool per query (bm25 top-20)


@fmt_doc(lam=MMR_LAMBDA, k=TOPK, pool=MMR_POOL)
def mmr_topk(sf_dir: str) -> pa.Table:
    """Diversified ranking — Maximal Marginal Relevance (Carbonell &
    Goldstein 1998) re-rank of the BM25 top-{pool} pool: greedily pick
    argmax {lam}·rel − (1−{lam})·max-cos-to-already-selected, where
    rel is the query's bm25 score normalized to [0, 1] and cos comes
    from the embeddings table (a doc without an embedding row is
    treated as orthogonal to everything, sim 0). Scores round6, ties
    (mmr DESC, doc_id ASC); the first pick is rank 1 of the bm25
    order by construction.

    Distribution shape: the candidate POOL is the distributed bm25
    scorer's k-bounded output; embeddings ship via ONE
    candidate-id-filtered read (row-group pruned — never the table);
    the greedy loop itself runs driver-side over ≤ {pool} candidates
    × {k} steps per query, k-bounded by contract like every
    driver merge in query.py. Iterative greedy selection has no
    closed SQL form -> rows-only driver check; pytest pins an
    independent brute-force re-implementation and the
    diversity-vs-bm25 property."""
    import pyarrow.dataset as pads
    import ray.data

    idx = cached_index(sf_dir)
    pool = topk_rounded_for_index(idx, "bm25", rank_lo=1,
                                  rank_hi=MMR_POOL,
                                  buffer=2 * MMR_POOL).to_pandas()
    empty = pa.table({"query_id": pa.array([], pa.int64()),
                      "rank": pa.array([], pa.int64()),
                      "doc_id": pa.array([], pa.int64()),
                      "mmr_score": pa.array([], pa.float64())})
    if pool.empty:
        return empty
    cand_ids = np.unique(pool.doc_id.to_numpy(np.int64))
    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    emb: dict[int, np.ndarray] = {}
    if os.path.exists(emb_path):
        ds = ray.data.read_parquet(
            emb_path, columns=["vec_id", "embedding"],
            filter=pads.field("vec_id").isin(cand_ids))
        batches = list(ds.iter_batches(batch_format="pyarrow"))
        if batches:
            from raysearch.pipelines.similarity import _emb_matrix

            ids, mat = _emb_matrix(pa.concat_tables(batches))
            mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
            emb = {int(i): mat[j] for j, i in enumerate(ids)}

    out_q, out_r, out_d, out_s = [], [], [], []
    for qid, g in pool.groupby("query_id"):
        g = g.sort_values("rank")
        dids = g.doc_id.to_numpy(np.int64)
        rel = g.score.to_numpy(np.float64)
        mx = rel.max()
        rel_n = round6(rel / mx) if mx > 0 else np.zeros(len(rel))
        vecs = [emb.get(int(d)) for d in dids]
        n = len(dids)
        # pairwise cos (0 where either side lacks an embedding)
        sim = np.zeros((n, n))
        have = [i for i, v in enumerate(vecs) if v is not None]
        if have:
            m = np.stack([vecs[i] for i in have])
            sim[np.ix_(have, have)] = round6(m @ m.T)
        chosen: list[int] = []
        avail = np.ones(n, dtype=bool)
        for rank in range(1, min(TOPK, n) + 1):
            if chosen:
                maxsim = sim[:, chosen].max(axis=1)
            else:
                maxsim = np.zeros(n)
            mmr = round6(MMR_LAMBDA * rel_n
                         - (1 - MMR_LAMBDA) * maxsim)
            mmr_masked = np.where(avail, mmr, -np.inf)
            best = mmr_masked.max()
            tied = np.flatnonzero(mmr_masked == best)
            pick = int(tied[np.argmin(dids[tied])])
            chosen.append(pick)
            avail[pick] = False
            out_q.append(int(qid))
            out_r.append(rank)
            out_d.append(int(dids[pick]))
            out_s.append(float(mmr[pick]))
    return pa.table({
        "query_id": pa.array(out_q, pa.int64()),
        "rank": pa.array(out_r, pa.int64()),
        "doc_id": pa.array(out_d, pa.int64()),
        "mmr_score": pa.array(out_s, pa.float64()),
    })


SLOP_W = 3


@fmt_doc(w=SLOP_W, k=TOPK)
def slop_topk(sf_dir: str) -> pa.Table:
    """Ordered proximity search ("a b"~{w}, the Lucene sloppy-phrase
    shape): for each 2-term query, documents where the FIRST term is
    followed by the second within {w} tokens (order matters, unlike
    near_topk), top-{k} ranked by (within-{w} ordered-pair count DESC,
    min ordered gap ASC, doc_id).

    Plan: index-only verification from the POSITIONAL index (zero
    documents.parquet bytes). The kernel looks only RIGHTWARD: for
    each a-occurrence, the nearest b strictly after it (searchsorted,
    doc-boundary-guarded) gives the ordered gap, and the b-count in
    (a, a+{w}] clipped to a's own doc gives the pair count. A doc is
    a hit only if some ordered pair lands within {w} — min-gap-only
    docs (b too far right) are filtered exactly like the oracle's
    HAVING."""
    from raysearch.stats import load_stats

    empty = pa.table({"query_id": pa.array([], pa.int64()),
                      "doc_id": pa.array([], pa.int64()),
                      "rank": pa.array([], pa.int64()),
                      "min_gap": pa.array([], pa.int64()),
                      "pair_count": pa.array([], pa.int64())})
    idx = cached_index(sf_dir, with_positions=True)
    rows = _pair_rows_positional(idx, load_stats(idx)["parts"],
                                 ordered=True)
    return _rank_pair_rows(rows, empty, ordered=True)


def sql_slop_topk() -> str:
    rows = ", ".join(f"({qid}, '{ta}', '{tb}')"
                     for qid, (ta, tb) in enumerate(NEAR_QUERIES))
    return rf"""
WITH t AS (SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS toks
           FROM documents),
pos AS (SELECT doc_id, unnest(toks) AS tok,
               unnest(range(len(toks)))::BIGINT AS p
        FROM t),
q(query_id, ta, tb) AS (VALUES {rows}),
j AS (
  SELECT q.query_id, a.doc_id, b.p - a.p AS d
  FROM q
  JOIN pos a ON a.tok = q.ta
  JOIN pos b ON b.tok = q.tb AND b.doc_id = a.doc_id
  WHERE b.p > a.p
),
agg AS (
  SELECT query_id, doc_id, min(d)::BIGINT AS min_gap,
         sum(CASE WHEN d <= {SLOP_W} THEN 1 ELSE 0 END)::BIGINT
           AS pair_count
  FROM j GROUP BY query_id, doc_id
  HAVING sum(CASE WHEN d <= {SLOP_W} THEN 1 ELSE 0 END) >= 1
),
ranked AS (
  SELECT query_id, doc_id, min_gap, pair_count,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY pair_count DESC, min_gap, doc_id
                            )::BIGINT AS rank
  FROM agg
)
SELECT query_id::BIGINT AS query_id, doc_id, rank, min_gap, pair_count
FROM ranked WHERE rank <= {TOPK}
"""


def sql_near_topk() -> str:
    rows = ", ".join(f"({qid}, '{ta}', '{tb}')"
                     for qid, (ta, tb) in enumerate(NEAR_QUERIES))
    return rf"""
WITH t AS (SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS toks
           FROM documents),
pos AS (SELECT doc_id, unnest(toks) AS tok,
               unnest(range(len(toks)))::BIGINT AS p
        FROM t),
q(query_id, ta, tb) AS (VALUES {rows}),
j AS (
  SELECT q.query_id, a.doc_id, abs(a.p - b.p) AS d
  FROM q
  JOIN pos a ON a.tok = q.ta
  JOIN pos b ON b.tok = q.tb AND b.doc_id = a.doc_id
),
agg AS (
  SELECT query_id, doc_id, min(d)::BIGINT AS min_dist,
         sum(CASE WHEN d <= {NEAR_W} THEN 1 ELSE 0 END)::BIGINT
           AS win_count
  FROM j GROUP BY query_id, doc_id
),
ranked AS (
  SELECT query_id, doc_id, min_dist, win_count,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY min_dist, win_count DESC, doc_id
                            )::BIGINT AS rank
  FROM agg
)
SELECT query_id::BIGINT AS query_id, doc_id, rank, min_dist, win_count
FROM ranked WHERE rank <= {TOPK}
"""


FILTER_LANG = "en"   # metadata filter for filtered_topk


@fmt_doc(lang=FILTER_LANG)
def filtered_topk(sf_dir: str) -> pa.Table:
    """Lucene filter-query retrieval: BM25 top-10 per query over only
    the documents with ``lang = '{lang}'`` — the filter restricts the
    SCORED candidates while df/N/avgdl stay whole-corpus (identical to
    the tombstone stale-stats contract, mirrored as an allowlist).

    Plan: ONE column-pruned predicate-pushdown read of the metadata
    column (doc_id where lang matches — row groups without the value
    never leave storage), normalized to a sorted unique array and
    broadcast once per scorer; each segment masks its decoded posting
    rows with a vectorized searchsorted membership test
    (query.keep_postings) before scoring. Work stays proportional to
    the query terms' df; the corpus text is never read. At 100 TB a
    standing filter would be stored as a per-segment attribute bitmap
    at build time (the tombstone layout); the broadcast-array form is
    the ad-hoc query-time path."""
    import pyarrow.parquet as pq

    t = pq.read_table(_docs_path(sf_dir), columns=["doc_id"],
                      filters=[("lang", "=", FILTER_LANG)])
    keep = t["doc_id"].to_numpy()
    return topk_rounded_for_index(cached_index(sf_dir), "bm25",
                                  keep=keep)


def sql_filtered_topk() -> str:
    return sql_bm25_topk(
        scores_where=("tf.doc_id IN (SELECT doc_id FROM documents "
                      f"WHERE lang = '{FILTER_LANG}')"))


# RM3-style pseudo-relevance feedback: expand each query with the top
# feedback terms of its first-pass top documents, at a flat weight
# (Rocchio with a binary expansion vector — deterministic, no float
# weight normalization to drift against the oracle)
FB_DOCS = 5     # feedback depth: first-pass docs mined per query
FB_TERMS = 8    # expansion width: feedback terms added per query
RM3_W = 0.5     # weight of each expansion term in the second pass


@fmt_doc(fb=FB_DOCS, e=FB_TERMS, w=RM3_W)
def rm3_topk(sf_dir: str) -> pa.Table:
    """Pseudo-relevance-feedback retrieval (RM3/Rocchio shape): run
    BM25, mine the top-{fb} feedback docs per query for their top-{e}
    tf-idf terms (original query terms excluded), re-run BM25 with the
    expanded query (original weights + {w} per expansion term).

    Plan: pass 1 is the standard segment fan-out; feedback-doc text is
    a k-bounded predicate-pushdown read (<= {fb} x |queries| docs);
    term selection is driver-side over that tiny set with ONE filtered
    lexicon scan for df; pass 2 re-enters the same fan-out with
    pre-tokenized weights. Both passes are index-backed — the corpus
    is never scanned, and the expansion only widens posting reads.
    Selection ties and scores follow the shared round6 ->
    (-value, term/doc_id) contract on both engine and oracle sides."""
    import pyarrow.parquet as pq

    from raysearch.query import lexicon_df
    from raysearch.stats import load_stats
    from raysearch.tokenize import tokenize_plain

    idx = cached_index(sf_dir)
    st = load_stats(idx)

    base = topk_rounded_for_index(idx, "bm25", rank_hi=FB_DOCS)
    fb_by_q: dict[int, list[int]] = {}
    for qid, did in zip(base["query_id"].to_pylist(),
                        base["doc_id"].to_pylist()):
        fb_by_q.setdefault(int(qid), []).append(int(did))
    all_fb = sorted({d for ds in fb_by_q.values() for d in ds})

    src = pq.read_table(_docs_path(sf_dir), columns=["doc_id", "text"],
                        filters=[("doc_id", "in", all_fb)])
    tf_by_doc: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for i in range(src.num_rows):
        toks = tokenize_plain(src["text"][i].as_py())
        terms, tf = np.unique(np.asarray(toks, dtype=object),
                              return_counts=True)
        tf_by_doc[int(src["doc_id"][i].as_py())] = (terms, tf)

    dfs = lexicon_df(idx, sorted({str(t) for terms, _ in tf_by_doc.values()
                                  for t in terms}))
    n_docs = float(st["n_docs"])
    qweights = []
    for qid, q in enumerate(DOC_QUERIES):
        orig = query_term_weights(q)
        orig_terms = {t for t, _ in orig}
        mass: dict[str, float] = {}
        for did in fb_by_q.get(qid, ()):
            terms, tf = tf_by_doc[did]
            for t, c in zip(terms, tf):
                t = str(t)
                if t in orig_terms:
                    continue
                # indexed doc => term present in the lexicon; a miss is
                # tokenizer drift and must fail loudly (KeyError)
                mass[t] = mass.get(t, 0.0) + float(c) * float(
                    np.log(n_docs / float(dfs[t])))
        picked = sorted(((-round6(m), t) for t, m in mass.items())
                        )[:FB_TERMS]
        merged = {t: float(w) for t, w in orig}
        merged.update({t: RM3_W for _, t in picked})
        qweights.append(sorted(merged.items()))
    return topk_rounded_for_index(idx, "bm25", queries=qweights)


def sql_rm3_topk() -> str:
    return f"""
WITH fb AS ({sql_bm25_topk(rank_hi=FB_DOCS)}),
{_TOK_CTES},
dfq AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs,
         (SELECT sum(dl) FROM dl)::DOUBLE
           / (SELECT count(*) FROM documents) AS avgdl
),
q(query_id, term, w) AS (VALUES {_qterms_values(True)}),
mass AS (
  SELECT fb.query_id, tf.term,
         round(sum(tf.tf * ln(s.n_docs / dfq.df)), 6) AS m
  FROM fb
  JOIN tf ON tf.doc_id = fb.doc_id
  JOIN dfq ON dfq.term = tf.term
  CROSS JOIN stats s
  LEFT JOIN q ON q.query_id = fb.query_id AND q.term = tf.term
  WHERE q.term IS NULL
  GROUP BY fb.query_id, tf.term
),
exp AS (
  SELECT query_id, term, {RM3_W} AS w FROM (
    SELECT query_id, term,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY m DESC, term) AS r
    FROM mass) WHERE r <= {FB_TERMS}
),
q2 AS (SELECT * FROM q UNION ALL SELECT * FROM exp),
scores AS (
  SELECT q2.query_id, tf.doc_id,
         sum(q2.w * ln(1 + (s.n_docs - dfq.df + 0.5) / (dfq.df + 0.5))
             * (tf.tf * ({K1} + 1))
             / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl)))
           AS score
  FROM q2
  JOIN tf ON q2.term = tf.term
  JOIN dfq ON q2.term = dfq.term
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN stats s
  GROUP BY q2.query_id, tf.doc_id
),
ranked AS (
  SELECT query_id, doc_id, round(score, 6) AS score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 6) DESC, doc_id)
           AS rank
  FROM scores
)
SELECT query_id::BIGINT AS query_id, doc_id, rank, score
FROM ranked WHERE rank <= {TOPK}
"""


RESCORE_R = 50  # first-pass (cheap-scorer) candidate depth


@fmt_doc(r=RESCORE_R)
def rescore_topk(sf_dir: str) -> pa.Table:
    """Cascade ranking (Lucene Rescorer shape): a CHEAP first pass —
    the reference's integer overlap·tf scorer — retrieves the top-{r}
    candidates per query; an expensive second pass rescores ONLY those
    candidates with BM25 and returns the top-10 by the rescored order.
    Results can legitimately differ from full BM25: a doc outside the
    cheap top-{r} is never rescored (the cascade contract).

    Plan: pass 1 is the standard fan-out (integer scores, exact ties
    by doc_id — no rounding step). The {r} x |queries| candidate ids
    ride the pass-2 task closure; each segment scores the candidates
    that live in it (doc-hash partitioning makes per-doc scores final
    in their home part) via searchsorted intersection of the decoded
    query-term postings — work is bounded by the candidate count and
    the query terms' df, never the corpus."""
    from raysearch.pipelines.rankex import (_part_topk, _plan,
                                            _ranked_from_candidates)
    from raysearch.query import keep_postings, query_index

    idx = cached_index(sf_dir)
    first = query_index(idx, DOC_QUERIES, k=RESCORE_R, mode="overlap")
    cand: dict[int, np.ndarray] = {
        int(qid): np.sort(g["doc_id"].to_numpy(np.int64))
        for qid, g in first.to_pandas().groupby("query_id")}

    plan = _plan(idx, DOC_QUERIES)

    def score_query(qid, post):
        elig = cand.get(qid)
        if elig is None or not len(elig):
            return None
        return plan.score(
            plan.qweights[qid],
            lambda t: keep_postings(post[t], elig) if t in post else None)

    return _ranked_from_candidates(_part_topk(
        idx, plan.all_terms, len(plan.qweights), score_query, buffer=None))


def sql_rescore_topk() -> str:
    return f"""
WITH {_TOK_CTES},
qi(query_id, term, w) AS (VALUES {_qterms_values(False)}),
ov AS (
  SELECT qi.query_id, tf.doc_id, sum(qi.w * tf.tf)::BIGINT AS s
  FROM qi JOIN tf ON qi.term = tf.term
  GROUP BY qi.query_id, tf.doc_id
),
cand AS (
  SELECT query_id, doc_id FROM (
    SELECT query_id, doc_id,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY s DESC, doc_id) AS r
    FROM ov) WHERE r <= {RESCORE_R}
),
dfq AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs,
         (SELECT sum(dl) FROM dl)::DOUBLE
           / (SELECT count(*) FROM documents) AS avgdl
),
q(query_id, term, w) AS (VALUES {_qterms_values(True)}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum(q.w * ln(1 + (s.n_docs - dfq.df + 0.5) / (dfq.df + 0.5))
             * (tf.tf * ({K1} + 1))
             / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl)))
           AS score
  FROM q
  JOIN tf ON q.term = tf.term
  JOIN cand ON cand.query_id = q.query_id AND cand.doc_id = tf.doc_id
  JOIN dfq ON q.term = dfq.term
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
ranked AS (
  SELECT query_id, doc_id, round(score, 6) AS score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 6) DESC, doc_id)
           AS rank
  FROM scores
)
SELECT query_id::BIGINT AS query_id, doc_id, rank, score
FROM ranked WHERE rank <= {TOPK}
"""


QUERIES = {
    "doc_lengths": doc_lengths,
    "hybrid_topk": hybrid_topk,
    "hybrid_minmax_topk": hybrid_minmax_topk,
    "collection_stats": collection_stats,
    "term_stats": term_stats,
    "postings": postings,
    "bm25_topk": bm25_topk,
    "overlap_topk": overlap_topk,
    "filtered_topk": filtered_topk,
    "rm3_topk": rm3_topk,
    "rescore_topk": rescore_topk,
    "boosted_topk": boosted_topk,
    "dirichlet_topk": dirichlet_topk,
    "classic_topk": classic_topk,
    "jm_topk": jm_topk,
    "dfi_topk": dfi_topk,
    "axiomatic_topk": axiomatic_topk,
    "dfr_topk": dfr_topk,
    "boolean_topk": boolean_topk,
    "decay_topk": decay_topk,
    "rank_feature_topk": rank_feature_topk,
    "paged_topk": paged_topk,
    "facet_counts": facet_counts,
    "highlight_topk": highlight_topk,
    "hit_positions_topk": hit_positions_topk,
    "msm_topk": msm_topk,
    "synonym_topk": synonym_topk,
    "snippet_topk": snippet_topk,
    "snippet_lines_topk": snippet_lines_topk,
    "phrase_topk": phrase_topk,
    "phrase_prefix_topk": phrase_prefix_topk,
    "near_topk": near_topk,
    "mmr_topk": mmr_topk,
    "slop_topk": slop_topk,
    "blocklist_docs": blocklist_docs,
    "bool_and_docs": bool_and_docs,
    "more_like_this": more_like_this,
    "segment_stats": segment_stats,
}

ORACLE_SQL = {
    "doc_lengths": sql_doc_lengths(),
    "hybrid_topk": sql_hybrid_topk(),
    "hybrid_minmax_topk": sql_hybrid_minmax_topk(),
    "collection_stats": sql_collection_stats(),
    "term_stats": sql_term_stats(),
    "postings": sql_postings(),
    "bm25_topk": sql_bm25_topk(),
    "overlap_topk": sql_overlap_topk(),
    "filtered_topk": sql_filtered_topk(),
    "rm3_topk": sql_rm3_topk(),
    "rescore_topk": sql_rescore_topk(),
    "boosted_topk": sql_boosted_topk(),
    "dirichlet_topk": sql_dirichlet_topk(),
    "classic_topk": sql_classic_topk(),
    "jm_topk": sql_jm_topk(),
    "dfi_topk": sql_dfi_topk(),
    "axiomatic_topk": sql_axiomatic_topk(),
    "dfr_topk": sql_dfr_topk(),
    "boolean_topk": sql_boolean_topk(),
    "decay_topk": sql_decay_topk(),
    "rank_feature_topk": sql_rank_feature_topk(),
    "paged_topk": sql_paged_topk(),
    "facet_counts": sql_facet_counts(),
    "highlight_topk": sql_highlight_topk(),
    "hit_positions_topk": sql_hit_positions_topk(),
    "msm_topk": sql_msm_topk(),
    "synonym_topk": sql_synonym_topk(),
    "snippet_topk": sql_snippet_topk(),
    "snippet_lines_topk": sql_snippet_lines_topk(),
    "phrase_topk": sql_phrase_topk(),
    "phrase_prefix_topk": sql_phrase_prefix_topk(),
    "near_topk": sql_near_topk(),
    "slop_topk": sql_slop_topk(),
    "blocklist_docs": sql_blocklist_docs(),
    "bool_and_docs": sql_bool_and_docs(),
    "more_like_this": sql_more_like_this(),
}
