"""Fuzzy (edit-distance) entity matching — the record-linkage /
typo-clustering primitive, SymSpell-style (Garbe's deletion-
neighborhood blocking): two strings are within Levenshtein distance 1
only if they share a member of {self} ∪ {all 1-deletion variants}, so
candidate generation is a hash join on variant hashes instead of the
O(N^2) cross join the SQL oracle runs.

Distance is over UTF-8 BYTES — the exact semantics of
DuckDB/Postgres levenshtein(), which the oracle runs (a codepoint
contract silently diverges on multi-byte text). Everything is
vectorized per LENGTH CLASS: one vectorized UTF-8 encode views as a
(rows x maxbytes) byte matrix, and every deletion variant's
polynomial rolling hash comes from prefix Horner states +
reverse-cumsum suffix sums (the winnow.py hashing idiom):
hash(delete i) = prefix_i * B^(L-1-i) + suffix_{i+1}. Python loops
run only over byte positions (~name length) and distinct length
classes, never over rows or pairs.

Candidate guarantee (proof in _verify): a shared variant forces
|len_a - len_b| <= 1; a len-diff-1 candidate is ALWAYS a true
deletion pair (the shared variant must equal the shorter name), and an
equal-length candidate needs exactly the <=1-mismatch check (deleting
different positions can fake distance 2, e.g. 'ab' / 'ba'). Hash
collisions only ADD false candidates (equal strings always collide
equal) — the exact verify kills them, so the result is exact.

Exchanges: ONE coarse groupby on the variant-hash bucket (candidate
emission via the shared _run_pairs triangular kernel), ONE on the
pair bucket (cross-bucket dedup of pairs found under several shared
variants + the verify). Work scales with sum(bucket^2) of the variant
blocking, not N^2.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from raysearch.hashing import splitmix64

_B = np.uint64(1099511628211)  # FNV-1a prime as the polynomial base


def _name_codes(names) -> tuple[np.ndarray, np.ndarray]:
    """UTF-8 BYTE matrix (rows x maxbytes, zero-padded) + row byte
    lengths, via one vectorized encode + view — no per-row loop. The
    distance contract is over UTF-8 BYTES, matching DuckDB/Postgres
    levenshtein() exactly (a codepoint-level contract diverges from
    the SQL oracle on any multi-byte text — caught by the CJK/emoji
    adversarial tests). UTF-8 of NUL-free text never contains a zero
    byte, so padding is unambiguous."""
    u = np.asarray(list(names), dtype="U")
    if len(u) == 0:
        return np.zeros((0, 0), np.uint64), np.zeros(0, np.int64)
    b = np.char.encode(u, "utf-8")
    max_b = b.dtype.itemsize
    if max_b == 0:  # every name empty
        return np.zeros((len(u), 0), np.uint64), np.zeros(len(u),
                                                          np.int64)
    codes = (b.view(np.uint8).reshape(len(b), max_b)
             .astype(np.uint64))
    lens = (codes != 0).sum(axis=1).astype(np.int64)
    return codes, lens


def _variant_hashes(codes: np.ndarray, lens: np.ndarray):
    """For every row, the splitmix64-finalized polynomial hash of the
    string itself and of each 1-deletion variant. Returns parallel
    (row_idx, hash) arrays. Vectorized per length class."""
    out_rows, out_hash = [], []
    with np.errstate(over="ignore"):
        for L in np.unique(lens):
            L = int(L)
            sel = np.flatnonzero(lens == L)
            if L == 0:
                # the empty string's self-hash must go through the
                # SAME finalizer as a 1-char name's deletion variant
                # (raw 0), or ''-vs-single-char pairs are missed
                out_rows.append(sel)
                out_hash.append(splitmix64(np.zeros(len(sel),
                                                    np.uint64)))
                continue
            c = codes[sel, :L]                      # (n, L)
            pw = np.empty(L, np.uint64)
            pw[0] = 1
            for k in range(1, L):
                pw[k] = pw[k - 1] * _B
            # prefix Horner states p_i = hash(s[:i])
            p = np.zeros((len(sel), L + 1), np.uint64)
            for i in range(L):
                p[:, i + 1] = p[:, i] * _B + c[:, i]
            # suffix sums S_i = sum_{j>=i} c_j * B^(L-1-j)
            w = c * pw[::-1][None, :]
            S = np.zeros((len(sel), L + 1), np.uint64)
            S[:, :L] = w[:, ::-1].cumsum(axis=1,
                                         dtype=np.uint64)[:, ::-1]
            # the string itself
            out_rows.append(sel)
            out_hash.append(splitmix64(p[:, L]))
            # each deletion position i: prefix_i * B^(L-1-i) + S_{i+1}
            for i in range(L):
                h = p[:, i] * pw[L - 1 - i] + S[:, i + 1]
                out_rows.append(sel)
                out_hash.append(splitmix64(h))
    return (np.concatenate(out_rows),
            np.concatenate(out_hash).astype(np.int64))


def _verify(names_a, names_b) -> np.ndarray:
    """Exact Levenshtein<=1 per pair, fully vectorized. Returns the
    distance (0/1) or -1 for rejected pairs. Unlike a blocking-only
    shortcut (a shared 1-deletion variant DOES prove a len-diff-1
    pair), this accepts arbitrary pairs: equal length needs
    mismatches <= 1; len diff 1 needs longest-common-prefix +
    longest-common-suffix >= shorter length (the one-deletion test);
    len diff >= 2 is always rejected."""
    ca, la = _name_codes(names_a)
    cb, lb = _name_codes(names_b)
    n = len(la)
    w = max(ca.shape[1], cb.shape[1], 1)
    A = np.zeros((n, w), np.uint64)
    A[:, :ca.shape[1]] = ca
    Bm = np.zeros((n, w), np.uint64)
    Bm[:, :cb.shape[1]] = cb
    dist = np.full(n, -1, dtype=np.int64)
    same = la == lb
    if same.any():
        mism = (A[same] != Bm[same]).sum(axis=1)
        d = np.full(int(same.sum()), -1, dtype=np.int64)
        d[mism <= 1] = (mism[mism <= 1] > 0).astype(np.int64)
        dist[same] = d
    d1 = np.abs(la - lb) == 1
    if d1.any():
        short_is_a = (la < lb)[:, None]
        S = np.where(short_is_a, A, Bm)[d1]
        L = np.where(short_is_a, Bm, A)[d1]
        ls = np.minimum(la, lb)[d1]
        pre = np.minimum(
            np.logical_and.accumulate(S == L, axis=1).sum(axis=1), ls)
        # suffix of S vs L shifted one left; the zero padding past
        # both strings' ends is always equal, so subtract the padding
        # width from the trailing-equal run
        eq2 = (S[:, : w - 1] == L[:, 1:])[:, ::-1]
        run = np.logical_and.accumulate(eq2, axis=1).sum(axis=1)
        suf = np.maximum(run - ((w - 1) - ls), 0)
        dist[d1] = np.where(pre + suf >= ls, 1, -1)
    return dist


def fuzzy_name_pairs(sf_dir: str) -> pa.Table:
    """All customer pairs whose names are within Levenshtein distance
    1 (custkey_a < custkey_b), with both names and the exact distance
    — via SymSpell deletion-neighborhood blocking instead of the
    oracle's O(N^2) cross join."""
    import ray.data

    from raysearch.hashing import auto_buckets, parquet_rows
    from raysearch.pipelines.dedup import _check_packable, _run_pairs

    path = os.path.join(sf_dir, "customer.parquet")
    nb = auto_buckets(parquet_rows(path))

    def variant_rows(b: pa.Table) -> pa.Table:
        keys = b["c_custkey"].to_numpy().astype(np.int64)
        _check_packable(keys)
        names = b["c_name"].to_pylist()
        codes, lens = _name_codes(names)
        rows, hashes = _variant_hashes(codes, lens)
        return pa.table({
            "bucket": pa.array(hashes & (nb - 1), pa.int64()),
            "vhash": pa.array(hashes, pa.int64()),
            "custkey": pa.array(keys[rows], pa.int64()),
            "name": pa.array(np.asarray(names, dtype=object)[rows]
                             .tolist(), pa.string()),
        })

    def emit_cands(g: pd.DataFrame) -> pd.DataFrame:
        # a name whose deletions coincide (e.g. 'aab' deleting either
        # 'a') emits the same (vhash, custkey) twice — dedup, or the
        # run kernel would see equal-doc runs. _run_pairs establishes
        # its own (key, doc) order; no pre-sort needed.
        g = g.drop_duplicates(["vhash", "custkey"])
        a, b = _run_pairs([g["vhash"].to_numpy()],
                          g["custkey"].to_numpy())
        if len(a) == 0:
            # fixed-width 'U1' empties keep Ray's block-size estimator
            # off the object-dtype path (np.vectorize rejects size-0
            # object inputs and logs an error per empty block)
            return pd.DataFrame({"ppart": [], "packed": [],
                                 "ka": [], "kb": [],
                                 "na": np.array([], dtype="U1"),
                                 "nb_": np.array([], dtype="U1")})
        packed = (a.astype(np.int64) << 32) | b.astype(np.int64)
        packed, idx = np.unique(packed, return_index=True)
        a, b = a[idx], b[idx]
        lookup = (g.drop_duplicates("custkey")
                  .set_index("custkey")["name"])
        pp = (splitmix64(packed.astype(np.uint64))
              % np.uint64(nb)).astype(np.int64)
        return pd.DataFrame({
            "ppart": pp, "packed": packed, "ka": a, "kb": b,
            "na": lookup.loc[a].to_numpy(),
            "nb_": lookup.loc[b].to_numpy()})

    def verify_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates("packed")
        if not len(g):
            return pd.DataFrame({"custkey_a": [], "custkey_b": [],
                                 "name_a": np.array([], dtype="U1"),
                                 "name_b": np.array([], dtype="U1"),
                                 "dist": []})
        dist = _verify(g["na"].to_numpy(), g["nb_"].to_numpy())
        ok = dist >= 0
        return pd.DataFrame({
            "custkey_a": g["ka"].to_numpy()[ok],
            "custkey_b": g["kb"].to_numpy()[ok],
            "name_a": g["na"].to_numpy()[ok],
            "name_b": g["nb_"].to_numpy()[ok],
            "dist": dist[ok]})

    ds = ray.data.read_parquet(path, columns=["c_custkey", "c_name"])
    out = (ds.map_batches(variant_rows, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("bucket").map_groups(emit_cands,
                                         batch_format="pandas")
           .groupby("ppart").map_groups(verify_pairs,
                                        batch_format="pandas"))
    df = out.to_pandas()
    if "custkey_a" not in df.columns:  # no pairs anywhere
        df = pd.DataFrame({"custkey_a": np.array([], np.int64),
                           "custkey_b": np.array([], np.int64),
                           "name_a": pd.Series([], dtype=object),
                           "name_b": pd.Series([], dtype=object),
                           "dist": np.array([], np.int64)})
    df = df.sort_values(["custkey_a", "custkey_b"], ignore_index=True)
    return pa.table({
        "custkey_a": pa.array(df.custkey_a.to_numpy(np.int64),
                              pa.int64()),
        "custkey_b": pa.array(df.custkey_b.to_numpy(np.int64),
                              pa.int64()),
        "name_a": pa.array(df.name_a.tolist(), pa.string()),
        "name_b": pa.array(df.name_b.tolist(), pa.string()),
        "dist": pa.array(df.dist.to_numpy(np.int64), pa.int64()),
    })


# typo-tolerant search: misspelled queries over the sf vocabulary —
# dist-1 deletions/insertions/substitutions, one exact term (dist 0
# wins over any higher-df neighbor), one hopeless term (dropped), one
# ambiguous corruption ('sart' -> part/sort, df tie-break), and two
# terms collapsing onto one correction (weights add)
SPELL_QUERIES = ["dta strem xqzzt", "hashh joinn", "window quer",
                 "merge sortt", "sart value", "dta data"]


def _correct_terms(idx: str, terms: list[str]) -> dict[str, str]:
    """Map each query term to its best lexicon correction within
    Levenshtein distance 1 (UTF-8 bytes), ranked (dist ASC, df DESC,
    term ASC); terms with no candidate are absent from the map.

    Scale shape: the query terms' variant hashes broadcast (tiny);
    candidates come from ONE streaming pass over the lexicon that
    variant-hashes each lexicon batch and membership-matches — never
    a vocab cross join, and the driver sees only the matched
    candidates (bounded by the queries' fuzzy neighborhoods)."""
    import ray
    import ray.data

    codes, lens = _name_codes(terms)
    _, qh = _variant_hashes(codes, lens)
    qvar_ref = ray.put(np.unique(qh))

    def scan(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        qv = ray.get(qvar_ref)  # zero-copy numpy view
        lex_terms = pc.cast(b["term"], pa.string()).to_pylist()
        c2, l2 = _name_codes(lex_terms)
        r2, h2 = _variant_hashes(c2, l2)
        pos = np.searchsorted(qv, h2)
        ok = pos < len(qv)
        hit = np.zeros(len(h2), dtype=bool)
        hit[ok] = qv[pos[ok]] == h2[ok]
        sel = np.unique(r2[hit])
        return pa.table({
            "term": pa.array([lex_terms[i] for i in sel], pa.string()),
            "df": pc.cast(b["df"], pa.int64()).take(
                pa.array(sel, pa.int64())),
        })

    lex = ray.data.read_parquet(os.path.join(idx, "lexicon"),
                                columns=["term", "df"])
    # iter_batches yields ZERO batches when every output block is
    # empty (a vocabulary with no term near any query term) — guard
    # the concat or the no-candidates case crashes instead of
    # dropping every term like the oracle does
    batches = [t for t in lex.map_batches(
        scan, batch_format="pyarrow", zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow") if t.num_rows]
    cand = (pa.concat_tables(batches) if batches else
            pa.table({"term": pa.array([], pa.string()),
                      "df": pa.array([], pa.int64())}))
    cterms = np.asarray(cand["term"].to_pylist(), dtype=object)
    cdfs = cand["df"].to_numpy().astype(np.int64)
    best: dict[str, tuple] = {}
    for t in terms:
        if len(cterms) == 0:
            continue
        dist = _verify(np.full(len(cterms), t, dtype=object), cterms)
        ok = dist >= 0
        for d, df, c in zip(dist[ok], cdfs[ok], cterms[ok]):
            key = (int(d), -int(df), str(c))
            if t not in best or key < best[t]:
                best[t] = key
    return {t: k[2] for t, k in best.items()}


def spellfix_topk(sf_dir: str) -> pa.Table:
    """Typo-tolerant BM25 search: each misspelled query's terms are
    corrected against the lexicon (distance <= 1, nearest first, then
    highest df, then term order; uncorrectable terms drop; terms
    collapsing onto one correction add their weights), then the
    corrected term-weight lists run through the exact distributed
    segment scorer — the composition of the SymSpell blocking, the
    queryable lexicon, and the BM25 fan-out."""
    from raysearch.pipelines.rankex import _ranked_from_candidates
    from raysearch.pipelines.search_queries import (_TOPK_BUFFER,
                                                    cached_index)
    from raysearch.query import query_index
    from raysearch.score import query_term_weights

    idx = cached_index(sf_dir)
    per_q = [query_term_weights(q) for q in SPELL_QUERIES]
    uniq = sorted({t for qt in per_q for t, _ in qt})
    fix = _correct_terms(idx, uniq)

    qweights, qids = [], []
    for qid, qt in enumerate(per_q):
        agg: dict[str, int] = {}
        for t, w in qt:
            c = fix.get(t)
            if c is not None:
                agg[c] = agg.get(c, 0) + int(w)
        if agg:  # a query whose EVERY term dropped scores nothing —
            qweights.append(sorted(agg.items()))  # don't hand the
            qids.append(qid)                      # scorer empty terms
    if not qweights:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64())})

    raw = query_index(idx, qweights, k=_TOPK_BUFFER).to_pandas()
    raw["query_id"] = np.asarray(qids, dtype=np.int64)[
        raw["query_id"].to_numpy(np.int64)]
    return _ranked_from_candidates(raw[["query_id", "doc_id", "score"]])


def _spell_values() -> str:
    from raysearch.score import query_term_weights

    rows = []
    for qid, q in enumerate(SPELL_QUERIES):
        for term, w in query_term_weights(q):
            rows.append(f"({qid}, '{term}', {int(w)})")
    return ", ".join(rows)


def sql_spellfix_topk() -> str:
    from raysearch.pipelines.search_queries import _TOK_CTES, B, K1, TOPK

    return f"""
WITH {_TOK_CTES},
dfi AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
mq(query_id, mterm, w) AS (VALUES {_spell_values()}),
cand AS (
  SELECT mq.query_id, mq.mterm, mq.w, dfi.term, dfi.df,
         levenshtein(mq.mterm, dfi.term) AS dist
  FROM mq JOIN dfi ON levenshtein(mq.mterm, dfi.term) <= 1
),
best AS (
  SELECT query_id, mterm, w, term FROM (
    SELECT *, row_number() OVER (PARTITION BY query_id, mterm
                                 ORDER BY dist, df DESC, term) AS rn
    FROM cand) WHERE rn = 1
),
q AS (SELECT query_id, term, sum(w)::DOUBLE AS w
      FROM best GROUP BY query_id, term),
dfd AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs,
         (SELECT sum(dl) FROM dl)::DOUBLE
           / (SELECT count(*) FROM documents) AS avgdl
),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum(q.w * ln(1 + (s.n_docs - dfd.df + 0.5) / (dfd.df + 0.5))
             * (tf.tf * ({K1} + 1))
             / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl)))
           AS score
  FROM q
  JOIN tf ON q.term = tf.term
  JOIN dfd ON q.term = dfd.term
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


def sql_fuzzy_name_pairs() -> str:
    return """
SELECT a.c_custkey AS custkey_a, b.c_custkey AS custkey_b,
       a.c_name AS name_a, b.c_name AS name_b,
       levenshtein(a.c_name, b.c_name)::BIGINT AS dist
FROM customer a JOIN customer b ON a.c_custkey < b.c_custkey
WHERE levenshtein(a.c_name, b.c_name) <= 1
ORDER BY custkey_a, custkey_b
"""


QUERIES = {
    "fuzzy_name_pairs": fuzzy_name_pairs,
    "spellfix_topk": spellfix_topk,
}

ORACLE_SQL = {
    "fuzzy_name_pairs": sql_fuzzy_name_pairs(),
    "spellfix_topk": sql_spellfix_topk(),
}
