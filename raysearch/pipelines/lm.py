"""Corpus-trained language-model quality signal — the classic
perplexity-style pre-training filter, two streaming passes:

1. TRAIN: global bigram counts c2(w1 w2) and first-position unigram
   counts c1(w1), map-side partial-counted (one row per distinct gram
   per batch — the combiner pattern) then summed by one groupby. The
   model ships as FOUR numpy arrays — (sorted uint64 gram hashes,
   int64 counts) for each of c1/c2 — ray.put once; numpy arrays come
   out of ray.get ZERO-COPY from the object store, unlike pandas
   Series which would re-deserialize per consumer.
2. SCORE: an ACTOR-POOL map_batches stage (BigramScorer) that
   ray.gets the model once per actor in __init__ (never per batch)
   and looks grams up with np.searchsorted on their md5 hashes; the
   per-doc mean ln(c2/c1) is np.add.at over doc offsets. Documents
   with no bigrams (< 2 tokens) are excluded on both sides.

Counts come from the corpus being scored, so every observed bigram
has c2 >= 1 — no smoothing needed and the oracle is exact SQL.

At 100 TB the model is the corpus's bigram vocabulary, which grows
with the data (unlike a fixed-size KenLM artifact). The broadcast
path here holds while the hashed model fits a worker heap (16 B/gram:
~60 GB per 4e9 distinct bigrams). Beyond that, pass ``vocab_cap=K``:
the model keeps only the K most frequent grams per kind (exact global
top-K — every gram's TOTAL count lives in exactly one post-groupby
row, so per-batch top-K over the grouped stream, unioned and re-capped
on the driver, is the exact global top-K with the driver never
holding more than n_batches x K candidate rows), and scoring treats a
dropped rare gram as count 1 (the rarest a kept model could report)
with the per-gram ratio clamped to <= 0 so a dropped numerator over a
dropped denominator can never manufacture a positive logprob. Model
bytes are then constant in corpus size. Default None = exact
(oracle-checkable) model; the alternative for exactness past the heap
is a shuffle-join of model rows against per-doc gram rows on
hash(gram) % P — same two-pass streaming shape either way.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from raysearch.numutil import round6
from raysearch.pipelines.textops import _tokens

_DOCS = "documents.parquet"


def _read_docs(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(os.path.join(sf_dir, _DOCS),
                                 columns=["doc_id", "text"])


def _doc_bigrams(batch: pa.Table):
    """(doc_idx, w1, bigram) arrays for one batch (cross-doc joins
    masked)."""
    toks = _tokens(batch)
    dl = pc.list_value_length(toks).to_numpy().astype(np.int64)
    flat = toks.flatten().to_numpy(zero_copy_only=False)
    if len(flat) < 2:
        e = np.zeros(0, dtype=np.int64)
        return e, np.zeros(0, object), np.zeros(0, object)
    doc_idx = np.repeat(np.arange(len(dl), dtype=np.int64), dl)
    same = doc_idx[:-1] == doc_idx[1:]
    w1 = flat[:-1][same]
    bg = (flat[:-1] + " " + flat[1:])[same]
    return doc_idx[:-1][same], w1, bg


_HASH_HEX = 16  # 64-bit md5 prefix: the gram-key space for lookups


def _hash_sorted(grams: np.ndarray, counts: np.ndarray):
    """(sorted uint64 hashes, counts aligned) for searchsorted lookup."""
    from raysearch.pipelines.textops import md5_prefix_ints

    h = md5_prefix_ints(grams, _HASH_HEX)
    order = np.argsort(h)
    return h[order], counts[order].astype(np.int64)


def _cap_counts(grouped, cap: int) -> pd.DataFrame:
    """Exact global top-``cap`` grams per kind out of a post-groupby
    (kind, gram, n) Dataset WITHOUT materializing the full vocabulary
    on the driver. Exactness: after the groupby every gram's TOTAL
    count is exactly one row, and no batching of that stream can split
    or duplicate a row — so any gram in the global top-cap of its kind
    is in its batch's top-cap, and the driver's re-cap over the
    <= n_batches x cap x 2 surviving rows is the exact answer. Ties at
    the cutoff break (n DESC, gram ASC), deterministic on any engine."""
    def blocktop(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas()
        keep = [sub.sort_values(["n", "gram"], ascending=[False, True])
                .head(cap) for _, sub in df.groupby("kind")]
        if not keep:
            return tbl
        return pa.Table.from_pandas(pd.concat(keep, ignore_index=True),
                                    preserve_index=False)

    cand = grouped.map_batches(blocktop,
                               batch_format="pyarrow").to_pandas()
    out = [sub.sort_values(["n", "gram"], ascending=[False, True])
           .head(cap) for _, sub in cand.groupby("kind")]
    return (pd.concat(out, ignore_index=True) if out
            else cand)


def _train(sf_dir: str, vocab_cap: int | None = None):
    """Global (c1_first, c2) counts via map-side partials + one
    groupby; returns a ray.put ref to the broadcast model — four
    plain numpy arrays (zero-copy out of the object store). With
    ``vocab_cap`` the model keeps only the cap most frequent grams per
    kind (see module docstring): constant broadcast bytes at any
    corpus scale."""
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        _, w1, bg = _doc_bigrams(batch)
        u1, n1 = np.unique(w1, return_counts=True)
        u2, n2 = np.unique(bg, return_counts=True)
        return pa.table({
            "gram": pa.array(np.concatenate([u1, u2]).tolist(),
                             pa.string()),
            "kind": pa.array([1] * len(u1) + [2] * len(u2), pa.int64()),
            "n": pa.array(np.concatenate([n1, n2]), pa.int64()),
        })

    grouped = (_read_docs(sf_dir)
               .map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True)
               .groupby(["kind", "gram"])
               .aggregate(Sum("n", alias_name="n")))
    counts = (_cap_counts(grouped, vocab_cap) if vocab_cap
              else grouped.to_pandas())
    one = counts[counts.kind == 1]
    two = counts[counts.kind == 2]
    h1, n1 = _hash_sorted(one["gram"].to_numpy(object),
                          one["n"].to_numpy())
    h2, n2 = _hash_sorted(two["gram"].to_numpy(object),
                          two["n"].to_numpy())
    return ray.put((h1, n1, h2, n2))


def _lookup(h_sorted: np.ndarray, n: np.ndarray,
            keys: np.ndarray) -> np.ndarray:
    """Counts for uint64 keys via binary search. Every scored gram was
    counted in training (same corpus), so misses cannot happen; the
    clip only guards indexing if they somehow did."""
    idx = np.searchsorted(h_sorted, keys).clip(0, max(len(h_sorted) - 1, 0))
    return n[idx].astype(np.float64)


def _lookup_capped(h_sorted: np.ndarray, n: np.ndarray,
                   keys: np.ndarray) -> np.ndarray:
    """Capped-model lookup: a gram dropped by vocab_cap reads as
    count 1 — the rarest count a kept gram could have had (every kept
    count is >= the cutoff >= 1), i.e. the rare-gram floor."""
    if not len(h_sorted):
        return np.ones(len(keys), np.float64)
    idx = np.searchsorted(h_sorted, keys)
    ok = idx < len(h_sorted)
    out = np.ones(len(keys), np.float64)
    sel = np.flatnonzero(ok)
    sel = sel[h_sorted[idx[sel]] == keys[sel]]
    out[sel] = n[idx[sel]]
    return out


class BigramScorer:
    """Actor-pool scoring stage: the broadcast model is ray.get ONCE
    per actor here in __init__ (zero-copy numpy views over the shared
    object-store buffer), never per batch."""

    def __init__(self, model_ref, capped: bool = False) -> None:
        import ray

        self.h1, self.n1, self.h2, self.n2 = ray.get(model_ref)
        self.capped = capped

    def __call__(self, batch: pa.Table) -> pa.Table:
        from raysearch.pipelines.textops import md5_prefix_ints

        doc_idx, w1, bg = _doc_bigrams(batch)
        n_docs = batch.num_rows
        if len(bg) == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_bigrams": pa.array([], pa.int64()),
                             "logprob": pa.array([], pa.float64())})
        look = _lookup_capped if self.capped else _lookup
        lp = np.log(
            look(self.h2, self.n2, md5_prefix_ints(bg, _HASH_HEX))
            / look(self.h1, self.n1, md5_prefix_ints(w1, _HASH_HEX)))
        if self.capped:
            # a dropped bigram over a kept frequent w1 already reads
            # ln(1/c1) < 0, but a dropped bigram over a dropped w1
            # would read ln(1/1) = 0 and a kept bigram over a dropped
            # w1 could read > 0 — impossible under the exact model
            # (c2 <= c1 always), so clamp preserves the invariant
            lp = np.minimum(lp, 0.0)
        sums = np.zeros(n_docs)
        np.add.at(sums, doc_idx, lp)
        cnt = np.zeros(n_docs, dtype=np.int64)
        np.add.at(cnt, doc_idx, 1)
        keep = cnt > 0
        doc_ids = batch["doc_id"].to_numpy()[keep]
        return pa.table({
            "doc_id": pa.array(doc_ids, pa.int64()),
            "n_bigrams": pa.array(cnt[keep], pa.int64()),
            "logprob": pa.array(round6(sums[keep] / cnt[keep]),
                                pa.float64()),
        })


def bigram_logprob(sf_dir: str,
                   vocab_cap: int | None = None) -> pa.Table:
    """(doc_id, n_bigrams, logprob): mean ln c2(w1w2)/c1(w1) per doc.
    Scoring runs as an autoscaling actor pool (never fixed-size: a
    fixed pool equal to session CPUs starves the upstream read).
    ``vocab_cap`` bounds the broadcast model at cap grams per kind
    (constant bytes at any corpus scale; default None = exact)."""
    model_ref = _train(sf_dir, vocab_cap=vocab_cap)

    out = _read_docs(sf_dir).map_batches(
        BigramScorer,
        fn_constructor_kwargs={"model_ref": model_ref,
                               "capped": vocab_cap is not None},
        batch_format="pyarrow", zero_copy_batch=True,
        concurrency=(1, 8), num_cpus=1)
    return pa.concat_tables(out.iter_batches(batch_format="pyarrow"))


def bigram_score_ctes() -> str:
    """The t/b/c2/c1/s bigram-scoring CTE chain — the ONE SQL source
    of the LM score, composed by sql_bigram_logprob AND by
    perplexity.sql_perplexity_buckets so the two oracles can never
    drift from each other (the engines already share BigramScorer)."""
    return r"""t AS (SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS toks
           FROM documents),
b AS (
  SELECT doc_id,
    unnest(list_transform(range(1, greatest(len(toks), 1)),
           i -> toks[i])) AS w1,
    unnest(list_transform(range(1, greatest(len(toks), 1)),
           i -> toks[i] || ' ' || toks[i + 1])) AS bg
  FROM t
),
c2 AS (SELECT bg, count(*) AS c FROM b GROUP BY bg),
c1 AS (SELECT w1 AS w, count(*) AS c FROM b GROUP BY w1),
s AS (
  SELECT b.doc_id, count(*) AS n,
         sum(ln(c2.c::DOUBLE / c1.c)) AS lp
  FROM b JOIN c2 USING (bg) JOIN c1 ON c1.w = b.w1
  GROUP BY b.doc_id
)"""


def sql_bigram_logprob() -> str:
    return f"""
WITH {bigram_score_ctes()}
SELECT doc_id, n::BIGINT AS n_bigrams, round(lp / n, 6) AS logprob
FROM s
"""


def _doc_trigrams(batch: pa.Table):
    """(doc_idx, context-bigram, trigram) arrays for one batch —
    contexts are the bigrams that START a trigram (positions
    1..len-2), so ln(c3/c2ctx) is a proper conditional."""
    toks = _tokens(batch)
    dl = pc.list_value_length(toks).to_numpy().astype(np.int64)
    flat = toks.flatten().to_numpy(zero_copy_only=False)
    if len(flat) < 3:
        e = np.zeros(0, dtype=np.int64)
        return e, np.zeros(0, object), np.zeros(0, object)
    doc_idx = np.repeat(np.arange(len(dl), dtype=np.int64), dl)
    same = (doc_idx[:-2] == doc_idx[1:-1]) & (doc_idx[:-2] == doc_idx[2:])
    ctx = (flat[:-2] + " " + flat[1:-1])[same]
    tg = (flat[:-2] + " " + flat[1:-1] + " " + flat[2:])[same]
    return doc_idx[:-2][same], ctx, tg


def _train3(sf_dir: str, vocab_cap: int | None = None):
    """Global (trigram-context, trigram) counts — same transport as
    _train: map-side partials, one groupby, four broadcast numpy
    arrays (capped exactly like _train when vocab_cap is set)."""
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        _, ctx, tg = _doc_trigrams(batch)
        u1, n1 = np.unique(ctx, return_counts=True)
        u2, n2 = np.unique(tg, return_counts=True)
        return pa.table({
            "gram": pa.array(np.concatenate([u1, u2]).tolist(),
                             pa.string()),
            "kind": pa.array([1] * len(u1) + [2] * len(u2), pa.int64()),
            "n": pa.array(np.concatenate([n1, n2]), pa.int64()),
        })

    grouped = (_read_docs(sf_dir)
               .map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True)
               .groupby(["kind", "gram"])
               .aggregate(Sum("n", alias_name="n")))
    counts = (_cap_counts(grouped, vocab_cap) if vocab_cap
              else grouped.to_pandas())
    one = counts[counts.kind == 1]
    two = counts[counts.kind == 2]
    h1, n1 = _hash_sorted(one["gram"].to_numpy(object),
                          one["n"].to_numpy())
    h2, n2 = _hash_sorted(two["gram"].to_numpy(object),
                          two["n"].to_numpy())
    return ray.put((h1, n1, h2, n2))


class TrigramScorer:
    """Actor-pool scoring stage for the trigram model: broadcast
    model ray.get ONCE per actor (zero-copy numpy views)."""

    def __init__(self, model_ref, capped: bool = False) -> None:
        import ray

        self.h1, self.n1, self.h2, self.n2 = ray.get(model_ref)
        self.capped = capped

    def __call__(self, batch: pa.Table) -> pa.Table:
        from raysearch.pipelines.textops import md5_prefix_ints

        doc_idx, ctx, tg = _doc_trigrams(batch)
        n_docs = batch.num_rows
        if len(tg) == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_trigrams": pa.array([], pa.int64()),
                             "logprob": pa.array([], pa.float64())})
        look = _lookup_capped if self.capped else _lookup
        lp = np.log(
            look(self.h2, self.n2, md5_prefix_ints(tg, _HASH_HEX))
            / look(self.h1, self.n1,
                   md5_prefix_ints(ctx, _HASH_HEX)))
        if self.capped:
            lp = np.minimum(lp, 0.0)  # c3 <= c2ctx under the exact model
        sums = np.zeros(n_docs)
        np.add.at(sums, doc_idx, lp)
        cnt = np.zeros(n_docs, dtype=np.int64)
        np.add.at(cnt, doc_idx, 1)
        keep = cnt > 0
        doc_ids = batch["doc_id"].to_numpy()[keep]
        return pa.table({
            "doc_id": pa.array(doc_ids, pa.int64()),
            "n_trigrams": pa.array(cnt[keep], pa.int64()),
            "logprob": pa.array(round6(sums[keep] / cnt[keep]),
                                pa.float64()),
        })


def trigram_logprob(sf_dir: str,
                    vocab_cap: int | None = None) -> pa.Table:
    """(doc_id, n_trigrams, logprob): mean ln c3(w1w2w3)/c2(w1w2 as
    trigram context) per doc — the order-3 companion to
    bigram_logprob (same two-pass shape, same zero-copy broadcast
    transport, same no-smoothing exactness: the model is trained on
    the corpus being scored, so every scored trigram was counted).
    Docs with < 3 tokens are excluded on both sides. ``vocab_cap``
    bounds the broadcast model at cap grams per kind (constant bytes
    at any corpus scale; default None = exact)."""
    model_ref = _train3(sf_dir, vocab_cap=vocab_cap)

    out = _read_docs(sf_dir).map_batches(
        TrigramScorer,
        fn_constructor_kwargs={"model_ref": model_ref,
                               "capped": vocab_cap is not None},
        batch_format="pyarrow", zero_copy_batch=True,
        concurrency=(1, 8), num_cpus=1)
    return pa.concat_tables(out.iter_batches(batch_format="pyarrow"))


def sql_trigram_logprob() -> str:
    return r"""
WITH t AS (SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS toks
           FROM documents),
b AS (
  SELECT doc_id,
    unnest(list_transform(range(1, greatest(len(toks) - 1, 1)),
           i -> toks[i] || ' ' || toks[i + 1])) AS ctx,
    unnest(list_transform(range(1, greatest(len(toks) - 1, 1)),
           i -> toks[i] || ' ' || toks[i + 1] || ' ' || toks[i + 2]))
      AS tg
  FROM t WHERE len(toks) >= 3
),
c3 AS (SELECT tg, count(*) AS c FROM b GROUP BY tg),
cc AS (SELECT ctx AS w, count(*) AS c FROM b GROUP BY ctx),
s AS (
  SELECT b.doc_id, count(*) AS n,
         sum(ln(c3.c::DOUBLE / cc.c)) AS lp
  FROM b JOIN c3 USING (tg) JOIN cc ON cc.w = b.ctx
  GROUP BY b.doc_id
)
SELECT doc_id, n::BIGINT AS n_trigrams, round(lp / n, 6) AS logprob
FROM s
"""


def split_oov_rate(sf_dir: str) -> pa.Table:
    """Train/valid OOV audit at BIGRAM granularity: split the corpus
    by doc_id parity (train = even, the repo's standard split), build
    the train bigram vocabulary, and report per language how many of
    the validation split's bigrams are out-of-vocabulary — the
    n-gram-LM coverage check run before training on a new corpus mix
    (unigram OOV is identically zero on the fixtures' closed
    vocabulary; bigram OOV is the first order where held-out text
    genuinely surprises the model).

    Plan: pass 1 builds the train vocab as per-batch distinct-bigram
    partials -> one bigram groupby (the bigram_logprob combiner
    shape), broadcast to pass 2's batch kernel, which emits per-batch
    (lang, n, n_oov) int partials — driver holds langs x batches
    narrow rows. At open vocabulary the broadcast becomes the
    decontaminate-style term-bucketed anti-join; the fixture-scale
    broadcast form is the query-time ad-hoc variant."""
    from raysearch.pipelines.search_queries import _concat_ds
    from raysearch.pipelines.textops import _read_docs, _tokens

    def doc_bigrams(batch: pa.Table):
        toks = _tokens(batch)
        n = pc.list_value_length(toks).to_numpy().astype(np.int64)
        flat = np.asarray(toks.flatten().to_pandas(), dtype=object)
        ids = np.repeat(batch["doc_id"].to_numpy(), n)
        if len(flat) < 2:
            return ids[:0], np.array([], object)
        same = ids[:-1] == ids[1:]
        big = (pd.Series(flat[:-1][same]) + " "
               + pd.Series(flat[1:][same])).to_numpy()
        return ids[:-1][same], big

    def train_partial(batch: pa.Table) -> pa.Table:
        keep = batch.filter(pc.equal(
            pc.bit_wise_and(batch["doc_id"], 1), 0))
        _, big = doc_bigrams(keep)
        u = np.unique(big) if len(big) else np.array([], object)
        return pa.table({"bigram": pa.array(u.tolist(), pa.string())})

    from ray.data.aggregate import Count

    # distinct train bigrams: per-batch unique partials -> one
    # bigram-bucketed groupby (the count is discarded)
    vocab_tbl = (_read_docs(sf_dir)
                 .map_batches(train_partial, batch_format="pyarrow",
                              zero_copy_batch=True)
                 .groupby("bigram").aggregate(Count())
                 ).to_pandas()
    vocab = np.sort(vocab_tbl["bigram"].to_numpy(dtype=object))

    empty = pa.table({"lang": pa.array([], pa.string()),
                      "n_bigrams": pa.array([], pa.int64()),
                      "n_oov": pa.array([], pa.int64())})

    def valid_partial(batch: pa.Table) -> pa.Table:
        keep = batch.filter(pc.equal(
            pc.bit_wise_and(batch["doc_id"], 1), 1))
        if keep.num_rows == 0:
            return empty
        ids, big = doc_bigrams(keep)
        if not len(big):
            return empty
        lang_by_id = dict(zip(keep["doc_id"].to_pylist(),
                              keep["lang"].to_pylist()))
        langs = np.array([lang_by_id[int(i)] for i in ids], object)
        pos = np.searchsorted(vocab, big)
        pos = np.clip(pos, 0, max(len(vocab) - 1, 0))
        oov = (vocab[pos] != big) if len(vocab) else np.ones(len(big),
                                                            bool)
        g = (pd.DataFrame({"lang": langs, "oov": oov.astype(np.int64)})
             .groupby("lang", as_index=False)
             .agg(n_bigrams=("oov", "size"), n_oov=("oov", "sum")))
        return pa.table({
            "lang": pa.array(g.lang.tolist(), pa.string()),
            "n_bigrams": pa.array(g.n_bigrams.to_numpy(np.int64),
                                  pa.int64()),
            "n_oov": pa.array(g.n_oov.to_numpy(np.int64), pa.int64())})

    d = _concat_ds(
        _read_docs(sf_dir, ["doc_id", "lang", "text"])
        .map_batches(valid_partial, batch_format="pyarrow",
                     zero_copy_batch=True), empty).to_pandas()
    out = (d.groupby("lang", as_index=False)
           .agg(n_bigrams=("n_bigrams", "sum"), n_oov=("n_oov", "sum"))
           .sort_values("lang", ignore_index=True))
    rate = round6(out.n_oov.to_numpy(np.float64)
                  / np.maximum(out.n_bigrams.to_numpy(np.float64), 1))
    return pa.table({
        "lang": pa.array(out.lang.tolist(), pa.string()),
        "n_bigrams": pa.array(out.n_bigrams.to_numpy(np.int64),
                              pa.int64()),
        "n_oov": pa.array(out.n_oov.to_numpy(np.int64), pa.int64()),
        "oov_rate": pa.array(rate, pa.float64()),
    })


def sql_split_oov_rate() -> str:
    return r"""
WITH t AS (
  SELECT doc_id, lang, regexp_extract_all(lower(text), '\S+') AS tk
  FROM documents
),
bg AS (
  SELECT doc_id, lang, tk[i] || ' ' || tk[i + 1] AS b
  FROM t, unnest(range(1, len(tk))) AS u(i)
),
tr AS (SELECT DISTINCT b FROM bg WHERE doc_id % 2 = 0),
va AS (SELECT lang, b FROM bg WHERE doc_id % 2 = 1)
SELECT lang, count(*)::BIGINT AS n_bigrams,
       count(*) FILTER (b NOT IN (SELECT b FROM tr))::BIGINT AS n_oov,
       round(count(*) FILTER (b NOT IN (SELECT b FROM tr))::DOUBLE
             / greatest(count(*), 1), 6) AS oov_rate
FROM va GROUP BY lang ORDER BY lang
"""


QUERIES = {"bigram_logprob": bigram_logprob,
           "trigram_logprob": trigram_logprob,
           "split_oov_rate": split_oov_rate}
ORACLE_SQL = {"bigram_logprob": sql_bigram_logprob(),
              "trigram_logprob": sql_trigram_logprob(),
              "split_oov_rate": sql_split_oov_rate()}
