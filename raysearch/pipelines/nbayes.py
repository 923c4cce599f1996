"""Distributed Naive Bayes text classification — model training as
aggregation, the classic "train a lang/quality classifier over the
corpus" step of a large-scale data pipeline (CCNet/fastText-style
labeling, here with the exactly-reproducible multinomial NB instead
of SGD, because NB's sufficient statistics are pure combiner-friendly
counts: any reduce order gives the identical model).

Two passes over the documents table, both budget-clean at 100 TB:

1. TRAIN — one map pass emits per-batch (class, token) count partials
   plus per-class doc counts; ONE (kind, class, token) groupby merges
   them. The model is (class, token) counts + per-class token totals
   + per-class doc priors + the global vocab size: vocab x classes
   cardinality, broadcast ONCE via ray.put and ray.get per batch
   (zero-copy). At open-vocabulary scale pass ``vocab_cap=K`` — the
   likelihood tables keep the exact top-K tokens per class while the
   smoothing scalars (tot_c, V) stay exact, so model bytes are
   constant in corpus size (see _train_nb); this corpus's vocabulary
   is tiny, so the default is the exact model.
2. CLASSIFY — a plain function map pass scores every document against
   every class with add-one (Laplace) smoothing,
   score(d, c) = ln P(c) + sum_tok tf * ln((n_tc + 1) / (tot_c + V)),
   vectorized per batch (one md5-hash per unique token, one
   searchsorted per class, np.add.at scatter onto docs). Prediction
   is argmax over ROUND6-rounded scores with ties to the smallest
   class name — the same rounded-rank contract the BM25 oracles use,
   so float summation-order differences cannot flip the argmax
   differently on the two engines. Token-less docs are unscored on
   both sides.

The final confusion matrix (true x predicted class) is a
classes^2-cardinality aggregate of per-batch partials — nothing
doc-cardinality leaves the map stage.

The eval generalizes the reference's lookup-score shape
(/root/reference/src/lib.rs:374-411) from query terms to class
likelihood tables; same family as knn_label_eval (label-quality
probe) and lm.py (corpus-trained model broadcast).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from raysearch.numutil import fmt_doc, round6
from raysearch.pipelines.textops import (
    _list_parents,
    _tokens,
    md5_prefix_ints,
)

_DOCS = "documents.parquet"
_HASH_HEX = 16  # 64-bit md5 prefix (lm.py's gram-key space)

# the supervised target column: documents.lang (the labeled class a
# pipeline would train its language/quality tagger against)
NB_LABEL = "lang"


def _read_docs(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(os.path.join(sf_dir, _DOCS),
                                 columns=["doc_id", "text", NB_LABEL])


def _train_nb(sf_dir: str, vocab_cap: int | None = None):
    """(classes, per-class sorted token-hash arrays + counts, token
    totals, doc counts, vocab size, N) — broadcast once.

    ``vocab_cap``: keep only the cap most frequent tokens PER CLASS in
    the broadcast likelihood tables — constant model bytes at any
    corpus scale. The per-class top-cap is exact (each (class, token)
    total is one post-groupby row; per-batch top-cap unioned + driver
    re-cap = global top-cap), and the smoothing scalars stay EXACT:
    tot_c comes from per-batch kind=3 partial sums, V from counting
    the post-groupby kind=2 per-token rows batch-side (each distinct
    token is exactly one such row). Dropped rare tokens score at the
    +1 Laplace floor — the same floor _class_counts already gives
    never-seen tokens — so capping only moves rare-token likelihoods
    to the floor, it never changes smoothing mass. Default None =
    exact model (the oracle contract)."""
    import ray
    import pandas as pd
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        toks = _tokens(batch)
        flat = toks.flatten().to_numpy(zero_copy_only=False)
        parents = _list_parents(toks)
        labels = np.asarray(batch[NB_LABEL].to_pylist(), dtype=object)
        # (class, token) pair counts, collapsed map-side
        key = labels[parents] + "\x1f" + flat
        uk, nk = np.unique(key, return_counts=True)
        # per-class document counts (kind=1 rows, token field empty)
        ul, nl = np.unique(labels, return_counts=True)
        kinds = [0] * len(uk) + [1] * len(ul)
        keys = [uk, ul]
        ns = [nk, nl]
        if vocab_cap:
            # kind=2: one row per distinct token (n irrelevant, the
            # post-groupby ROW COUNT is the exact global vocab);
            # kind=3: per-class token totals (exact smoothing denom)
            ut = np.unique(flat)
            uc, ncnt = np.unique(labels[parents], return_counts=True)
            kinds += [2] * len(ut) + [3] * len(uc)
            keys += [ut, uc]
            ns += [np.ones(len(ut), np.int64), ncnt]
        return pa.table({
            "kind": pa.array(kinds, pa.int64()),
            "key": pa.array(np.concatenate(keys).tolist(), pa.string()),
            "n": pa.array(np.concatenate(ns), pa.int64()),
        })

    grouped = (_read_docs(sf_dir)
               .map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True)
               .groupby(["kind", "key"])
               .aggregate(Sum("n", alias_name="n")))

    vocab_exact = None
    tot_exact: dict | None = None
    if vocab_cap:
        def blocktop(tbl: pa.Table) -> pa.Table:
            df = tbl.to_pandas()
            toks = df[df.kind == 0]
            if len(toks):
                split = toks.key.str.split("\x1f", n=1, expand=True)
                toks = (toks.assign(_c=split[0])
                        .sort_values(["n", "key"],
                                     ascending=[False, True])
                        .groupby("_c", sort=False).head(vocab_cap)
                        .drop(columns="_c"))
            n2 = int((df.kind == 2).sum())
            keep = [toks, df[df.kind.isin((1, 3))],
                    pd.DataFrame({"kind": [4], "key": [""],
                                  "n": [n2]})]
            return pa.Table.from_pandas(
                pd.concat(keep, ignore_index=True), preserve_index=False)

        counts = grouped.map_batches(
            blocktop, batch_format="pyarrow").to_pandas()
        vocab_exact = int(counts[counts.kind == 4].n.sum())
        t3 = counts[counts.kind == 3]
        tot_exact = dict(zip(t3.key, t3.n.astype(int)))
        tok_cand = counts[counts.kind == 0]
        if len(tok_cand):
            split = tok_cand.key.str.split("\x1f", n=1, expand=True)
            counts = pd.concat([
                (tok_cand.assign(_c=split[0])
                 .sort_values(["n", "key"], ascending=[False, True])
                 .groupby("_c", sort=False).head(vocab_cap)
                 .drop(columns="_c")),
                counts[counts.kind == 1]], ignore_index=True)
        else:
            counts = counts[counts.kind.isin((0, 1))]
    else:
        counts = grouped.to_pandas()

    tok_rows = counts[counts.kind == 0]
    doc_rows = counts[counts.kind == 1]
    if len(tok_rows):
        split = tok_rows.key.str.split("\x1f", n=1, expand=True)
        cls_of = split[0].to_numpy(object)
        tok_of = split[1].to_numpy(object)
    else:
        # all-token-less corpus: split(expand=True) on an empty Series
        # yields a ZERO-column frame, so index it only when non-empty
        cls_of = np.array([], dtype=object)
        tok_of = np.array([], dtype=object)
    n_of = tok_rows.n.to_numpy(np.int64)
    classes = sorted(doc_rows.key.tolist())
    doc_n = dict(zip(doc_rows.key, doc_rows.n.astype(int)))
    if vocab_exact is not None:
        vocab = vocab_exact
    else:
        vocab = len(np.unique(tok_of)) if len(tok_of) else 0
    per_class = []
    for c in classes:
        m = cls_of == c
        h = md5_prefix_ints(tok_of[m], _HASH_HEX)
        order = np.argsort(h)
        tot = (int(tot_exact.get(c, 0)) if tot_exact is not None
               else int(n_of[m].sum()))
        per_class.append((h[order], n_of[m][order], tot))
    n_docs = int(sum(doc_n.values()))
    priors = np.array([doc_n[c] / n_docs for c in classes], np.float64)
    return ray.put((classes, per_class, priors, float(vocab)))


def _class_counts(h_sorted: np.ndarray, n: np.ndarray,
                  keys: np.ndarray) -> np.ndarray:
    """Counts for uint64 keys with MISSES AS ZERO — unlike lm._lookup,
    a token absent from a class's training rows is the normal case
    here and must hit the +1 smoothing floor, not a neighbor's
    count."""
    if not len(h_sorted):
        return np.zeros(len(keys), np.float64)
    idx = np.searchsorted(h_sorted, keys)
    ok = idx < len(h_sorted)
    out = np.zeros(len(keys), np.float64)
    sel = np.flatnonzero(ok)
    sel = sel[h_sorted[idx[sel]] == keys[sel]]
    out[sel] = n[idx[sel]]
    return out


def _nb_confusion(batch: pa.Table, model_ref) -> pa.Table:
    """The classify stage: (true_lang, pred_lang, n) counts of one
    batch under the broadcast model. A plain function stage that
    ray.gets the model ref itself (Ray Data does not resolve refs in
    fn_kwargs)."""
    import ray

    classes, per_class, priors, vocab = ray.get(model_ref)
    toks = _tokens(batch)
    flat = toks.flatten().to_numpy(zero_copy_only=False)
    parents = _list_parents(toks)
    n_rows = batch.num_rows
    if not len(flat) or not classes:
        return pa.table({"true_lang": pa.array([], pa.string()),
                         "pred_lang": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    # candidate classes = those with >= 1 training token: the
    # oracle's inner JOIN ctot drops token-less classes from the
    # candidate set entirely, so a class nobody could have trained
    # a likelihood for must never win the argmax here either
    cand = [ci for ci in range(len(classes)) if per_class[ci][2] > 0]
    if not cand:
        return pa.table({"true_lang": pa.array([], pa.string()),
                         "pred_lang": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    h = md5_prefix_ints(flat, _HASH_HEX)
    scores = np.empty((n_rows, len(cand)), np.float64)
    for k, ci in enumerate(cand):
        hc, nc, tot = per_class[ci]
        lp = np.log((_class_counts(hc, nc, h) + 1.0) / (tot + vocab))
        col = np.zeros(n_rows, np.float64)
        np.add.at(col, parents, lp)
        scores[:, k] = col + np.log(priors[ci])
    # rounded argmax, ties to the smallest class name (classes are
    # sorted, argmax keeps the first max) — the oracle's
    # (round6 DESC, cand ASC) row_number order
    pred = np.argmax(round6(scores), axis=1)
    ntok = np.zeros(n_rows, np.int64)
    np.add.at(ntok, parents, 1)
    keep = ntok > 0                     # token-less docs unscored
    labels = np.asarray(batch[NB_LABEL].to_pylist(), dtype=object)
    cand_names = np.array([classes[ci] for ci in cand], object)
    pair = labels[keep] + "\x1f" + cand_names[pred[keep]]
    up, nn = np.unique(pair, return_counts=True)
    tl = [p.split("\x1f", 1)[0] for p in up]
    pl = [p.split("\x1f", 1)[1] for p in up]
    return pa.table({
        "true_lang": pa.array(tl, pa.string()),
        "pred_lang": pa.array(pl, pa.string()),
        "n": pa.array(nn.astype(np.int64), pa.int64()),
    })


@fmt_doc(label=NB_LABEL)
def nb_lang_eval(sf_dir: str,
                 vocab_cap: int | None = None) -> pa.Table:
    """Multinomial-NB {label} classifier trained ON the corpus and
    evaluated against the labeled column: the confusion matrix
    (true_lang, pred_lang, n). Train = one counts pass + one groupby;
    classify = a plain function map over the broadcast model; the result
    aggregate is classes^2-cardinality. ``vocab_cap`` bounds the
    broadcast likelihood tables at cap tokens per class with exact
    smoothing scalars (see _train_nb; default None = exact model,
    the oracle contract)."""
    from ray.data.aggregate import Sum

    model_ref = _train_nb(sf_dir, vocab_cap=vocab_cap)
    agg = (_read_docs(sf_dir)
           .map_batches(_nb_confusion,
                        fn_kwargs={"model_ref": model_ref},
                        batch_format="pyarrow", zero_copy_batch=True)
           .groupby(["true_lang", "pred_lang"])
           .aggregate(Sum("n", alias_name="n"))).to_pandas()
    if "true_lang" not in agg.columns or not len(agg):
        return pa.table({"true_lang": pa.array([], pa.string()),
                         "pred_lang": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    agg = agg.sort_values(["true_lang", "pred_lang"],
                          ignore_index=True)
    return pa.table({
        "true_lang": pa.array(agg.true_lang.tolist(), pa.string()),
        "pred_lang": pa.array(agg.pred_lang.tolist(), pa.string()),
        "n": pa.array(agg.n.to_numpy(np.int64), pa.int64()),
    })


def sql_nb_lang_eval() -> str:
    return rf"""
WITH t AS (SELECT doc_id, {NB_LABEL} AS lang,
                  regexp_extract_all(lower(text), '\S+') AS toks
           FROM documents),
tok AS (SELECT doc_id, lang, unnest(toks) AS tok FROM t),
tf AS (SELECT doc_id, lang, tok, count(*)::BIGINT AS tf
       FROM tok GROUP BY 1, 2, 3),
cls AS (SELECT {NB_LABEL} AS lang, count(*)::DOUBLE AS nd
        FROM documents GROUP BY 1),
nn AS (SELECT count(*)::DOUBLE AS n FROM documents),
ctc AS (SELECT lang, tok, count(*)::BIGINT AS c FROM tok GROUP BY 1, 2),
ctot AS (SELECT lang, count(*)::BIGINT AS tot FROM tok GROUP BY 1),
v AS (SELECT count(DISTINCT tok)::DOUBLE AS v FROM tok),
scores AS (
  SELECT tf.doc_id, tf.lang AS true_lang, cand.lang AS cand,
         ln(cls.nd / nn.n)
         + sum(tf.tf * ln((coalesce(ctc.c, 0) + 1)
                          / (ctot.tot + v.v))) AS score
  FROM tf
  CROSS JOIN (SELECT DISTINCT {NB_LABEL} AS lang FROM documents) cand
  JOIN cls ON cls.lang = cand.lang
  JOIN ctot ON ctot.lang = cand.lang
  LEFT JOIN ctc ON ctc.lang = cand.lang AND ctc.tok = tf.tok
  CROSS JOIN nn CROSS JOIN v
  GROUP BY tf.doc_id, tf.lang, cand.lang, cls.nd, nn.n, ctot.tot, v.v
),
pred AS (
  SELECT doc_id, true_lang, cand AS pred_lang,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY round(score, 6) DESC, cand) AS rn
  FROM scores
)
SELECT true_lang, pred_lang, count(*)::BIGINT AS n
FROM pred WHERE rn = 1
GROUP BY 1, 2 ORDER BY 1, 2
"""


QUERIES = {
    "nb_lang_eval": nb_lang_eval,
}

ORACLE_SQL = {
    "nb_lang_eval": sql_nb_lang_eval(),
}
