"""classic_topk (Lucene ClassicSimilarity, the 4th scoring mode) and
decay_topk (ES function_score gauss length decay): adversarial-corpus
parity vs their DuckDB oracles, proof the decay applies BEFORE
truncation (a doc outside the raw BM25 top-k enters the decayed one
on a corpus sized past the per-part raw buffer), and the prune/mode
guards."""

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from raysearch.pipelines import search_queries as SQ


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype.kind == "f":
            df[c] = df[c].round(6)
    return df.sort_values(list(df.columns), ignore_index=True)


def _docs(tmp_path, texts):
    n = len(texts)
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "source": pa.array(["t"] * n, pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), os.path.join(tmp_path, "documents.parquet"))
    return str(tmp_path)


def _parity(sf, fn, sql):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    eng = _norm(fn(sf).to_pandas())
    ora = _norm(con.execute(sql).df())
    assert [str(t) for t in eng.dtypes] == [str(t) for t in ora.dtypes]
    pd.testing.assert_frame_equal(eng, ora, check_dtype=False,
                                  check_exact=False, rtol=0, atol=1e-6)
    return eng


ADVERSARIAL = [
    "hash join hash join hash",          # tf > 1 (sqrt curve vs linear)
    "  hash\tjoin  ",                    # edge/tab whitespace
    "",                                  # empty doc (no postings)
    "merge sort merge sort merge sort",
    "naïve café 日本語 join",             # unicode through \w+ lower
    "window " * 30,                      # high-tf doc (saturation split)
    "the a of and to in",                # stopword-ish, matches 'the'
    "dup dup dup row line dup",
    "spark plan scan filter agg",
    "vector column scan order " * 4,
]


def test_classic_adversarial_parity(ray_session, tmp_path):
    sf = _docs(tmp_path, ADVERSARIAL * 3)
    _parity(sf, SQ.classic_topk, SQ.sql_classic_topk())


def test_classic_differs_from_bm25(ray_session, tmp_path):
    """Same corpus, different similarity: classic has no tf
    saturation (sqrt grows unbounded) and squares the idf, so its
    score column must differ from BM25's — the mode switch is real,
    not a relabeled bm25."""
    sf = _docs(tmp_path, ADVERSARIAL * 3)
    cl = SQ.classic_topk(sf).to_pandas()
    bm = SQ.bm25_topk(sf).to_pandas()
    assert not np.allclose(
        cl.sort_values(["query_id", "rank"]).score.to_numpy(),
        bm.sort_values(["query_id", "rank"]).score.to_numpy())


def test_decay_adversarial_parity(ray_session, tmp_path):
    sf = _docs(tmp_path, ADVERSARIAL * 3)
    _parity(sf, SQ.decay_topk, SQ.sql_decay_topk())


def test_decay_past_buffer_entrance(ray_session, tmp_path):
    """45 'hash join' docs (dl=2, decay multiplier ~0.37) overfill the
    per-part raw buffer; one dl=50 doc (multiplier 1.0) with tf=10 per
    term ranks ~46th raw but FIRST decayed. Oracle parity on this
    corpus proves the engine multiplies before per-segment truncation;
    the explicit rank asserts pin the reorder."""
    filler = " ".join(["pad"] * 30)
    target = " ".join(["hash join"] * 10) + " " + filler  # dl = 50
    texts = ["hash join"] * 45 + [target]
    sf = _docs(tmp_path, texts)
    dec = _parity(sf, SQ.decay_topk, SQ.sql_decay_topk())
    q0 = dec[dec.query_id == 0].sort_values("rank")
    assert q0.iloc[0].doc_id == 45  # the dl-50 doc wins decayed
    bm = SQ.bm25_topk(sf).to_pandas()
    assert 45 not in set(bm[bm.query_id == 0].doc_id)  # outside raw top-k


def test_jm_adversarial_parity(ray_session, tmp_path):
    sf = _docs(tmp_path, ADVERSARIAL * 3)
    _parity(sf, SQ.jm_topk, SQ.sql_jm_topk())


def test_dfr_adversarial_parity(ray_session, tmp_path):
    sf = _docs(tmp_path, ADVERSARIAL * 3)
    _parity(sf, SQ.dfr_topk, SQ.sql_dfr_topk())


def test_boolean_adversarial_parity(ray_session, tmp_path):
    """BooleanSimilarity is tie-dense by construction (integer
    coordination counts over a tiny query vocabulary) — the
    (-score, doc_id) total order must hold engine == oracle across
    the tie blocks."""
    sf = _docs(tmp_path, ADVERSARIAL * 3)
    eng = _parity(sf, SQ.boolean_topk, SQ.sql_boolean_topk())
    assert str(eng.score.dtype).startswith("int")  # frequency-blind


def test_dfi_adversarial_parity(ray_session, tmp_path):
    sf = _docs(tmp_path, ADVERSARIAL * 3)
    _parity(sf, SQ.dfi_topk, SQ.sql_dfi_topk())


def test_dfi_under_expectation_is_zero(ray_session, tmp_path):
    """The DFI threshold does real work: a corpus saturated with
    'hash' makes a single occurrence in a long doc fall BELOW its
    independence expectation (e = (cf+1)*dl/(C+1) > 1), so that doc
    scores 0 while a short doc with the same tf scores > 0 — raw tf
    equal, divergence different."""
    filler = " ".join(["hash"] * 30)
    # 9 candidates total, so BOTH probe docs stay inside top-10
    texts = [filler] * 7 + ["hash " + " ".join(["pad"] * 60)] + ["hash"]
    sf = _docs(tmp_path, texts)
    got = _parity(sf, SQ.dfi_topk, SQ.sql_dfi_topk())
    q0 = got[got.query_id == 0]
    scores = dict(zip(q0.doc_id, q0.score))
    assert scores[8] > 0                  # short doc: tf=1 above e
    assert scores[7] == 0                 # long doc: tf=1 below e


def test_axiomatic_adversarial_parity(ray_session, tmp_path):
    sf = _docs(tmp_path, ADVERSARIAL * 3)
    _parity(sf, SQ.axiomatic_topk, SQ.sql_axiomatic_topk())


def test_axiomatic_differs_from_bm25(ray_session, tmp_path):
    """Different tf saturation and idf curve: the score columns must
    not coincide with BM25 on the same corpus."""
    sf = _docs(tmp_path, ADVERSARIAL * 3)
    ax = SQ.axiomatic_topk(sf).to_pandas()
    bm = SQ.bm25_topk(sf).to_pandas()
    assert not np.allclose(
        ax.sort_values(["query_id", "rank"]).score.to_numpy(),
        bm.sort_values(["query_id", "rank"]).score.to_numpy())


def test_jm_differs_from_dirichlet(ray_session, tmp_path):
    """Same query-likelihood family, different smoothing: the two
    modes must not produce identical score columns."""
    sf = _docs(tmp_path, ADVERSARIAL * 3)
    jm = SQ.jm_topk(sf).to_pandas()
    di = SQ.dirichlet_topk(sf).to_pandas()
    assert not np.allclose(
        jm.sort_values(["query_id", "rank"]).score.to_numpy(),
        di.sort_values(["query_id", "rank"]).score.to_numpy())


def test_reshaping_knobs_reject_nonpositive_values(ray_session, tmp_path):
    """decay's scale and rank_feature's w and pivot must be > 0 in the
    library, not only the CLI: scale 0 divides by zero (scores 0 or
    NaN, still ranked), w <= 0 inverts or erases the prior and pivot
    <= 0 breaks the saturation curve."""
    sf = _docs(tmp_path, ADVERSARIAL)
    idx = SQ.cached_index(sf)
    from raysearch.query import query_index

    for scale in (0.0, -40.0, float("nan")):
        with pytest.raises(ValueError, match="decay scale must be > 0"):
            query_index(idx, ["hash join"], decay=(50.0, scale))
    for rf in ((0.0, 50.0), (-2.0, 50.0), (2.0, 0.0), (2.0, -1.0)):
        with pytest.raises(ValueError,
                           match="rank_feature w and pivot must be > 0"):
            query_index(idx, ["hash join"], rank_feature=rf)


def test_mode_guards(ray_session, tmp_path):
    sf = _docs(tmp_path, ADVERSARIAL)
    idx = SQ.cached_index(sf)
    from raysearch.query import query_index

    with pytest.raises(ValueError, match="classic"):
        query_index(idx, ["hash join"], mode="classic", prune=True)
    with pytest.raises(ValueError, match="jm"):
        query_index(idx, ["hash join"], mode="jm", prune=True)
    with pytest.raises(ValueError, match="dfi"):
        query_index(idx, ["hash join"], mode="dfi", prune=True)
    with pytest.raises(ValueError, match="decay"):
        query_index(idx, ["hash join"], mode="overlap",
                    decay=(50.0, 40.0))
    with pytest.raises(ValueError, match="decay"):
        query_index(idx, ["hash join"], mode="bm25", prune=True,
                    decay=(50.0, 40.0))
    # dirichlet has no MaxScore bounds: prune is refused, not ignored
    with pytest.raises(ValueError, match="dirichlet"):
        query_index(idx, ["hash join"], mode="dirichlet", prune=True)
    with pytest.raises(ValueError, match="unknown mode 'bm52'"):
        query_index(idx, ["hash join"], mode="bm52")
