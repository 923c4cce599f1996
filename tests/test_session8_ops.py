"""matrix_stats / rare_bigrams: adversarial-corpus oracle parity and
structural pins (moment exactness vs numpy, zero-variance and n=1
edges, cap semantics). Fixture-SF value parity is in test_entry_parity."""

import os
import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF = "/root/testdata/sf0.001"


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif df[c].dtype.kind == "f":
            df[c] = df[c].round(6)
    return df.sort_values(list(df.columns), ignore_index=True)


def _write_lineitem(tmp_path, qty, price, disc):
    n = len(qty)
    pq.write_table(pa.table({
        "l_quantity": pa.array(np.asarray(qty, np.float64)),
        "l_extendedprice": pa.array(np.asarray(price, np.float64)),
        "l_discount": pa.array(np.asarray(disc, np.float64)),
        "l_returnflag": pa.array(["N"] * n, pa.string()),
    }), os.path.join(tmp_path, "lineitem.parquet"))
    return str(tmp_path)


def _duck(sf, table):
    import duckdb

    con = duckdb.connect()
    con.execute(f"CREATE VIEW {table} AS SELECT * FROM "
                f"read_parquet('{sf}/{table}.parquet')")
    return con


def test_matrix_stats_adversarial_parity(ray_session, tmp_path):
    # constant discount (zero variance -> corr 0 on its pairs),
    # half-cent rounding boundaries, negative-correlation pair
    from raysearch.pipelines import stats as ST

    sf = _write_lineitem(
        tmp_path,
        qty=[1, 2, 3, 4, 5, 6, 7, 8],
        price=[80.005, 70.015, 60.0, 50.555, 40.004, 30.0, 20.5, 10.995],
        disc=[0.05] * 8)
    con = _duck(sf, "lineitem")
    eng = ST.matrix_stats(sf).to_pandas()
    ora = con.execute(ST.sql_matrix_stats()).df()
    pd.testing.assert_frame_equal(_norm(eng), _norm(ora),
                                  check_dtype=False)
    m = {(r.col_x, r.col_y): r for r in eng.itertuples()}
    assert m[("disc", "disc")].corr == 0.0       # zero variance
    assert m[("disc", "disc")].covar == 0.0
    assert m[("qty", "qty")].corr == 1.0         # diagonal
    assert m[("cents", "qty")].corr < -0.99      # engineered anti-corr


def test_matrix_stats_single_row_has_null_covar(ray_session, tmp_path):
    from raysearch.pipelines import stats as ST

    sf = _write_lineitem(tmp_path, [3], [10.0], [0.01])
    con = _duck(sf, "lineitem")
    eng = ST.matrix_stats(sf).to_pandas()
    ora = con.execute(ST.sql_matrix_stats()).df()
    pd.testing.assert_frame_equal(_norm(eng), _norm(ora),
                                  check_dtype=False)
    assert eng.covar.isna().all()
    assert (eng.n_rows == 1).all()


def test_matrix_stats_matches_numpy(ray_session):
    # the exact integer-moment finish must agree with numpy's float
    # covariance/correlation on the rounded integer columns
    from raysearch.pipelines.joins import _cents, _half_away
    from raysearch.pipelines.stats import matrix_stats

    eng = matrix_stats(SF).to_pandas()
    li = pq.read_table(os.path.join(SF, "lineitem.parquet"),
                       columns=["l_quantity", "l_extendedprice",
                                "l_discount"]).to_pandas()
    cols = {
        "qty": _half_away(li.l_quantity.to_numpy(np.float64)),
        "cents": _cents(li.l_extendedprice.to_numpy(np.float64)),
        "disc": _cents(li.l_discount.to_numpy(np.float64)),
    }
    assert len(eng) == 6
    for r in eng.itertuples():
        x, y = cols[r.col_x], cols[r.col_y]
        assert r.n_rows == len(x)
        # round6 quantum + relative slack for large magnitudes
        tol = lambda v: 5e-7 + 1e-9 * abs(v)
        assert abs(r.mean_x - x.mean()) <= tol(x.mean())
        cov = np.cov(x, y, ddof=1)[0, 1]
        assert abs(r.covar - cov) <= tol(cov)
        cr = np.corrcoef(x, y)[0, 1]
        assert abs(r.corr - cr) <= tol(cr)


def _write_docs(tmp_path, texts):
    n = len(texts)
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "source": pa.array(["t"] * n, pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), os.path.join(tmp_path, "documents.parquet"))
    return str(tmp_path)


def test_rare_bigrams_adversarial_parity_and_cap(ray_session, tmp_path):
    # 60 unique rare bigrams (> RB_K: the cap must bite), an
    # intra-doc repeated bigram (df still 1), a df=2 pair, a hot
    # bigram (df > RB_MAX_DF: excluded), tabs, empty and
    # single-token docs
    from raysearch.pipelines import aggx as AX

    texts = ([f"u{i:02d}a u{i:02d}b" for i in range(60)]
             + ["rep rep rep rep",              # bigram 'rep rep' df=1
                "pair\tmate extra",             # tab whitespace
                "pair mate other",              # 'pair mate' df=2
                "solo", ""]                     # no bigrams
             + ["hot bigram filler"] * 5)       # df=5 -> excluded
    sf = _write_docs(tmp_path, texts)
    con = _duck(sf, "documents")
    eng = AX.QUERIES["rare_bigrams"](sf).to_pandas()
    ora = con.execute(AX.ORACLE_SQL["rare_bigrams"]).df()
    pd.testing.assert_frame_equal(_norm(eng), _norm(ora),
                                  check_dtype=False)
    assert len(eng) == AX.RB_K                  # cap bites
    assert (eng.df <= AX.RB_MAX_DF).all()
    assert "hot bigram" not in set(eng.bigram)
    got = dict(zip(eng.bigram, eng.df))
    assert got.get("rep rep") == 1              # intra-doc repeats: 1 doc
    # cap ORDER pin: 63 df=1 rows exist, so the df=2 'pair mate' row
    # (which sorts after every df=1 row under (df, bigram)) must be
    # cut by the K=50 cap even though it satisfies the rare filter
    assert "pair mate" not in got
    assert (eng.df == 1).all()
    assert eng.df.is_monotonic_increasing
    assert eng.bigram.is_monotonic_increasing   # (df, bigram) order


def test_rare_bigrams_exact_at_fixture(ray_session):
    # brute-force truth over sf0.001
    from raysearch.pipelines.aggx import RB_K, RB_MAX_DF, rare_bigrams

    res = rare_bigrams(SF).to_pandas()
    docs = pq.read_table(os.path.join(SF, "documents.parquet"),
                         columns=["doc_id", "text"]).to_pandas()
    from collections import Counter
    c: Counter = Counter()
    for r in docs.itertuples():
        t = r.text.lower().split()
        c.update({f"{a} {b}" for a, b in zip(t, t[1:])})
    want = sorted(((n, b) for b, n in c.items() if n <= RB_MAX_DF))
    want = want[:RB_K]
    got = list(zip(res.df, res.bigram))
    assert got == want
    assert len(got) > 0


def test_demote_scores_are_exact_halves(ray_session):
    # every result doc containing its query's negative term scores
    # exactly 0.5x its plain BM25 score; clean docs keep the exact
    # score; and the demotion genuinely reshapes some ranking
    from raysearch.pipelines.rankex import (DEMOTE_FACTOR, NEG_TERMS,
                                            demote_topk)
    from raysearch.pipelines.search_queries import (cached_index,
                                                    topk_rounded_for_index)
    from raysearch.numutil import round6

    dm = demote_topk(SF).to_pandas()
    deep = topk_rounded_for_index(cached_index(SF), "bm25",
                                  rank_hi=500, buffer=600).to_pandas()
    full = {(q, d): s for q, d, s in zip(deep.query_id, deep.doc_id,
                                         deep.score)}
    docs = pq.read_table(os.path.join(SF, "documents.parquet"),
                         columns=["doc_id", "text"]).to_pandas()
    toks = {int(r.doc_id): set(r.text.lower().split())
            for r in docs.itertuples()}
    assert len(dm) > 0
    n_demoted = 0
    for q, d, s in zip(dm.query_id, dm.doc_id, dm.score):
        if NEG_TERMS[q] in toks[d]:
            n_demoted += 1
            # rounded(0.5 * raw) vs 0.5 * rounded: both within one
            # round6 quantum of each other
            assert abs(s - DEMOTE_FACTOR * full[(q, d)]) <= 1e-6
        else:
            assert s == full[(q, d)]
    assert n_demoted > 0  # demoted docs still appear (vs MUST_NOT)


def test_adjacency_matrix_brute_force(ray_session, tmp_path):
    # truth over an adversarial corpus: multiline co-occurrence,
    # substring traps, empty docs; empty intersections omitted
    import duckdb

    from raysearch.pipelines import aggx as AX

    texts = ["hash join",                  # hash, join, hash&join
             "hash\nsort end",             # multiline co-occurrence
             "hashes joins",               # substrings: no match
             "merge sort merge",           # repeats count once
             "", "plain doc"] * 2
    sf = _write_docs(tmp_path, texts)
    con = _duck(sf, "documents")
    eng = AX.QUERIES["adjacency_matrix"](sf).to_pandas()
    ora = con.execute(AX.ORACLE_SQL["adjacency_matrix"]).df()
    pd.testing.assert_frame_equal(_norm(eng), _norm(ora),
                                  check_dtype=False)
    got = dict(zip(eng.key, eng.doc_count))
    assert got == {"hash": 4, "join": 2, "merge": 2, "sort": 4,
                   "hash&join": 2, "hash&sort": 2, "merge&sort": 2}
    # empty intersections (e.g. join&merge) are omitted, ES-style
    assert "join&merge" not in got


def test_events_pipeline_agg_structure(ray_session, tmp_path):
    # day-gapped adversarial stream: derivative uses ADJACENT EXISTING
    # buckets (ES rule), first bucket NULL; cumsum and trailing
    # moving_avg brute-forced
    import duckdb

    from raysearch.pipelines import events as EV

    days = [0, 0, 0, 1, 1, 5, 5, 5, 5, 9]   # gaps at 1->5 and 5->9
    ts = (np.asarray(days, np.int64) * 86_400_000_000
          + np.arange(len(days)) * 1_000_000)
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(len(ts), dtype=np.int64)),
        "ts": pa.array(ts.astype("datetime64[us]"), pa.timestamp("us")),
        "user_id": pa.array(np.zeros(len(ts), np.int64)),
        "event_type": pa.array(["click"] * len(ts), pa.string()),
        "value": pa.array(np.ones(len(ts)), pa.float64()),
    }), os.path.join(tmp_path, "events.parquet"))
    sf = str(tmp_path)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    eng = EV.events_pipeline_agg(sf).to_pandas()
    ora = con.execute(EV.sql_events_pipeline_agg()).df()
    pd.testing.assert_frame_equal(_norm(eng), _norm(ora),
                                  check_dtype=False)
    assert eng.n_events.tolist() == [3, 2, 4, 1]
    assert pd.isna(eng.derivative.iloc[0])
    assert eng.derivative.iloc[1:].tolist() == [-1, 2, -3]
    assert eng.cum_events.tolist() == [3, 5, 9, 10]
    assert eng.moving_avg.tolist() == [3.0, 2.5, 3.0, round(7 / 3, 6)]


def test_rank_feature_blend_is_exact(ray_session):
    # every result score equals the deep plain-BM25 score plus the
    # exact saturation prior (within a round6 quantum), and the blend
    # genuinely reorders vs plain BM25
    from raysearch.pipelines.search_queries import (RF_PIVOT, RF_W,
                                                    bm25_topk,
                                                    cached_index,
                                                    rank_feature_topk,
                                                    topk_rounded_for_index)

    rf = rank_feature_topk(SF).to_pandas()
    deep = topk_rounded_for_index(cached_index(SF), "bm25",
                                  rank_hi=500, buffer=600).to_pandas()
    full = {(q, d): s for q, d, s in zip(deep.query_id, deep.doc_id,
                                         deep.score)}
    docs = pq.read_table(os.path.join(SF, "documents.parquet"),
                         columns=["doc_id", "text"]).to_pandas()
    dl = {int(r.doc_id): len(r.text.split()) for r in docs.itertuples()}
    assert len(rf) > 0
    for q, d, s in zip(rf.query_id, rf.doc_id, rf.score):
        prior = RF_W * (dl[d] / (dl[d] + RF_PIVOT))
        assert abs(s - (full[(q, d)] + prior)) <= 2e-6, (q, d)
    bm = bm25_topk(SF).to_pandas()
    assert (set(zip(rf.query_id, rf.doc_id, rf["rank"]))
            != set(zip(bm.query_id, bm.doc_id, bm["rank"])))


def test_rank_feature_guards(ray_session):
    from raysearch.pipelines.search_queries import cached_index
    from raysearch.query import query_index

    idx = cached_index(SF)
    with pytest.raises(ValueError, match="rank_feature"):
        query_index(idx, ["hash join"], mode="bm25", prune=True,
                    rank_feature=(2.0, 50.0))
    with pytest.raises(ValueError, match="rank_feature"):
        query_index(idx, ["hash join"], mode="overlap",
                    rank_feature=(2.0, 50.0))


def test_composite_agg_page_window(ray_session, tmp_path):
    # >2 pages of buckets: parity + the page-2 window under the
    # composite key order, single-doc buckets included
    import duckdb

    from raysearch.pipelines import aggx as AX

    texts, langs, sources = [], [], []
    for li in range(5):
        for si in range(5):
            for k in range(li + 1):       # varying bucket sizes
                texts.append(f"doc l{li} s{si} {k}")
                langs.append(f"l{li}")
                sources.append(f"s{si}")
    n = len(texts)
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
        "source": pa.array(sources, pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), os.path.join(tmp_path, "documents.parquet"))
    sf = str(tmp_path)
    con = _duck(sf, "documents")
    eng = AX.QUERIES["composite_agg"](sf).to_pandas()
    ora = con.execute(AX.ORACLE_SQL["composite_agg"]).df()
    pd.testing.assert_frame_equal(_norm(eng), _norm(ora),
                                  check_dtype=False)
    # 25 buckets exist (l0..l4 x s0..s4, sizes 1..5): page 2 under
    # (lang, source) is buckets 9..16 = l1s3..l3s0
    assert len(eng) == AX.CA_SIZE
    assert list(zip(eng.lang, eng.source))[0] == ("l1", "s3")
    assert list(zip(eng.lang, eng.source))[-1] == ("l3", "s0")
    assert (eng.n_docs == [2, 2, 3, 3, 3, 3, 3, 4]).all()


def test_percentile_ranks_boundary_inclusive(ray_session, tmp_path):
    # values exactly AT a probe count as <= (the ES contract);
    # brute-force percentages
    import duckdb

    from raysearch.pipelines import events as EV

    vals = [10.0, 50.0, 50.0, 75.0, 100.0, 150.0, 200.0, 250.0]
    n = len(vals)
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(np.arange(n, dtype=np.int64)
                       .astype("datetime64[us]"), pa.timestamp("us")),
        "user_id": pa.array(np.zeros(n, np.int64)),
        "event_type": pa.array(["click"] * n, pa.string()),
        "value": pa.array(np.asarray(vals, np.float64), pa.float64()),
    }), os.path.join(tmp_path, "events.parquet"))
    sf = str(tmp_path)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    eng = EV.percentile_ranks(sf).to_pandas()
    ora = con.execute(EV.sql_percentile_ranks()).df()
    pd.testing.assert_frame_equal(_norm(eng), _norm(ora),
                                  check_dtype=False)
    got = dict(zip(eng.value, eng.n_le))
    assert got == {50.0: 3, 100.0: 5, 200.0: 7}  # boundaries inclusive
    assert dict(zip(eng.value, eng.pct))[50.0] == round(100.0 * 3 / 8, 6)


def test_ann_range_complete_and_bounded(ray_session):
    # brute-force: the result is EXACTLY the set of pairs with
    # round6 cosine >= the floor, self-matches included
    from raysearch.numutil import round6
    from raysearch.pipelines.similarity import (ANN_RANGE_MIN,
                                                N_QUERY_VECS,
                                                ann_range)

    res = ann_range(SF).to_pandas()
    emb = pq.read_table(os.path.join(SF, "embeddings.parquet"),
                        columns=["vec_id", "embedding"]).to_pandas()
    ids = emb.vec_id.to_numpy(np.int64)
    mat = np.stack(emb.embedding.to_numpy())
    matn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    want = set()
    for q in range(N_QUERY_VECS):
        qv = matn[ids == q][0]
        cos = round6(matn @ qv)
        for v in ids[cos >= ANN_RANGE_MIN]:
            want.add((q, int(v)))
    assert set(zip(res.query_vec_id, res.vec_id)) == want
    assert (res.cos >= ANN_RANGE_MIN).all()
    # every query's self-match (cos 1.0) is rank 1
    r1 = res[res["rank"] == 1]
    assert set(zip(r1.query_vec_id, r1.vec_id)) == \
        {(q, q) for q in range(N_QUERY_VECS)}


def test_value_ttest_brute_force(ray_session, tmp_path):
    # engineered two-group stream with known moments; parity +
    # hand-computed Welch t/dof on the cent-rounded values
    import duckdb

    from raysearch.pipelines import stats as ST

    vals = {"purchase": [10.0, 12.0, 14.0, 16.0, 18.0],
            "click": [10.005, 11.0, 12.0, 13.0, 13.995, 15.0]}
    types, vs = [], []
    for t, xs in vals.items():
        types += [t] * len(xs)
        vs += xs
    types += ["error"] * 3          # excluded group
    vs += [999.0] * 3
    n = len(vs)
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(np.arange(n, dtype=np.int64)
                       .astype("datetime64[us]"), pa.timestamp("us")),
        "user_id": pa.array(np.zeros(n, np.int64)),
        "event_type": pa.array(types, pa.string()),
        "value": pa.array(np.asarray(vs, np.float64), pa.float64()),
    }), os.path.join(tmp_path, "events.parquet"))
    sf = str(tmp_path)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    eng = ST.value_ttest(sf).to_pandas()
    ora = con.execute(ST.sql_value_ttest()).df()
    pd.testing.assert_frame_equal(_norm(eng), _norm(ora),
                                  check_dtype=False)
    x = np.round(np.array(vals["purchase"]) * 100)
    y = np.round(np.array(vals["click"]) * 100)
    ax = x.var(ddof=1) / len(x)
    ay = y.var(ddof=1) / len(y)
    t = (x.mean() - y.mean()) / np.sqrt(ax + ay)
    dof = (ax + ay) ** 2 / (ax**2 / (len(x) - 1) + ay**2 / (len(y) - 1))
    r = eng.iloc[0]
    assert r.n_x == 5 and r.n_y == 6   # 'error' rows excluded
    assert abs(r.t_stat - t) <= 1e-5
    assert abs(r.dof - dof) <= 1e-5


def test_string_stats_brute_force(ray_session, tmp_path):
    # unicode sources, single-char and long values; exact entropy
    import duckdb
    from collections import Counter

    from raysearch.pipelines import aggx as AX

    sources = ["αβ", "a", "aaab", "srcX", "srcX", "日本"] * 2
    n = len(sources)
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(["t"] * n, pa.string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "source": pa.array(sources, pa.string()),
        "n_chars": pa.array([1] * n, pa.int64()),
    }), os.path.join(tmp_path, "documents.parquet"))
    sf = str(tmp_path)
    con = _duck(sf, "documents")
    eng = AX.QUERIES["string_stats"](sf).to_pandas()
    ora = con.execute(AX.ORACLE_SQL["string_stats"]).df()
    pd.testing.assert_frame_equal(_norm(eng), _norm(ora),
                                  check_dtype=False)
    r = eng.iloc[0]
    assert (r.n_values, r.min_len, r.max_len) == (n, 1, 4)
    c = Counter("".join(sources))
    tot = sum(c.values())
    ent = -sum((v / tot) * np.log2(v / tot) for v in c.values())
    assert abs(r.entropy - ent) <= 1e-5
    assert abs(r.avg_len - np.mean([len(s) for s in sources])) <= 1e-6


def test_blockjoin_sum_vs_deep_passages(ray_session):
    # brute-force: a parent's blockjoin score equals the sum of BM25
    # over its passages (deep passage-level query); sum >= max pins
    # the ScoreMode.Total vs ScoreMode.Max relation
    from raysearch.numutil import round6
    from raysearch.pipelines.rankex import (PASSAGE_STRIDE,
                                            blockjoin_topk,
                                            cached_passage_index,
                                            maxp_topk)
    from raysearch.pipelines.search_queries import DOC_QUERIES
    from raysearch.query import query_index

    bj = blockjoin_topk(SF).to_pandas()
    raw = query_index(cached_passage_index(SF), DOC_QUERIES,
                      k=100_000).to_pandas()
    raw["parent"] = raw.doc_id // PASSAGE_STRIDE
    tot = raw.groupby(["query_id", "parent"]).score.sum().to_dict()
    assert len(bj) > 0
    for q, d, s in zip(bj.query_id, bj.doc_id, bj.score):
        assert abs(s - float(round6(np.float64(tot[(q, d)])))) <= 1e-6
    mx = maxp_topk(SF).to_pandas()
    mxmap = {(q, d): s for q, d, s in zip(mx.query_id, mx.doc_id,
                                          mx.score)}
    hits = 0
    for q, d, s in zip(bj.query_id, bj.doc_id, bj.score):
        if (q, d) in mxmap:
            assert s >= mxmap[(q, d)] - 1e-6
            hits += 1
    assert hits > 0


def test_phrase_prefix_brute_force(ray_session):
    # text-derived truth at sf0.001: tf = count of first-term
    # positions whose successor extends the prefix
    from raysearch.pipelines.search_queries import (
        PHRASE_PREFIX_QUERIES, TOPK, phrase_prefix_topk)

    res = phrase_prefix_topk(SF).to_pandas()
    docs = pq.read_table(os.path.join(SF, "documents.parquet"),
                         columns=["doc_id", "text"]).to_pandas()
    rows = []
    for r in docs.itertuples():
        toks = r.text.lower().split()
        for pid, (first, pre) in enumerate(PHRASE_PREFIX_QUERIES):
            tf = sum(1 for i in range(len(toks) - 1)
                     if toks[i] == first and toks[i + 1].startswith(pre))
            if tf:
                rows.append((pid, int(r.doc_id), tf))
    want = pd.DataFrame(rows, columns=["phrase_id", "doc_id", "tf"])
    want = want.sort_values(["phrase_id", "tf", "doc_id"],
                            ascending=[True, False, True],
                            ignore_index=True)
    want["rank"] = want.groupby("phrase_id").cumcount() + 1
    want = want[want["rank"] <= TOPK]
    got = res.sort_values(["phrase_id", "rank"], ignore_index=True)
    pd.testing.assert_frame_equal(
        got, want[["phrase_id", "doc_id", "rank", "tf"]]
        .reset_index(drop=True), check_dtype=False)
    assert 4 not in set(got.phrase_id)       # ('dup','zz') misses
    assert len(got) > 0


def test_phrase_prefix_adversarial(ray_session, tmp_path):
    # self-extension ('batch batch'), prefix at doc end (no
    # successor), exact-term-as-prefix, multiline adjacency
    import duckdb

    from raysearch.pipelines import search_queries as SQ

    texts = ["batch batch end",        # self-extension matches
             "batch",                  # no successor: no match
             "the sort\nthe scan",     # newline splits tokens; 2 hits
             "hash join hash jolt",    # exact + extension: tf 2
             "query m",                # bare prefix char as token
             "the the s"] * 2
    sf = _write_docs(tmp_path, texts)
    con = _duck(sf, "documents")
    eng = SQ.phrase_prefix_topk(sf).to_pandas()
    ora = con.execute(SQ.sql_phrase_prefix_topk()).df()
    pd.testing.assert_frame_equal(_norm(eng), _norm(ora),
                                  check_dtype=False)
    tfm = {(p, d % 6): t for p, d, t in zip(eng.phrase_id, eng.doc_id,
                                            eng.tf)}
    assert tfm.get((0, 0)) == 1        # 'batch batch'
    assert (0, 1) not in tfm           # bare 'batch', no successor
    assert tfm.get((1, 2)) == 2        # 'the sort' + 'the scan'
    assert tfm.get((2, 3)) == 2        # 'hash join' + 'hash jolt'
    assert tfm.get((3, 4)) == 1        # 'query m' ('m' extends 'm')
    assert tfm.get((1, 5)) == 1        # 'the s': only the second 'the'


def test_hybrid_minmax_structure_and_constant_list(ray_session,
                                                   tmp_path):
    # fixture run: scores bounded by w_text + w_vec, rank-1 per query
    # present; adversarial run: a constant BM25 top-k list (identical
    # docs) must normalize to 1.0 (presence-is-evidence), parity held
    import duckdb

    from raysearch.pipelines import search_queries as SQ
    from raysearch.pipelines.similarity import N_QUERY_VECS

    hm = SQ.hybrid_minmax_topk(SF).to_pandas()
    assert set(hm.query_id) == set(range(N_QUERY_VECS))
    assert (hm.score <= SQ.HY_W_TEXT + SQ.HY_W_VEC + 1e-9).all()
    assert (hm.score >= 0).all()

    # adversarial: identical docs -> every per-query BM25 top-k score
    # equal -> constant-list branch; embeddings engineered so vec 7
    # is closest to query vec 0
    texts = ["hash join merge sort"] * 30
    sf = _write_docs(tmp_path, texts)
    rng = np.random.RandomState(7)
    vecs = rng.randn(30, 8).astype(np.float32)
    vecs[7] = vecs[0] * 0.9 + 0.1 * rng.randn(8).astype(np.float32)
    pq.write_table(pa.table({
        "vec_id": pa.array(np.arange(30, dtype=np.int64)),
        "embedding": pa.array([v.tolist() for v in vecs],
                              pa.list_(pa.float32())),
        "label": pa.array(np.zeros(30, np.int32), pa.int32()),
    }), os.path.join(sf, "embeddings.parquet"))
    con = duckdb.connect()
    for t in ("documents", "embeddings"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    eng = SQ.hybrid_minmax_topk(sf).to_pandas()
    ora = con.execute(SQ.sql_hybrid_minmax_topk()).df()
    pd.testing.assert_frame_equal(_norm(eng), _norm(ora),
                                  check_dtype=False)
    # constant-list branch: every doc in a query's BM25 top-k carries
    # nb = 1.0, so fused scores of text-hits differ only by vector
    # contribution; the BM25-and-vector doc must outrank BM25-only
    q0 = eng[eng.query_id == 0]
    assert len(q0) > 0
    assert q0.score.max() <= 1.0 + 1e-9


def test_top_metrics_tie_and_parity(ray_session, tmp_path):
    # two events share the max ts for one type: the higher event_id
    # wins (the (ts, event_id) total order); parity on the fixture
    import duckdb

    from raysearch.pipelines import events as EV

    n = 6
    ts = np.array([100, 200, 200, 50, 60, 10], np.int64)
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(ts.astype("datetime64[us]"), pa.timestamp("us")),
        "user_id": pa.array(np.zeros(n, np.int64)),
        "event_type": pa.array(["click", "click", "click",
                                "buy", "buy", "err"], pa.string()),
        "value": pa.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                          pa.float64()),
    }), os.path.join(tmp_path, "events.parquet"))
    sf = str(tmp_path)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    eng = EV.top_metrics(sf).to_pandas()
    ora = con.execute(EV.sql_top_metrics()).df()
    pd.testing.assert_frame_equal(_norm(eng), _norm(ora),
                                  check_dtype=False)
    got = dict(zip(eng.event_type, eng.value))
    assert got == {"click": 3.0, "buy": 5.0, "err": 6.0}


def test_ipc_roundtrip_adversarial(ray_session, tmp_path):
    # unicode, empty text, embedded newlines/quotes survive the
    # Arrow IPC write -> read_binary_files -> pyarrow.ipc decode path
    import duckdb

    from raysearch.pipelines import io_formats as IO

    texts = ["naïve café 日本語", "", "line1\nline2", 'quote " comma ,',
             "\ttab edge ", "plain text"] * 3
    sf = _write_docs(tmp_path, texts)
    con = _duck(sf, "documents")
    eng = IO.QUERIES["ipc_roundtrip"](sf).to_pandas()
    ora = con.execute(IO.ORACLE_SQL["ipc_roundtrip"]).df()
    pd.testing.assert_frame_equal(_norm(eng), _norm(ora),
                                  check_dtype=False)
    assert len(eng) == len(texts)


def test_split_oov_rate_brute_force(ray_session):
    # exact truth at sf0.001: per lang, valid-split bigrams absent
    # from the train-split bigram vocabulary
    from raysearch.pipelines.lm import split_oov_rate

    res = split_oov_rate(SF).to_pandas()
    docs = pq.read_table(os.path.join(SF, "documents.parquet"),
                         columns=["doc_id", "lang", "text"]).to_pandas()
    train, valid = set(), []
    for r in docs.itertuples():
        t = r.text.lower().split()
        bgs = [f"{a} {b}" for a, b in zip(t, t[1:])]
        if r.doc_id % 2 == 0:
            train.update(bgs)
        else:
            valid.extend((r.lang, b) for b in bgs)
    want = {}
    for lang, b in valid:
        n, o = want.get(lang, (0, 0))
        want[lang] = (n + 1, o + (b not in train))
    got = {r.lang: (r.n_bigrams, r.n_oov) for r in res.itertuples()}
    assert got == want
    assert res.n_oov.sum() > 0           # the audit is non-trivial
    for r in res.itertuples():
        assert r.oov_rate == round(r.n_oov / max(r.n_bigrams, 1), 6)


def test_pool_depth_k_structure(ray_session):
    # pool = union of the three systems' lists; n_systems counts
    # exact membership; at least one doc is found by all three and
    # at least one by exactly one (system diversity is real)
    from raysearch.pipelines.search_queries import (bm25_topk,
                                                    classic_topk,
                                                    dirichlet_topk)
    from raysearch.pipelines.spanex import pool_depth_k

    pool = pool_depth_k(SF).to_pandas()
    lists = {n: set(zip(f(SF).to_pandas().query_id,
                        f(SF).to_pandas().doc_id))
             for n, f in (("b", bm25_topk), ("d", dirichlet_topk),
                          ("c", classic_topk))}
    union = lists["b"] | lists["d"] | lists["c"]
    assert set(zip(pool.query_id, pool.doc_id)) == union
    for r in pool.itertuples():
        truth = sum((r.query_id, r.doc_id) in s for s in lists.values())
        assert r.n_systems == truth
    assert (pool.n_systems == 3).any()
    assert (pool.n_systems == 1).any()


def test_string_stats_all_empty_sources(ray_session, tmp_path):
    # review fix: an all-empty-source corpus must not crash the
    # partial (k=0 alphabet) and entropy must be NULL on both sides
    import duckdb

    n = 4
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(["t"] * n, pa.string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "source": pa.array([""] * n, pa.string()),
        "n_chars": pa.array([1] * n, pa.int64()),
    }), os.path.join(tmp_path, "documents.parquet"))
    sf = str(tmp_path)
    from raysearch.pipelines import aggx as AX

    con = _duck(sf, "documents")
    eng = AX.QUERIES["string_stats"](sf).to_pandas()
    ora = con.execute(AX.ORACLE_SQL["string_stats"]).df()
    pd.testing.assert_frame_equal(_norm(eng), _norm(ora),
                                  check_dtype=False)
    r = eng.iloc[0]
    assert (r.n_values, r.min_len, r.max_len, r.avg_len) == (n, 0, 0,
                                                             0.0)
    assert pd.isna(r.entropy)


def test_value_ttest_absent_group_empty(ray_session, tmp_path):
    # review fix: no 'purchase' events at all -> oracle's cross join
    # is empty, engine must emit ZERO rows (not an n=0 row)
    import duckdb

    from raysearch.pipelines import stats as ST

    n = 5
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(np.arange(n, dtype=np.int64)
                       .astype("datetime64[us]"), pa.timestamp("us")),
        "user_id": pa.array(np.zeros(n, np.int64)),
        "event_type": pa.array(["click"] * n, pa.string()),
        "value": pa.array(np.arange(n, dtype=np.float64) + 1.0,
                          pa.float64()),
    }), os.path.join(tmp_path, "events.parquet"))
    sf = str(tmp_path)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    eng = ST.value_ttest(sf).to_pandas()
    ora = con.execute(ST.sql_value_ttest()).df()
    assert len(eng) == 0 and len(ora) == 0


def test_value_ttest_negative_values_exact(ray_session, tmp_path):
    # review fix: a negative-dominated value column must use the
    # footer |min| for the overflow cap and still produce the exact
    # result (parity + hand-computed t)
    import duckdb

    from raysearch.pipelines import stats as ST

    vals = {"purchase": [-100.0, -90.5, -80.0, -70.25],
            "click": [-10.0, -20.0, -30.0, -40.0, -50.0]}
    types, vs = [], []
    for t, xs in vals.items():
        types += [t] * len(xs)
        vs += xs
    n = len(vs)
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(np.arange(n, dtype=np.int64)
                       .astype("datetime64[us]"), pa.timestamp("us")),
        "user_id": pa.array(np.zeros(n, np.int64)),
        "event_type": pa.array(types, pa.string()),
        "value": pa.array(np.asarray(vs, np.float64), pa.float64()),
    }), os.path.join(tmp_path, "events.parquet"))
    sf = str(tmp_path)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    eng = ST.value_ttest(sf).to_pandas()
    ora = con.execute(ST.sql_value_ttest()).df()
    pd.testing.assert_frame_equal(_norm(eng), _norm(ora),
                                  check_dtype=False)
    assert eng.iloc[0].mean_x < eng.iloc[0].mean_y < 0
    assert eng.iloc[0].t_stat < 0


def test_ipc_shard_names_deterministic(ray_session, tmp_path):
    # review fix: shard names derive from block content, so a rebuild
    # (or a retried task) produces the SAME shard set — idempotent
    import glob

    from raysearch.pipelines import io_formats as IO
    from raysearch.pipelines.search_queries import _source_fingerprint

    texts = ["alpha beta", "gamma", "delta epsilon zeta"] * 4
    sf = _write_docs(tmp_path, texts)
    IO.QUERIES["ipc_roundtrip"](sf)
    src = os.path.join(sf, "documents.parquet")
    shard_dir = os.path.join("/tmp/raysearch_cache",
                             f"ipc-{_source_fingerprint(src)}")
    first = sorted(os.path.basename(p) for p in
                   glob.glob(os.path.join(shard_dir, "*.arrow")))
    assert first
    os.remove(shard_dir + ".done")        # force a rebuild
    eng = IO.QUERIES["ipc_roundtrip"](sf).to_pandas()
    second = sorted(os.path.basename(p) for p in
                    glob.glob(os.path.join(shard_dir, "*.arrow")))
    assert first == second                # same content -> same names
    assert len(eng) == len(texts)         # and no duplicated rows


def test_decay_and_rank_feature_compose(ray_session):
    # review fix follow-on: the shared dl gather serves both priors in
    # one pass; combined scores must equal decay(bm25) + prior,
    # recomputed from the doc's true dl
    from raysearch.numutil import round6
    from raysearch.pipelines.search_queries import (DECAY_ORIGIN,
                                                    DECAY_SCALE,
                                                    RF_PIVOT, RF_W,
                                                    cached_index,
                                                    topk_rounded_for_index)

    both = topk_rounded_for_index(
        cached_index(SF), "bm25",
        decay=(DECAY_ORIGIN, DECAY_SCALE),
        rank_feature=(RF_W, RF_PIVOT)).to_pandas()
    deep = topk_rounded_for_index(cached_index(SF), "bm25",
                                  rank_hi=500, buffer=600).to_pandas()
    full = {(q, d): s for q, d, s in zip(deep.query_id, deep.doc_id,
                                         deep.score)}
    docs = pq.read_table(os.path.join(SF, "documents.parquet"),
                         columns=["doc_id", "text"]).to_pandas()
    dl = {int(r.doc_id): len(r.text.split()) for r in docs.itertuples()}
    assert len(both) > 0
    for q, d, s in zip(both.query_id, both.doc_id, both.score):
        mult = 0.5 ** (((dl[d] - DECAY_ORIGIN) / DECAY_SCALE) ** 2)
        prior = RF_W * (dl[d] / (dl[d] + RF_PIVOT))
        want = full[(q, d)] * mult + prior
        assert abs(s - want) <= 3e-6, (q, d)


def test_percolate_scored_consistent_with_gate_and_bm25(ray_session):
    # scored matches = exactly percolate_docs' gate pairs; each score
    # equals the deep plain-BM25 score for the same (query, doc)
    from raysearch.pipelines.rankex import (percolate_docs,
                                            percolate_scored)
    from raysearch.pipelines.search_queries import (cached_index,
                                                    topk_rounded_for_index)

    ps = percolate_scored(SF).to_pandas()
    gate = percolate_docs(SF).to_pandas()
    assert set(zip(ps.doc_id, ps.query_id)) == \
        set(zip(gate.doc_id, gate.query_id))
    deep = topk_rounded_for_index(cached_index(SF), "bm25",
                                  rank_hi=100000, buffer=100000
                                  ).to_pandas()
    full = {(q, d): s for q, d, s in zip(deep.query_id, deep.doc_id,
                                         deep.score)}
    assert len(ps) > 0
    for q, d, s in zip(ps.query_id, ps.doc_id, ps.score):
        assert abs(s - full[(q, d)]) <= 1e-6, (q, d)


def test_generation_drift_consistent(ray_session):
    # drift rows re-derive exactly from the two component tables
    from raysearch.pipelines.lifecycle import (appended_topk,
                                               generation_drift,
                                               time_travel_topk)

    gd = generation_drift(SF).to_pandas()
    cur = appended_topk(SF).to_pandas()
    old = time_travel_topk(SF).to_pandas()
    for r in gd.itertuples():
        c = set(cur[cur.query_id == r.query_id].doc_id)
        o = set(old[old.query_id == r.query_id].doc_id)
        assert (r.n_cur, r.n_old, r.n_overlap) == (len(c), len(o),
                                                   len(c & o))
        assert r.n_entered == len(c - o) and r.n_exited == len(o - c)
        un = len(c | o)
        assert r.jaccard == round(len(c & o) / un, 6)
    # the append genuinely reshapes some ranking (new docs entered)
    assert (gd.n_entered > 0).any()


def test_matrix_stats_cap_covers_quantity(ray_session, tmp_path):
    # |l_quantity| dominates |cents|: the batch cap must come from qty,
    # or 20k rows of qty^2 ~ 9e14 would wrap one int64 batch sum
    from raysearch.pipelines import stats as ST

    n = 20_000
    qty = 30_000_000 - np.arange(n)
    sf = _write_lineitem(tmp_path, qty, np.full(n, 1.5) + np.arange(n) % 7,
                         (np.arange(n) % 10) / 100.0)
    cap = ST._int64_batch_cap(sf, "lineitem.parquet", ST.MS_SCALES)
    assert cap == (1 << 62) // (30_000_000 ** 2) < 65536
    con = _duck(sf, "lineitem")
    eng = ST.matrix_stats(sf).to_pandas()
    ora = con.execute(ST.sql_matrix_stats()).df()
    pd.testing.assert_frame_equal(_norm(eng), _norm(ora),
                                  check_dtype=False)
