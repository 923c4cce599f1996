"""round6 must match DuckDB round(x, 6) exactly — the engine/oracle
rounding contract (round-1's red cell was a single half-ulp value) —
and rank_cut must equal a brute-force pandas sort_values + cumcount
rank cut."""

import duckdb
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

from raysearch.numutil import rank_cut, round6


@pytest.fixture(scope="module")
def con():
    return duckdb.connect()


def _db_round(con, x: float) -> float:
    return con.execute("SELECT round(?::DOUBLE, 6)", [x]).fetchone()[0]


def test_known_half_ulp(con):
    # the exact value that broke round 1: 105/128
    assert round6(0.8203125) == 0.820313 == _db_round(con, 0.8203125)
    assert round6(-0.8203125) == -0.820313 == _db_round(con, -0.8203125)


def test_exact_half_grid(con):
    # every representable multiple of 0.5e-6 in [0, 1): ties away
    for k in range(0, 2_000_001, 9973):  # sampled stride over the grid
        x = (2 * k + 1) / 2e6  # exactly representable? not always, but
        # the comparison is vs DuckDB on the SAME double, so any
        # representation error cancels
        assert round6(x) == _db_round(con, x), x


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6,
                 allow_nan=False, allow_infinity=False))
def test_round6_matches_duckdb(x):
    con = duckdb.connect()
    assert round6(x) == con.execute(
        "SELECT round(?::DOUBLE, 6)", [x]).fetchone()[0]


def test_array_and_scalar_agree():
    xs = np.array([0.8203125, -0.8203125, 0.0, 1.9999995, -1.9999995])
    arr = round6(xs)
    assert arr.tolist() == [round6(float(v)) for v in xs]
    # -0.0 is normalised to +0.0 (hash-compare safety)
    assert str(round6(-1e-9)) == "0.0"


def _reference_cut(df, order, k=None, group=None):
    """The rank contract written out by hand: one pandas sort, ranks
    from a per-group cumcount, rows past k dropped."""
    group = [group] if isinstance(group, str) else list(group or ())
    cols = group + [c for c, _ in order]
    asc = [True] * len(group) + [a for _, a in order]
    out = df.sort_values(cols, ascending=asc, kind="mergesort")
    out = out.reset_index(drop=True)
    out["rank"] = (out.groupby(group).cumcount() + 1 if group
                   else pd.Series(np.arange(1, len(out) + 1), out.index)
                   ).astype(np.int64)
    if k is not None:
        out = out[out["rank"] <= k].reset_index(drop=True)
    return out


def _check(df, order, k=None, group=None):
    got = rank_cut(df, order, k, group)
    want = _reference_cut(df, order, k, group)
    pd.testing.assert_frame_equal(got, want, check_exact=True)
    assert got["rank"].dtype == np.int64
    return got


def test_rank_cut_ties_broken_by_last_key():
    rng = np.random.default_rng(3)
    df = pd.DataFrame({"query_id": rng.integers(0, 4, 200),
                       "doc_id": rng.permutation(200),
                       "score": rng.integers(0, 3, 200) / 2.0})
    got = _check(df, [("score", False), ("doc_id", True)], 5, "query_id")
    # every query has tied scores; the ascending doc_id breaks them
    for _, g in got.groupby("query_id"):
        assert list(g["rank"]) == list(range(1, len(g) + 1))
        keys = list(zip(-g["score"], g["doc_id"]))
        assert keys == sorted(keys)


def test_rank_cut_mixed_directions():
    rng = np.random.default_rng(5)
    words = np.array(["delta", "alpha", "echo", "bravo", "charlie"], object)
    df = pd.DataFrame({"window": rng.integers(0, 3, 60),
                       "n": rng.integers(0, 4, 60),
                       "term": words[rng.integers(0, 5, 60)],
                       "x": rng.integers(-2, 3, 60) * 0.5,
                       "id": np.arange(60)})
    # a descending int key before an ascending string key
    _check(df, [("n", False), ("term", True), ("id", True)], 2, "window")
    # an ascending int, a descending string, a descending float
    _check(df, [("n", True), ("term", False), ("x", False), ("id", False)],
           4, "window")


def test_rank_cut_multi_column_group():
    rng = np.random.default_rng(9)
    df = pd.DataFrame({"query_id": rng.integers(0, 3, 120),
                       "source": np.array(["web", "code", "news"],
                                          object)[rng.integers(0, 3, 120)],
                       "doc_id": rng.permutation(120),
                       "score": rng.integers(0, 4, 120) * 0.25})
    got = _check(df, [("score", False), ("doc_id", True)], 1,
                 ["query_id", "source"])
    assert not got.duplicated(["query_id", "source"]).any()
    _check(df, [("score", False), ("doc_id", True)], 3,
           ["source", "query_id"])


def test_rank_cut_nan_and_signed_zero():
    df = pd.DataFrame({"query_id": [0, 0, 0, 0, 0, 1, 1, 1],
                       "doc_id": [5, 4, 3, 2, 1, 9, 8, 7],
                       "score": [np.nan, -0.0, 0.0, 1.5, np.nan,
                                 0.0, -0.0, np.nan]})
    got = _check(df, [("score", False), ("doc_id", True)], None,
                 "query_id")
    # -0.0 ties 0.0 (doc_id decides); NaN sorts last, descending or not
    assert got["doc_id"].tolist() == [2, 3, 4, 1, 5, 8, 9, 7]
    _check(df, [("score", True), ("doc_id", True)], None, "query_id")


@pytest.mark.parametrize("k", [0, 1, 3, None])
@pytest.mark.parametrize("group", [None, "query_id"])
def test_rank_cut_k_and_group(k, group):
    rng = np.random.default_rng(11)
    df = pd.DataFrame({"query_id": rng.integers(0, 5, 40),
                       "doc_id": rng.permutation(40),
                       "score": rng.integers(0, 5, 40) * 1.0})
    got = _check(df, [("score", False), ("doc_id", True)], k, group)
    if k == 0:
        assert got.empty and list(got.columns) == [*df.columns, "rank"]
    if k is None:
        assert len(got) == len(df)


def test_rank_cut_empty_and_short_groups():
    empty = pd.DataFrame({"query_id": np.array([], np.int64),
                          "doc_id": np.array([], np.int64),
                          "score": np.array([], np.float64)})
    got = _check(empty, [("score", False), ("doc_id", True)], 10,
                 "query_id")
    assert got.empty
    # group 1 holds fewer than k rows: all of them are kept, ranked
    df = pd.DataFrame({"query_id": [0, 0, 0, 0, 1, 1],
                       "doc_id": [1, 2, 3, 4, 5, 6],
                       "score": [1.0, 2.0, 3.0, 4.0, 1.0, 1.0]})
    got = _check(df, [("score", False), ("doc_id", True)], 3, "query_id")
    assert got["rank"].tolist() == [1, 2, 3, 1, 2]
    # an existing rank column is replaced in place
    _check(df.assign(rank=np.int32(0)), [("score", False), ("doc_id", True)],
           3, "query_id")
