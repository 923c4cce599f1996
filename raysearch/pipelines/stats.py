"""Exact distributed bivariate statistics: the Pearson correlation of
lineitem quantity and line price per return flag — the classic
one-pass sufficient-moment computation (n, Σx, Σy, Σxx, Σyy, Σxy)
expressed as a combiner pipeline.

Exactness contract, OVERFLOW-PROOF AT ANY SCALE: both variables are
integers (quantity rounds to int64 like every money op; price in
cents), so per-batch moment partials are exact int64 sums — and the
batch size is derived from the parquet FOOTER max statistics so a
batch's Σy² provably fits int64 (batch_rows·max_cents² < 2^62; the
naive whole-dataset int64 Sum sits at 80% of int64 at sf0.1 already
and would wrap silently at ~2.5x that). Cross-batch reduction then
runs in PYTHON ARBITRARY-PRECISION ints on the driver over the
(n_batches × flags)-row partial table — exact at any corpus size;
the driver holds one 6-int row per (batch, flag), documented and
bounded by the batch-size floor. The only floats are the final
r = (nΣxy − ΣxΣy) / sqrt((nΣxx − Σx²)(nΣyy − Σy²)) computed from
those scalars identically on engine (Python ints → float) and
oracle (HUGEINT → DOUBLE): int→double conversion, IEEE
sqrt/division, and round6 agree on both sides. Zero variance on
either axis defines r = 0.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pandas as pd
import pyarrow as pa

from raysearch.numutil import round6
from raysearch.pipelines.joins import _cents, _half_away, _read

_BATCH_FLOOR = 1024            # below this, raise instead of crawling


def _col_absmax(sf_dir: str, table: str, col: str) -> float:
    """Column max |value| from footer min/max statistics — the bound
    the int64-overflow batch caps actually need (a negative-dominated
    column's footer MAX says nothing about its magnitude)."""
    import pyarrow.parquet as pq

    path = os.path.join(sf_dir, table)
    files = ([os.path.join(path, f) for f in os.listdir(path)
              if f.endswith(".parquet")] if os.path.isdir(path)
             else [path])
    mx = None
    for f in files:
        md = pq.read_metadata(f)
        for g in range(md.num_row_groups):
            rg = md.row_group(g)
            for i in range(rg.num_columns):
                c = rg.column(i)
                if c.path_in_schema == col and c.statistics is not None:
                    v = max(abs(float(c.statistics.max)),
                            abs(float(c.statistics.min)))
                    mx = v if mx is None else max(mx, v)
    if mx is None:
        raise ValueError(f"no footer statistics for {table}.{col}")
    return float(mx)


def _int64_batch_cap(sf_dir: str, table: str,
                     scaled: dict[str, float]) -> int:
    """Rows per batch so that every per-batch int64 sum of pair
    products provably fits: the cap comes from the largest footer
    |value| over ALL the summed columns in their integer units
    (``scaled`` maps column -> unit scale, x100 for cents)."""
    max_abs = int(_half_away(np.array(
        [_col_absmax(sf_dir, table, c) * s for c, s in scaled.items()]
    )).max())
    safe_batch = (1 << 62) // max(max_abs * max_abs, 1)
    if safe_batch < _BATCH_FLOOR:
        raise ValueError(
            f"max |value| {max_abs} in {table} forces batches under "
            f"{_BATCH_FLOOR} rows; rescale the value columns or shard "
            "the moment sums")
    return min(safe_batch, 65536)


def qty_price_corr(sf_dir: str) -> pa.Table:
    """Per l_returnflag: row count, exact Σqty / Σcents, and the
    Pearson correlation of (quantity, extended price) — the standard
    profiling probe for 'does order size track line value'."""
    safe_batch = _int64_batch_cap(
        sf_dir, "lineitem.parquet",
        {"l_quantity": 1.0, "l_extendedprice": 100.0})

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        q = _half_away(df["l_quantity"].to_numpy(np.float64))
        c = _cents(df["l_extendedprice"].to_numpy(np.float64))
        g = pd.DataFrame({"flag": df["l_returnflag"].to_numpy(),
                          "n": np.int64(1), "sx": q, "sy": c,
                          "sxx": q * q, "syy": c * c, "sxy": q * c})
        return g.groupby("flag", as_index=False).sum()

    parts = (_read(sf_dir, "lineitem.parquet",
                   columns=["l_returnflag", "l_quantity",
                            "l_extendedprice"])
             .map_batches(partial, batch_format="pandas",
                          batch_size=int(safe_batch)))
    # cross-batch reduce in Python ints: exact at any scale (int64
    # would wrap); one 6-int row per (batch, flag) reaches the driver
    acc: dict[str, list[int]] = {}
    for b in parts.iter_batches(batch_format="pandas"):
        for row in b.itertuples(index=False):
            a = acc.setdefault(row.flag, [0] * 6)
            a[0] += int(row.n)
            a[1] += int(row.sx)
            a[2] += int(row.sy)
            a[3] += int(row.sxx)
            a[4] += int(row.syy)
            a[5] += int(row.sxy)
    if not acc:
        return pa.table({
            "l_returnflag": pa.array([], pa.string()),
            "n_rows": pa.array([], pa.int64()),
            "sum_qty": pa.array([], pa.int64()),
            "sum_cents": pa.array([], pa.int64()),
            "corr_qty_price": pa.array([], pa.float64())})
    flags = sorted(acc)
    rs, ns, sxs, sys_ = [], [], [], []
    for f in flags:
        n, sx, sy, sxx, syy, sxy = acc[f]
        num = n * sxy - sx * sy
        d1 = n * sxx - sx * sx
        d2 = n * syy - sy * sy
        r = (float(num) / (math.sqrt(float(d1)) * math.sqrt(float(d2)))
             if d1 > 0 and d2 > 0 else 0.0)
        rs.append(round6(r))
        ns.append(n)
        sxs.append(sx)
        sys_.append(sy)
    return pa.table({
        "l_returnflag": pa.array(flags, pa.string()),
        "n_rows": pa.array(ns, pa.int64()),
        "sum_qty": pa.array(sxs, pa.int64()),
        "sum_cents": pa.array(sys_, pa.int64()),
        "corr_qty_price": pa.array(rs, pa.float64()),
    })


def sql_qty_price_corr() -> str:
    return """
WITH m AS (
  SELECT l_returnflag,
         count(*)::HUGEINT AS n,
         sum(CAST(round(l_quantity, 0) AS BIGINT))::HUGEINT AS sx,
         sum(CAST(round(l_extendedprice * 100, 0) AS BIGINT))::HUGEINT
           AS sy,
         sum((CAST(round(l_quantity, 0) AS BIGINT))::HUGEINT
             * (CAST(round(l_quantity, 0) AS BIGINT))::HUGEINT)
           AS sxx,
         sum((CAST(round(l_extendedprice * 100, 0) AS BIGINT))::HUGEINT
             * (CAST(round(l_extendedprice * 100, 0) AS BIGINT
                     ))::HUGEINT) AS syy,
         sum((CAST(round(l_quantity, 0) AS BIGINT))::HUGEINT
             * (CAST(round(l_extendedprice * 100, 0) AS BIGINT
                     ))::HUGEINT) AS sxy
  FROM lineitem GROUP BY l_returnflag
)
SELECT l_returnflag,
       n::BIGINT AS n_rows,
       sx::BIGINT AS sum_qty,
       sy::BIGINT AS sum_cents,
       round(CASE WHEN n * sxx - sx * sx > 0 AND n * syy - sy * sy > 0
             THEN (n * sxy - sx * sy)::DOUBLE
                  / (sqrt((n * sxx - sx * sx)::DOUBLE)
                     * sqrt((n * syy - sy * sy)::DOUBLE))
             ELSE 0 END, 6) AS corr_qty_price
FROM m ORDER BY l_returnflag
"""


ZIPF_V = 100_000               # fit the head of the distribution


def zipf_slope(sf_dir: str) -> pa.Table:
    """Zipf's-law fit over the corpus term-frequency distribution:
    OLS of ln(count) on ln(rank) for the top-{V} terms under the
    total order (count DESC, term ASC) — the standard corpus-health
    probe (slope ≈ -1 for natural text; flat slopes flag templated /
    machine-generated corpora).

    Scale shape: ONE corpus pass emits per-batch unigram count
    partials (the combiner); one lexicon-cardinality groupby sums
    them (same budget class as the index lexicon merge, materialized
    once and read three ways). The fit needs the GLOBAL top-{V} by
    count: each block contributes a LOCAL top-{V} under the same
    total order, so the driver merges n_blocks x {V} candidate rows
    — never the lexicon. n_terms / total_tokens are exact and
    uncapped (distributed count/sum). Regression edge semantics
    mirror DuckDB's regr_* family exactly: fewer than 2 fit points
    -> NULL slope/intercept/r2; zero y-variance -> r2 = 1.0.
    """
    from ray.data.aggregate import Sum

    from raysearch.pipelines.textops import _read_docs, _tokens

    def partial(batch: pa.Table) -> pa.Table:
        toks = _tokens(batch)
        flat = toks.flatten().to_numpy(zero_copy_only=False)
        if not len(flat):
            return pa.table({"term": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        u, c = np.unique(flat, return_counts=True)
        return pa.table({"term": pa.array(u.tolist(), pa.string()),
                         "n": pa.array(c.astype(np.int64), pa.int64())})

    counts = (_read_docs(sf_dir, ["text"])
              .map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
              .groupby("term")
              .aggregate(Sum("n", alias_name="n"))).materialize()
    n_terms = int(counts.count())
    total = int(counts.sum("n") or 0) if n_terms else 0

    def local_top(b: pa.Table) -> pa.Table:
        df = b.to_pandas().sort_values(
            ["n", "term"], ascending=[False, True]).head(ZIPF_V)
        return pa.Table.from_pandas(df, preserve_index=False)

    def fit(k: np.ndarray) -> tuple:
        m = len(k)
        if m < 2:
            return None, None, None
        x = np.log(np.arange(1, m + 1, dtype=np.float64))
        y = np.log(k.astype(np.float64))
        sx, sy = x.sum(), y.sum()
        num = m * float(x @ y) - sx * sy
        d1 = m * float(x @ x) - sx * sx
        d2 = m * float(y @ y) - sy * sy
        if d1 <= 0:
            return None, None, None
        slope = num / d1
        intercept = (sy - slope * sx) / m
        r2 = 1.0 if d2 <= 0 else (num * num) / (d1 * d2)
        return round6(slope), round6(intercept), round6(r2)

    if n_terms:
        cand = pa.concat_tables(
            counts.map_batches(local_top, batch_format="pyarrow")
            .iter_batches(batch_format="pyarrow")).to_pandas()
        top = cand.sort_values(["n", "term"], ascending=[False, True],
                               ignore_index=True).head(ZIPF_V)
        slope, intercept, r2 = fit(top["n"].to_numpy(np.int64))
    else:
        slope = intercept = r2 = None
    return pa.table({
        "n_terms": pa.array([n_terms], pa.int64()),
        "total_tokens": pa.array([total], pa.int64()),
        "slope": pa.array([slope], pa.float64()),
        "intercept": pa.array([intercept], pa.float64()),
        "r2": pa.array([r2], pa.float64()),
    })


def sql_zipf_slope() -> str:
    return f"""
WITH t AS (
  SELECT unnest(regexp_extract_all(lower(text), '\\S+')) AS term
  FROM documents
), c AS (
  SELECT term, count(*)::BIGINT AS k FROM t GROUP BY term
), r AS (
  SELECT k, row_number() OVER (ORDER BY k DESC, term) AS rnk FROM c
), h AS (
  SELECT ln(rnk::DOUBLE) AS x, ln(k::DOUBLE) AS y
  FROM r WHERE rnk <= {ZIPF_V}
)
SELECT (SELECT count(*) FROM c)::BIGINT AS n_terms,
       (SELECT COALESCE(sum(k), 0) FROM c)::BIGINT AS total_tokens,
       round(regr_slope(y, x), 6) AS slope,
       round(regr_intercept(y, x), 6) AS intercept,
       round(regr_r2(y, x), 6) AS r2
FROM h
"""


# matrix_stats variables (alphabetical; the output pair order):
# qty in integer units, extendedprice in cents, discount in
# hundredths (x100) — the same exact-integer units the money ops use
MS_COLS = ["cents", "disc", "qty"]
# their source columns -> integer unit scale (the batch-cap input)
MS_SCALES = {"l_quantity": 1.0, "l_extendedprice": 100.0,
             "l_discount": 100.0}


def matrix_stats(sf_dir: str) -> pa.Table:
    """The Elasticsearch matrix_stats aggregation over lineitem
    (quantity, extended price, discount): for every unordered column
    pair incl. the diagonal — (col_x, col_y, n_rows, mean_x, mean_y,
    covar_samp, corr) — the diagonal rows carrying the sample
    variance and corr 1.

    Exactness: qty_price_corr's overflow-proof integer-moment plan
    generalized to the full moment MATRIX — per-batch int64 sums of
    {x, x*y} for all pairs (batch size derived from footer max stats
    so the largest pair product provably fits int64), cross-batch
    reduction in Python arbitrary-precision ints, and the identical
    int->double->IEEE finish on both engine and oracle. ONE corpus
    pass, one 10-int row per batch to the driver, exact at any
    scale."""
    safe_batch = _int64_batch_cap(sf_dir, "lineitem.parquet", MS_SCALES)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cols = {
            "qty": _half_away(df["l_quantity"].to_numpy(np.float64)),
            "cents": _cents(df["l_extendedprice"].to_numpy(np.float64)),
            "disc": _cents(df["l_discount"].to_numpy(np.float64)),
        }
        out: dict[str, list[int]] = {"n": [len(df)]}
        for i, a in enumerate(MS_COLS):
            out[f"s_{a}"] = [int(cols[a].sum())]
            for b in MS_COLS[i:]:
                out[f"s_{a}_{b}"] = [int((cols[a] * cols[b]).sum())]
        return pd.DataFrame(out)

    parts = (_read(sf_dir, "lineitem.parquet",
                   columns=["l_quantity", "l_extendedprice",
                            "l_discount"])
             .map_batches(partial, batch_format="pandas",
                          batch_size=int(safe_batch)))
    keys = (["n"] + [f"s_{a}" for a in MS_COLS]
            + [f"s_{a}_{b}" for i, a in enumerate(MS_COLS)
               for b in MS_COLS[i:]])
    acc = dict.fromkeys(keys, 0)
    for b in parts.iter_batches(batch_format="pandas"):
        for row in b.itertuples(index=False):
            for k in keys:
                acc[k] += int(getattr(row, k))

    n = acc["n"]
    rows: dict[str, list] = {k: [] for k in
                             ("col_x", "col_y", "n_rows", "mean_x",
                              "mean_y", "covar", "corr")}
    for i, a in enumerate(MS_COLS):
        for b in MS_COLS[i:]:
            sx, sy, sxy = acc[f"s_{a}"], acc[f"s_{b}"], acc[f"s_{a}_{b}"]
            sxx, syy = acc[f"s_{a}_{a}"], acc[f"s_{b}_{b}"]
            rows["col_x"].append(a)
            rows["col_y"].append(b)
            rows["n_rows"].append(n)
            rows["mean_x"].append(round6(float(sx) / n) if n else None)
            rows["mean_y"].append(round6(float(sy) / n) if n else None)
            num = n * sxy - sx * sy
            d1 = n * sxx - sx * sx
            d2 = n * syy - sy * sy
            rows["covar"].append(
                round6(float(num) / float(n * (n - 1))) if n > 1
                else None)
            rows["corr"].append(
                round6(float(num) / (math.sqrt(float(d1))
                                     * math.sqrt(float(d2))))
                if d1 > 0 and d2 > 0 else 0.0)
    return pa.table({
        "col_x": pa.array(rows["col_x"], pa.string()),
        "col_y": pa.array(rows["col_y"], pa.string()),
        "n_rows": pa.array(rows["n_rows"], pa.int64()),
        "mean_x": pa.array(rows["mean_x"], pa.float64()),
        "mean_y": pa.array(rows["mean_y"], pa.float64()),
        "covar": pa.array(rows["covar"], pa.float64()),
        "corr": pa.array(rows["corr"], pa.float64()),
    })


def sql_matrix_stats() -> str:
    pair_rows = []
    for i, a in enumerate(MS_COLS):
        for b in MS_COLS[i:]:
            pair_rows.append(
                f"SELECT '{a}' AS col_x, '{b}' AS col_y, n, "
                f"s_{a} AS sx, s_{b} AS sy, s_{a}_{b} AS sxy, "
                f"s_{a}_{a} AS sxx, s_{b}_{b} AS syy FROM m")
    pairs = "\n  UNION ALL ".join(pair_rows)
    sums = ", ".join(
        [f"sum(v.{a})::HUGEINT AS s_{a}" for a in MS_COLS]
        + [f"sum(v.{a} * v.{b})::HUGEINT AS s_{a}_{b}"
           for i, a in enumerate(MS_COLS) for b in MS_COLS[i:]])
    return f"""
WITH v AS (
  SELECT CAST(round(l_quantity, 0) AS BIGINT)::HUGEINT AS qty,
         CAST(round(l_extendedprice * 100, 0) AS BIGINT)::HUGEINT
           AS cents,
         CAST(round(l_discount * 100, 0) AS BIGINT)::HUGEINT AS disc
  FROM lineitem
),
m AS (SELECT count(*)::HUGEINT AS n, {sums} FROM v),
p AS (
  {pairs}
)
SELECT col_x, col_y, n::BIGINT AS n_rows,
       round(sx::DOUBLE / n::DOUBLE, 6) AS mean_x,
       round(sy::DOUBLE / n::DOUBLE, 6) AS mean_y,
       CASE WHEN n > 1
            THEN round((n * sxy - sx * sy)::DOUBLE
                       / (n * (n - 1))::DOUBLE, 6) END AS covar,
       round(CASE WHEN n * sxx - sx * sx > 0 AND n * syy - sy * sy > 0
             THEN (n * sxy - sx * sy)::DOUBLE
                  / (sqrt((n * sxx - sx * sx)::DOUBLE)
                     * sqrt((n * syy - sy * sy)::DOUBLE))
             ELSE 0 END, 6) AS corr
FROM p
"""


# Welch's t-test groups: the ES t_test aggregation's two filtered
# populations, here event value by event type
TT_X, TT_Y = "purchase", "click"


def value_ttest(sf_dir: str) -> pa.Table:
    """The Elasticsearch t_test aggregation (heteroscedastic /
    Welch): does mean event value differ between '{x}' and '{y}'
    events? One row: per-group n and mean, the Welch t statistic and
    Satterthwaite degrees of freedom.

    Exactness: the qty_price_corr plan — per-batch int64 moment
    partials over value CENTS (footer-max-derived batch cap),
    Python-bigint reduce, then ONE identical int->double->IEEE
    expression tree for mean/variance/t/dof on engine and oracle;
    zero float accumulation anywhere. One corpus pass, one 6-int row
    per (batch, group) to the driver."""
    safe_batch = _int64_batch_cap(sf_dir, "events.parquet",
                                  {"value": 100.0})

    _empty_partial = pd.DataFrame({
        "g": pd.Series([], dtype=str),
        "n": pd.Series([], dtype=np.int64),
        "s": pd.Series([], dtype=np.int64),
        "ss": pd.Series([], dtype=np.int64)})

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        m = df["event_type"].isin([TT_X, TT_Y]).to_numpy()
        if not m.any():
            return _empty_partial
        c = _cents(df["value"].to_numpy(np.float64)[m])
        g = pd.DataFrame({"g": df["event_type"].to_numpy()[m],
                          "n": np.int64(1), "s": c, "ss": c * c})
        return g.groupby("g", as_index=False).sum()

    parts = (_read(sf_dir, "events.parquet",
                   columns=["event_type", "value"])
             .map_batches(partial, batch_format="pandas",
                          batch_size=int(safe_batch)))
    acc = {TT_X: [0, 0, 0], TT_Y: [0, 0, 0]}
    for b in parts.iter_batches(batch_format="pandas"):
        for row in b.itertuples(index=False):
            a = acc[row.g]
            a[0] += int(row.n)
            a[1] += int(row.s)
            a[2] += int(row.ss)

    def finish(a):
        n, s, ss = a
        mean = float(s) / n if n else None
        var = (float(n * ss - s * s) / float(n * (n - 1))
               if n > 1 else None)
        return n, mean, var

    nx, mx, vx = finish(acc[TT_X])
    ny, my, vy = finish(acc[TT_Y])
    if nx == 0 or ny == 0:
        # a wholly-absent group: the oracle's FROM x, y cross join
        # yields zero rows — match it (no one-sided t-test exists)
        return pa.table({
            "n_x": pa.array([], pa.int64()),
            "n_y": pa.array([], pa.int64()),
            "mean_x": pa.array([], pa.float64()),
            "mean_y": pa.array([], pa.float64()),
            "t_stat": pa.array([], pa.float64()),
            "dof": pa.array([], pa.float64())})
    if vx is not None and vy is not None and (vx > 0 or vy > 0):
        ax, ay = vx / nx, vy / ny
        t = (mx - my) / math.sqrt(ax + ay)
        dof = ((ax + ay) * (ax + ay)
               / (ax * ax / (nx - 1) + ay * ay / (ny - 1)))
    else:
        t = dof = None
    return pa.table({
        "n_x": pa.array([nx], pa.int64()),
        "n_y": pa.array([ny], pa.int64()),
        "mean_x": pa.array([round6(mx) if mx is not None else None],
                           pa.float64()),
        "mean_y": pa.array([round6(my) if my is not None else None],
                           pa.float64()),
        "t_stat": pa.array([round6(t) if t is not None else None],
                           pa.float64()),
        "dof": pa.array([round6(dof) if dof is not None else None],
                        pa.float64()),
    })


value_ttest.__doc__ = value_ttest.__doc__.format(x=TT_X, y=TT_Y)


def sql_value_ttest() -> str:
    return f"""
WITH m AS (
  SELECT event_type AS g, count(*)::HUGEINT AS n,
         sum(CAST(round(value * 100, 0) AS BIGINT))::HUGEINT AS s,
         sum((CAST(round(value * 100, 0) AS BIGINT))::HUGEINT
             * (CAST(round(value * 100, 0) AS BIGINT))::HUGEINT) AS ss
  FROM events WHERE event_type IN ('{TT_X}', '{TT_Y}')
  GROUP BY event_type
),
f AS (
  SELECT g, n::BIGINT AS n,
         s::DOUBLE / n::BIGINT AS mean,
         (n * ss - s * s)::DOUBLE / (n * (n - 1))::DOUBLE AS var
  FROM m
),
x AS (SELECT * FROM f WHERE g = '{TT_X}'),
y AS (SELECT * FROM f WHERE g = '{TT_Y}')
SELECT x.n AS n_x, y.n AS n_y,
       round(x.mean, 6) AS mean_x, round(y.mean, 6) AS mean_y,
       round((x.mean - y.mean)
             / sqrt(x.var / x.n + y.var / y.n), 6) AS t_stat,
       round((x.var / x.n + y.var / y.n) * (x.var / x.n + y.var / y.n)
             / ((x.var / x.n) * (x.var / x.n) / (x.n - 1)
                + (y.var / y.n) * (y.var / y.n) / (y.n - 1)), 6) AS dof
FROM x, y
"""


QUERIES = {
    "qty_price_corr": qty_price_corr,
    "zipf_slope": zipf_slope,
    "matrix_stats": matrix_stats,
    "value_ttest": value_ttest,
}

ORACLE_SQL = {
    "qty_price_corr": sql_qty_price_corr(),
    "zipf_slope": sql_zipf_slope(),
    "matrix_stats": sql_matrix_stats(),
    "value_ttest": sql_value_ttest(),
}
