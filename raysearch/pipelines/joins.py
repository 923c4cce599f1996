"""Distributed join operators Ray Data lacks as primitives, built as
compositions of map_batches + coarse groupby — the "custom operator"
path the brief names explicitly (as-of join, range join) plus the
relational workhorses a training-data pipeline needs (hash join with
map-side pre-aggregation, deterministic hash-split sampling, exact
integer-money aggregation).

The reference engine has no joins (its only wide op is the index
HashMap, src/lib.rs:341); these extend the engine beyond parity, over
the driver's TPC-H-shaped `orders`/`customer`/`nation`/`lineitem`
tables and the `events`/`documents` tables.

Partitioning assumptions (documented per the custom-operator
contract):

- asof_join / range_join_events co-locate by USER: the coarse group
  key is `user_id & (auto_buckets-1)`, so all of one user's events
  land in one reduce group, many users per group, and the kernel is
  vectorized ACROSS users (no per-user Python dispatch). A single
  pathological user still bounds a group; the fix at that scale is
  time-bucketing with boundary replication (range) / per-user segment
  checkpoints (as-of), not implemented here.
- revenue_by_nation co-locates both join sides by `custkey &
  (auto_buckets-1)` — a bucketed shuffle hash join. The orders side is
  pre-aggregated per custkey MAP-SIDE before the exchange (the
  combiner pattern: the shuffle carries one partial row per (batch,
  custkey), never raw orders), and the 25-row nation table is joined
  driver-side after the final 25-row aggregate.

Money is exact: every sum over price/discount columns happens in
int64 cents (the source values are 2-decimal), so engine and DuckDB
oracle agree bit-for-bit regardless of shuffle/summation order —
float sums at 1e9 magnitude cannot survive a round-to-6 value hash.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from raysearch.numutil import fmt_doc

_EVENTS = "events.parquet"
_DOCS = "documents.parquet"

ASOF_LEFT = "click"       # each left event joins ...
ASOF_RIGHT = "purchase"   # ... its most recent prior right event
RANGE_US = 3_600_000_000  # range join: same-user pairs within 1 hour


def _read(sf_dir: str, name: str, columns=None, **kw):
    import ray.data

    return ray.data.read_parquet(os.path.join(sf_dir, name),
                                 columns=columns, **kw)


def _epoch_us(ts: pd.Series) -> np.ndarray:
    return ts.astype("datetime64[us]").astype("int64").to_numpy()


def _n_rows(sf_dir: str, name: str) -> int:
    from raysearch.hashing import parquet_rows

    return parquet_rows(os.path.join(sf_dir, name))


def _user_sorted(g: pd.DataFrame):
    """Sort a coarse user-bucket group by (user_id, ts_us, event_id) —
    the deterministic total order the SQL oracles share — and return
    the sorted columns plus each row's user-segment start index."""
    tus = _epoch_us(g["ts"])
    uid = g["user_id"].to_numpy(np.int64)
    eid = g["event_id"].to_numpy(np.int64)
    order = np.lexsort((eid, tus, uid))
    uid, eid, tus = uid[order], eid[order], tus[order]
    n = len(uid)
    new_user = np.ones(n, dtype=bool)
    if n > 1:
        new_user[1:] = uid[1:] != uid[:-1]
    start = np.maximum.accumulate(
        np.where(new_user, np.arange(n), -1))
    return uid, eid, tus, order, start, n


def _user_bucketed(ds, nb: int):
    """Append the coarse user-hash bucket column (upart = user_id &
    (nb-1)) — the shared co-location key of every per-user operator in
    this module; one definition so the bucketing contract lives in one
    place."""
    import pyarrow.compute as pc

    def add_upart(b: pa.Table) -> pa.Table:
        upart = pc.cast(pc.bit_wise_and(b["user_id"], nb - 1), pa.int64())
        return b.append_column("upart", upart)

    return ds.map_batches(add_upart, batch_format="pyarrow",
                          zero_copy_batch=True)


@fmt_doc(left=ASOF_LEFT, right=ASOF_RIGHT)
def asof_join(sf_dir: str) -> pa.Table:
    """As-of join over events: for every '{left}' event, the same
    user's most recent PRIOR '{right}' event in (ts, event_id) order
    (a purchase at the same timestamp with a smaller event_id counts
    as prior; no match -> sentinel -1, keeping the schema all-int64).

    Shape: filtered read (only the two event types leave storage) ->
    coarse user-hash groupby -> one vectorized running-maximum pass
    per group: idx = where(is_right, arange, -1); cummax; shift by
    one row; a candidate is valid iff it lies inside the row's own
    user segment. No per-user dispatch, no per-row Python.
    """
    import pyarrow.dataset as pads

    from raysearch.hashing import auto_buckets

    nb = auto_buckets(_n_rows(sf_dir, _EVENTS))
    ds = _read(sf_dir, _EVENTS,
               columns=["event_id", "ts", "user_id", "event_type"],
               filter=pads.field("event_type").isin(
                   [ASOF_LEFT, ASOF_RIGHT]))
    out = (_user_bucketed(ds, nb)
           .groupby("upart").map_groups(_asof_kern,
                                        batch_format="pandas"))
    df = out.to_pandas()
    if "prior_event_id" not in df.columns:
        # zero groups ran (no rows of either type): to_pandas() falls
        # back to the INPUT schema — return the documented empty shape
        df = pd.DataFrame({c: np.array([], dtype=np.int64) for c in
                           ("event_id", "user_id", "ts_us",
                            "prior_event_id", "gap_us")})
    return pa.table({
        "event_id": pa.array(df.event_id.to_numpy(np.int64), pa.int64()),
        "user_id": pa.array(df.user_id.to_numpy(np.int64), pa.int64()),
        "ts_us": pa.array(df.ts_us.to_numpy(np.int64), pa.int64()),
        "prior_event_id": pa.array(
            df.prior_event_id.to_numpy(np.int64), pa.int64()),
        "gap_us": pa.array(df.gap_us.to_numpy(np.int64), pa.int64()),
    })


def _asof_kern(g: pd.DataFrame) -> pd.DataFrame:
    """One coarse user-bucket group of {ASOF_LEFT, ASOF_RIGHT} events
    -> as-of rows. Vectorized across users (running maximum of right-
    row indices, shifted one row, validated against each row's own
    user-segment start)."""
    uid, eid, tus, order, start, n = _user_sorted(g)
    is_r = g["event_type"].to_numpy()[order] == ASOF_RIGHT
    idx = np.where(is_r, np.arange(n), -1)
    cm = np.maximum.accumulate(idx)
    prior = np.empty(n, dtype=np.int64)
    prior[0] = -1
    if n > 1:
        prior[1:] = cm[:-1]
    valid = prior >= start
    left = ~is_r
    pl = np.maximum(prior[left], 0)
    vl = valid[left]
    return pd.DataFrame({
        "event_id": eid[left],
        "user_id": uid[left],
        "ts_us": tus[left],
        "prior_event_id": np.where(vl, eid[pl], -1),
        "gap_us": np.where(vl, tus[left] - tus[pl], -1),
    })


def range_join_events(sf_dir: str) -> pa.Table:
    """Range (interval) self-join: all same-user event pairs (a, b)
    with a < b in (ts, event_id) order and ts_b - ts_a <= RANGE_US.

    Shape: coarse user-hash groupby; inside the group, each user's
    time range is shifted into a disjoint integer band (band width >
    group time span + RANGE_US, so a searchsorted window can never
    cross users), then ONE global searchsorted gives every row's
    match window and np.repeat/cumsum expand the pairs — fully
    vectorized across users, O(pairs) output work.
    """
    from raysearch.hashing import auto_buckets

    nb = auto_buckets(_n_rows(sf_dir, _EVENTS))
    ds = _read(sf_dir, _EVENTS, columns=["event_id", "ts", "user_id"])
    out = (_user_bucketed(ds, nb)
           .groupby("upart").map_groups(_range_kern,
                                        batch_format="pandas"))
    df = out.to_pandas()
    if "ev_a" not in df.columns:  # zero groups ran (empty input)
        df = pd.DataFrame({c: np.array([], dtype=np.int64)
                           for c in ("ev_a", "ev_b", "gap_us")})
    return pa.table({
        "ev_a": pa.array(df.ev_a.to_numpy(np.int64), pa.int64()),
        "ev_b": pa.array(df.ev_b.to_numpy(np.int64), pa.int64()),
        "gap_us": pa.array(df.gap_us.to_numpy(np.int64), pa.int64()),
    }).sort_by([("ev_a", "ascending"), ("ev_b", "ascending")])


def _range_kern(g: pd.DataFrame) -> pd.DataFrame:
    """One coarse user-bucket group -> all same-user pairs within
    RANGE_US. Per-USER-relative offsets keep the band key as narrow as
    the widest single user's span (not the group's global span), so
    n_users * band stays far from int64 even in huge groups; one
    global searchsorted then finds every row's match window."""
    uid, eid, tus, order, start, n = _user_sorted(g)
    if n == 0:
        return pd.DataFrame({"ev_a": [], "ev_b": [], "gap_us": []})
    user_t0 = tus[start]            # first ts of each row's user
    off = tus - user_t0
    band = np.int64(off.max()) + RANGE_US + 1
    urank = np.cumsum(start == np.arange(n)) - 1  # 0-based user rank
    n_users = int(urank[-1]) + 1
    if n_users * int(band) >= 1 << 62:
        # a group this wide needs the time-bucketed formulation
        # (bucket by (user, ts // RANGE_US) with boundary
        # replication) — fail loudly rather than wrap around
        raise OverflowError(
            f"range_join group too wide for band keys "
            f"({n_users} users x {int(band)} us span); use "
            f"time-bucket partitioning")
    key = urank.astype(np.int64) * band + off
    hi = np.searchsorted(key, key + RANGE_US, side="right")
    cnt = hi - np.arange(n) - 1
    total = int(cnt.sum())
    if total == 0:
        return pd.DataFrame({"ev_a": [], "ev_b": [], "gap_us": []})
    a_idx = np.repeat(np.arange(n), cnt)
    offs = np.concatenate(([0], np.cumsum(cnt)[:-1]))
    b_idx = (np.arange(total) - np.repeat(offs, cnt)
             + np.repeat(np.arange(n) + 1, cnt))
    return pd.DataFrame({
        "ev_a": eid[a_idx], "ev_b": eid[b_idx],
        "gap_us": tus[b_idx] - tus[a_idx]})


# ---- deterministic hash-split sampling ----

# md5-hex first digit: '0'..'b' (12/16 = 75%) train, 'c'/'d' (12.5%)
# val, 'e'/'f' (12.5%) test. Exact fractions in hex so the split is
# reproducible from the doc_id alone on ANY engine (DuckDB expresses
# it with substr(md5(...))) — the property a train/val/test split of
# a 100-TB corpus must have (membership never depends on scan order,
# partitioning, or a stored assignment table).
_SPLITS = (("train", "0", "c"), ("val", "c", "e"), ("test", "e", "g"))


def sample_split(sf_dir: str) -> pa.Table:
    """Deterministic train/val/test hash split of the documents table:
    split = f(md5(doc_id)), aggregated map-side (the shuffle carries
    one partial row per (batch, split)) into per-split doc counts and
    character volume."""
    import hashlib

    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy()
        chars = b["n_chars"].to_numpy()
        # one md5 per row, same as the exact-dedup stage; the digest
        # IS the contract (DuckDB md5() must reproduce membership)
        d0 = np.array([hashlib.md5(str(int(i)).encode()).hexdigest()[0]
                       for i in ids])
        split = np.where(d0 < "c", "train", np.where(d0 < "e",
                                                     "val", "test"))
        df = pd.DataFrame({"split": split, "n_chars": chars})
        return (df.groupby("split", as_index=False)
                .agg(n_docs=("n_chars", "size"),
                     total_chars=("n_chars", "sum")))

    ds = _read(sf_dir, _DOCS, columns=["doc_id", "n_chars"]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True)
    agg = ds.groupby("split").aggregate(
        Sum("n_docs", alias_name="n_docs"),
        Sum("total_chars", alias_name="total_chars"))
    df = agg.to_pandas()
    return pa.table({
        "split": pa.array(df.split.tolist(), pa.string()),
        "n_docs": pa.array(df.n_docs.to_numpy(np.int64), pa.int64()),
        "total_chars": pa.array(df.total_chars.to_numpy(np.int64),
                                pa.int64()),
    })


# ---- bucketed shuffle hash join (orders x customer x nation) ----

def _sorted_hits(sorted_keys: np.ndarray, keys: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The one searchsorted-membership kernel every broadcast join
    uses: (hit mask over ``keys``, positions of the hits in
    ``sorted_keys``). Boundary handling (pos == len) lives ONLY
    here."""
    pos = np.searchsorted(sorted_keys, keys)
    pos_ok = pos < len(sorted_keys)
    hit = np.zeros(len(keys), dtype=bool)
    hit[pos_ok] = sorted_keys[pos[pos_ok]] == keys[pos_ok]
    return hit, pos[hit]


def _half_away(x: np.ndarray) -> np.ndarray:
    """Round half AWAY from zero, matching DuckDB round() — np.rint is
    banker's (half-to-even) and diverges on exact .5 ties (the same
    trap numutil.round6 exists for)."""
    return (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)


def _cents(x: np.ndarray) -> np.ndarray:
    """Exact int64 cents from a 2-decimal float column."""
    return _half_away(x * 100.0)


# broadcast the customer dimension when it fits comfortably in a
# worker heap (rows x 16 B); shuffle-join above the cap. Strategy
# choice must never change results (asserted in tests/test_joins.py
# by forcing each path).
JOIN_BROADCAST_CAP = 4_000_000


def revenue_by_nation(sf_dir: str) -> pa.Table:
    """Order revenue per nation: orders JOIN customer ON custkey JOIN
    nation — the canonical distributed equi-join, with automatic
    strategy selection:

    - customer side <= JOIN_BROADCAST_CAP rows: BROADCAST hash join.
      The (custkey -> nationkey) map ships once via ray.put as two
      sorted numpy arrays (zero-copy ray.get); each orders batch
      aggregates per custkey, searchsorted-joins to nationkey, and
      emits per-NATION partials — zero wide exchange beyond the final
      25-row groupby.
    - larger: bucketed SHUFFLE hash join. Both sides bucket by custkey
      hash-mask (auto-sized), the orders side is pre-aggregated per
      custkey inside map_batches BEFORE the exchange, the per-bucket
      merge is one pandas inner join emitting per-nation partials.
      The shuffle never carries a raw order row.

    Either way the 25-row nation name table joins driver-side."""
    import pyarrow.parquet as pq
    from ray.data.aggregate import Sum

    from raysearch.hashing import auto_buckets

    n_cust = _n_rows(sf_dir, "customer.parquet")
    if n_cust <= JOIN_BROADCAST_CAP:
        return _revenue_broadcast(sf_dir)
    nb = auto_buckets(_n_rows(sf_dir, "orders.parquet"))

    def o_partial(df: pd.DataFrame) -> pd.DataFrame:
        ck = df["o_custkey"].to_numpy(np.int64)
        g = (pd.DataFrame({
                "custkey": ck,
                "cents": _cents(df["o_totalprice"].to_numpy(np.float64))})
             .groupby("custkey", as_index=False)
             .agg(n_orders=("cents", "size"), cents=("cents", "sum")))
        g["bucket"] = g.custkey.to_numpy() & (nb - 1)
        g["nationkey"] = np.int64(-1)
        return g[["bucket", "custkey", "nationkey", "n_orders", "cents"]]

    def c_rows(df: pd.DataFrame) -> pd.DataFrame:
        ck = df["c_custkey"].to_numpy(np.int64)
        return pd.DataFrame({
            "bucket": ck & (nb - 1),
            "custkey": ck,
            "nationkey": df["c_nationkey"].to_numpy(np.int64),
            "n_orders": np.int64(0),
            "cents": np.int64(0)})

    def join_kern(g: pd.DataFrame) -> pd.DataFrame:
        c = g[g.nationkey >= 0][["custkey", "nationkey"]]
        o = (g[g.nationkey < 0]
             .groupby("custkey", as_index=False)
             .agg(n_orders=("n_orders", "sum"), cents=("cents", "sum")))
        j = o.merge(c, on="custkey", how="inner")
        return (j.groupby("nationkey", as_index=False)
                .agg(n_orders=("n_orders", "sum"), cents=("cents", "sum")))

    orders = _read(sf_dir, "orders.parquet",
                   columns=["o_custkey", "o_totalprice"]).map_batches(
        o_partial, batch_format="pandas")
    cust = _read(sf_dir, "customer.parquet",
                 columns=["c_custkey", "c_nationkey"]).map_batches(
        c_rows, batch_format="pandas")
    agg = (orders.union(cust)
           .groupby("bucket").map_groups(join_kern, batch_format="pandas")
           .groupby("nationkey").aggregate(
               Sum("n_orders", alias_name="n_orders"),
               Sum("cents", alias_name="revenue_cents")))
    df = agg.to_pandas()
    return _attach_nation_names(sf_dir, df)


def _attach_nation_names(sf_dir: str, df: pd.DataFrame) -> pa.Table:
    import pyarrow.parquet as pq

    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name"]).to_pandas()
    df = df.merge(nation, left_on="nationkey", right_on="n_nationkey",
                  how="inner")
    return pa.table({
        "n_name": pa.array(df.n_name.tolist(), pa.string()),
        "n_orders": pa.array(df.n_orders.to_numpy(np.int64), pa.int64()),
        "revenue_cents": pa.array(df.revenue_cents.to_numpy(np.int64),
                                  pa.int64()),
    })


def _revenue_broadcast(sf_dir: str) -> pa.Table:
    """Broadcast-side of revenue_by_nation: the (custkey, nationkey)
    map is two sorted int64 numpy arrays in the object store —
    zero-copy on every ray.get — and each orders batch emits
    per-nation partials directly, so the ONLY exchange is the final
    nation-cardinality groupby of partial rows."""
    import pyarrow.parquet as pq
    import ray
    from ray.data.aggregate import Sum

    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_nationkey"])
    ck = cust["c_custkey"].to_numpy().astype(np.int64)
    nk = cust["c_nationkey"].to_numpy().astype(np.int64)
    order = np.argsort(ck)
    dim_ref = ray.put((ck[order], nk[order]))

    def o_partial(df: pd.DataFrame) -> pd.DataFrame:
        cks, nks = ray.get(dim_ref)  # zero-copy numpy views
        g = (pd.DataFrame({
                "custkey": df["o_custkey"].to_numpy(np.int64),
                "cents": _cents(df["o_totalprice"].to_numpy(np.float64))})
             .groupby("custkey", as_index=False)
             .agg(n_orders=("cents", "size"), cents=("cents", "sum")))
        keys = g.custkey.to_numpy()
        pos = np.searchsorted(cks, keys)
        pos_ok = pos < len(cks)
        hit = np.zeros(len(keys), dtype=bool)
        hit[pos_ok] = cks[pos[pos_ok]] == keys[pos_ok]
        g = g[hit].assign(nationkey=nks[pos[hit]])
        return (g.groupby("nationkey", as_index=False)
                .agg(n_orders=("n_orders", "sum"),
                     cents=("cents", "sum")))

    agg = (_read(sf_dir, "orders.parquet",
                 columns=["o_custkey", "o_totalprice"])
           .map_batches(o_partial, batch_format="pandas")
           .groupby("nationkey").aggregate(
               Sum("n_orders", alias_name="n_orders"),
               Sum("cents", alias_name="revenue_cents")))
    return _attach_nation_names(sf_dir, agg.to_pandas())


# ---- Q3-shaped shipping priority (3-way join + global top-k) ----

Q3_SEGMENT = "BUILDING"
Q3_CUTOFF = __import__("datetime").datetime(1998, 1, 1)
Q3_K = 10


@fmt_doc(k=Q3_K, seg=Q3_SEGMENT, cut=Q3_CUTOFF.date())
def top_unshipped_orders(sf_dir: str) -> pa.Table:
    """TPC-H-Q3-shaped shipping priority: the {k} highest-revenue
    orders from '{seg}'-segment customers placed before {cut} whose
    lineitems shipped after it — revenue in exact integer c4 units
    (cents x (100 - discount)), ties broken (orderdate, orderkey).

    Shape: both fact sides are FILTERED AT THE READ (date predicates
    push into parquet row groups; only 3 columns of lineitem leave
    storage). The segment's custkeys broadcast once via ray.put as a
    sorted array (customer/5 rows; beyond JOIN_BROADCAST_CAP this
    raises rather than silently degrading — the >cap implementation
    is revenue_by_nation's bucketed-shuffle membership join, the same
    two-sided exchange with the segment filter pushed into the
    customer read); orders batches membership-filter by searchsorted and
    emit (orderkey, date) rows; lineitem batches pre-aggregate revenue
    per orderkey map-side. ONE orderkey-bucketed exchange joins them;
    each group emits only its local top-{k}, so the driver merges
    n_buckets x {k} rows — never the joined table. The global sort
    this replaces is the most expensive all-to-all at scale."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    import ray

    from raysearch.hashing import auto_buckets

    # gate on the UNFILTERED dimension size BEFORE any driver read
    # (same budget rule as revenue_by_nation); a hard raise, not an
    # assert, so python -O cannot strip it
    n_cust = _n_rows(sf_dir, "customer.parquet")
    if n_cust > JOIN_BROADCAST_CAP:
        raise ValueError(
            f"customer side ({n_cust} rows) exceeds the broadcast cap; "
            "use the bucketed-shuffle membership join "
            "(revenue_by_nation's >cap path) with the segment filter "
            "pushed into the customer read")
    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey"],
        filters=[("c_mktsegment", "==", Q3_SEGMENT)])
    ck = np.sort(cust["c_custkey"].to_numpy().astype(np.int64))
    ck_ref = ray.put(ck)
    nb = auto_buckets(_n_rows(sf_dir, "orders.parquet"))

    # side flag (0 = order row, 1 = lineitem partial) — NOT a date
    # sentinel, so pre-1970 (negative-epoch) order dates stay valid
    def o_rows(df: pd.DataFrame) -> pd.DataFrame:
        cks = ray.get(ck_ref)  # zero-copy numpy view
        keys = df["o_custkey"].to_numpy(np.int64)
        hit, _ = _sorted_hits(cks, keys)
        ok = df["o_orderkey"].to_numpy(np.int64)[hit]
        dus = _epoch_us(df["o_orderdate"])[hit]
        return pd.DataFrame({
            "bucket": ok & (nb - 1), "orderkey": ok, "side": np.int64(0),
            "date_us": dus, "c4": np.int64(0)})

    def l_partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = _cents(df["l_extendedprice"].to_numpy(np.float64))
        disc = _half_away(df["l_discount"].to_numpy(np.float64) * 100.0)
        g = (pd.DataFrame({
                "orderkey": df["l_orderkey"].to_numpy(np.int64),
                "c4": cents * (100 - disc)})
             .groupby("orderkey", as_index=False).agg(c4=("c4", "sum")))
        return g.assign(bucket=g.orderkey.to_numpy() & (nb - 1),
                        side=np.int64(1), date_us=np.int64(0))[
            ["bucket", "orderkey", "side", "date_us", "c4"]]

    def topk_kern(g: pd.DataFrame) -> pd.DataFrame:
        o = g[g.side == 0][["orderkey", "date_us"]]
        li = (g[g.side == 1]
              .groupby("orderkey", as_index=False).agg(c4=("c4", "sum")))
        j = o.merge(li, on="orderkey", how="inner")
        return j.sort_values(["c4", "date_us", "orderkey"],
                             ascending=[False, True, True]).head(Q3_K)

    orders = _read(sf_dir, "orders.parquet",
                   columns=["o_orderkey", "o_custkey", "o_orderdate"],
                   filter=pads.field("o_orderdate") < Q3_CUTOFF
                   ).map_batches(o_rows, batch_format="pandas")
    li = _read(sf_dir, "lineitem.parquet",
               columns=["l_orderkey", "l_extendedprice", "l_discount"],
               filter=pads.field("l_shipdate") > Q3_CUTOFF
               ).map_batches(l_partial, batch_format="pandas")
    out = (orders.union(li)
           .groupby("bucket").map_groups(topk_kern,
                                         batch_format="pandas"))
    df = out.to_pandas()
    if "orderkey" not in df.columns:  # zero groups ran (empty input)
        df = pd.DataFrame({"orderkey": np.array([], dtype=np.int64),
                           "date_us": np.array([], dtype=np.int64),
                           "c4": np.array([], dtype=np.int64)})
    df = df.sort_values(["c4", "date_us", "orderkey"],
                        ascending=[False, True, True]).head(Q3_K)
    return pa.table({
        "o_orderkey": pa.array(df.orderkey.to_numpy(np.int64),
                               pa.int64()),
        "orderdate_us": pa.array(df.date_us.to_numpy(np.int64),
                                 pa.int64()),
        "revenue_c4": pa.array(df.c4.to_numpy(np.int64), pa.int64()),
    })


def pricing_summary(sf_dir: str) -> pa.Table:
    """TPC-H-Q1-shaped pricing summary over lineitem, grouped by
    (returnflag, linestatus): quantity sum, base price, and discounted
    price — all in exact integer units (cents / 1e-4 dollars) so the
    result is bit-identical to the SQL oracle under ANY summation
    order. Pure combiner pattern: per-batch partials, tiny final
    groupby (cardinality = |flags| x |statuses|)."""
    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = _cents(df["l_extendedprice"].to_numpy(np.float64))
        disc = _half_away(
            df["l_discount"].to_numpy(np.float64) * 100.0)
        g = pd.DataFrame({
            "l_returnflag": df["l_returnflag"].to_numpy(),
            "l_linestatus": df["l_linestatus"].to_numpy(),
            "sum_qty": _half_away(
                df["l_quantity"].to_numpy(np.float64)),
            "base_price_cents": cents,
            "disc_price_c4": cents * (100 - disc),
            "n_rows": np.int64(1)})
        return (g.groupby(["l_returnflag", "l_linestatus"],
                          as_index=False).sum())

    ds = _read(sf_dir, "lineitem.parquet",
               columns=["l_returnflag", "l_linestatus", "l_quantity",
                        "l_extendedprice", "l_discount"]).map_batches(
        partial, batch_format="pandas")
    agg = ds.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty", alias_name="sum_qty"),
        Sum("base_price_cents", alias_name="base_price_cents"),
        Sum("disc_price_c4", alias_name="disc_price_c4"),
        Sum("n_rows", alias_name="n_rows"))
    df = agg.to_pandas()
    return pa.table({
        "l_returnflag": pa.array(df.l_returnflag.tolist(), pa.string()),
        "l_linestatus": pa.array(df.l_linestatus.tolist(), pa.string()),
        "sum_qty": pa.array(df.sum_qty.to_numpy(np.int64), pa.int64()),
        "base_price_cents": pa.array(
            df.base_price_cents.to_numpy(np.int64), pa.int64()),
        "disc_price_c4": pa.array(df.disc_price_c4.to_numpy(np.int64),
                                  pa.int64()),
        "n_rows": pa.array(df.n_rows.to_numpy(np.int64), pa.int64()),
    })


# ---- oracle SQL ----

def sql_asof_join() -> str:
    return f"""
WITH w AS (
  SELECT event_id, user_id, epoch_us(ts)::BIGINT AS ts_us, event_type,
         last_value(CASE WHEN event_type = '{ASOF_RIGHT}'
                         THEN event_id END IGNORE NULLS)
           OVER u AS pid,
         last_value(CASE WHEN event_type = '{ASOF_RIGHT}'
                         THEN epoch_us(ts)::BIGINT END IGNORE NULLS)
           OVER u AS pts
  FROM events WHERE event_type IN ('{ASOF_LEFT}', '{ASOF_RIGHT}')
  WINDOW u AS (PARTITION BY user_id ORDER BY epoch_us(ts), event_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
)
SELECT event_id, user_id, ts_us,
       COALESCE(pid, -1)::BIGINT AS prior_event_id,
       COALESCE(ts_us - pts, -1)::BIGINT AS gap_us
FROM w WHERE event_type = '{ASOF_LEFT}'
"""


def sql_range_join_events() -> str:
    return f"""
SELECT a.event_id AS ev_a, b.event_id AS ev_b,
       (epoch_us(b.ts) - epoch_us(a.ts))::BIGINT AS gap_us
FROM events a JOIN events b ON a.user_id = b.user_id
  AND (b.ts > a.ts OR (b.ts = a.ts AND b.event_id > a.event_id))
  AND epoch_us(b.ts) - epoch_us(a.ts) <= {RANGE_US}
"""


def sql_sample_split() -> str:
    return """
SELECT CASE WHEN substr(md5(CAST(doc_id AS VARCHAR)), 1, 1) < 'c'
            THEN 'train'
            WHEN substr(md5(CAST(doc_id AS VARCHAR)), 1, 1) < 'e'
            THEN 'val' ELSE 'test' END AS split,
       count(*)::BIGINT AS n_docs,
       sum(n_chars)::BIGINT AS total_chars
FROM documents GROUP BY 1
"""


def sql_revenue_by_nation() -> str:
    return """
SELECT n_name, count(*)::BIGINT AS n_orders,
       sum(CAST(round(o_totalprice * 100, 0) AS BIGINT))::BIGINT
         AS revenue_cents
FROM orders
JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
GROUP BY n_name
"""


# stratified sampling: per-language keep rates in 16ths (exact hex-
# digit thresholds, so membership is reproducible from md5(doc_id)
# alone on any engine — same contract as sample_split). The dominant
# language is downsampled hardest: the standard rebalancing move for
# a pre-training mix.
STRATA_HEX = {"en": "4"}       # en: 4/16 = 25 %
STRATA_DEFAULT_HEX = "8"       # everything else: 8/16 = 50 %


def stratified_sample(sf_dir: str) -> pa.Table:
    """Deterministic per-language stratified sample of the documents
    table: keep doc iff first md5(doc_id) hex digit < the language's
    threshold. Map-only (embarrassingly parallel — no shuffle at all);
    returns the sampled (doc_id, lang) membership so the driver
    value-hash checks exact membership, not just counts."""
    import hashlib

    def pick(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy()
        langs = np.asarray(b["lang"].to_pylist(), dtype=object)
        d0 = np.array([hashlib.md5(str(int(i)).encode()).hexdigest()[0]
                       for i in ids])
        thr = np.array([STRATA_HEX.get(l, STRATA_DEFAULT_HEX)
                        for l in langs])
        keep = d0 < thr
        return pa.table({
            "doc_id": pa.array(ids[keep], pa.int64()),
            "lang": pa.array(langs[keep].tolist(), pa.string()),
        })

    ds = _read(sf_dir, _DOCS, columns=["doc_id", "lang"]).map_batches(
        pick, batch_format="pyarrow", zero_copy_batch=True)
    return pa.concat_tables(ds.iter_batches(batch_format="pyarrow"))


def sql_stratified_sample() -> str:
    cases = " ".join(f"WHEN '{l}' THEN '{h}'"
                     for l, h in sorted(STRATA_HEX.items()))
    return f"""
SELECT doc_id, lang FROM documents
WHERE substr(md5(doc_id::VARCHAR), 1, 1)
      < CASE lang {cases} ELSE '{STRATA_DEFAULT_HEX}' END
"""


def sql_pricing_summary() -> str:
    return """
SELECT l_returnflag, l_linestatus,
       sum(CAST(round(l_quantity, 0) AS BIGINT))::BIGINT AS sum_qty,
       sum(CAST(round(l_extendedprice * 100, 0) AS BIGINT))::BIGINT
         AS base_price_cents,
       sum(CAST(round(l_extendedprice * 100, 0) AS BIGINT)
           * (100 - CAST(round(l_discount * 100, 0) AS BIGINT)))::BIGINT
         AS disc_price_c4,
       count(*)::BIGINT AS n_rows
FROM lineitem GROUP BY l_returnflag, l_linestatus
"""


def sql_top_unshipped_orders() -> str:
    cut = Q3_CUTOFF.strftime("%Y-%m-%d")
    return f"""
SELECT o_orderkey,
       epoch_us(o_orderdate)::BIGINT AS orderdate_us,
       sum(CAST(round(l_extendedprice * 100, 0) AS BIGINT)
           * (100 - CAST(round(l_discount * 100, 0) AS BIGINT)))::BIGINT
         AS revenue_c4
FROM orders
JOIN lineitem ON l_orderkey = o_orderkey
JOIN customer ON c_custkey = o_custkey
WHERE c_mktsegment = '{Q3_SEGMENT}'
  AND o_orderdate < TIMESTAMP '{cut}'
  AND l_shipdate > TIMESTAMP '{cut}'
GROUP BY 1, 2
ORDER BY revenue_c4 DESC, orderdate_us, o_orderkey
LIMIT {Q3_K}
"""


def _q4_window_rows(sf_dir: str) -> int:
    """Upper bound on window-filtered orders WITHOUT a data read:
    parquet row-group o_orderdate min/max statistics prune groups
    entirely outside [D1, D2); the bound is the sum of surviving
    groups' row counts (exact enough for a strategy choice)."""
    import pyarrow.parquet as pq

    path = os.path.join(sf_dir, "orders.parquet")
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))
              if f.endswith(".parquet")]
             if os.path.isdir(path) else [path])
    total = 0
    for f in files:
        md = pq.read_metadata(f)
        idx = md.schema.to_arrow_schema().get_field_index("o_orderdate")
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(idx).statistics
            if (st is not None and st.has_min_max
                    and (st.min >= Q4_D2 or st.max < Q4_D1)):
                continue
            total += md.row_group(rg).num_rows
    return total


def _order_priority_broadcast(sf_dir: str) -> pa.Table:
    """Broadcast side of order_priority_counts: the window-filtered
    (orderkey, date, priority) columns ship ONCE via ray.put as
    sorted numpy arrays; each lineitem batch collapses to
    per-orderkey MAX(shipdate), searchsorted-joins the order side,
    and emits ONLY the okeys it saw a late line for. An order is late
    iff ANY batch saw a late line, so the driver reduce is a plain
    unique over the emitted keys — bounded by the (capped) window
    order count, with no exchange at all."""
    import pyarrow.parquet as pq
    import ray

    ords = pq.read_table(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
        filters=[("o_orderdate", ">=", Q4_D1),
                 ("o_orderdate", "<", Q4_D2)])
    ok = ords["o_orderkey"].to_numpy().astype(np.int64)
    odate = ords["o_orderdate"].cast(pa.timestamp("us")).to_numpy()         .astype("datetime64[us]").astype(np.int64)
    prio = np.asarray(ords["o_orderpriority"].to_pylist(), dtype=object)
    order = np.argsort(ok)
    ok, odate, prio = ok[order], odate[order], prio[order]
    side = ray.put((ok, odate))

    def l_flags(df: pd.DataFrame) -> pd.DataFrame:
        oks, odates = ray.get(side)  # zero-copy numpy views
        g = (pd.DataFrame({
                "okey": df["l_orderkey"].to_numpy(np.int64),
                "ms": _epoch_us(df["l_shipdate"])})
             .groupby("okey", as_index=False).agg(ms=("ms", "max")))
        keys = g.okey.to_numpy()
        pos = np.searchsorted(oks, keys)
        pos_ok = pos < len(oks)
        hit = np.zeros(len(keys), dtype=bool)
        hit[pos_ok] = oks[pos[pos_ok]] == keys[pos_ok]
        late = np.zeros(len(keys), dtype=bool)
        late[hit] = (g.ms.to_numpy(np.int64)[hit]
                     > odates[pos[hit]] + Q4_LATE_US)
        return pd.DataFrame({"okey": keys[late]})

    out = (_read(sf_dir, "lineitem.parquet",
                 columns=["l_orderkey", "l_shipdate"])
           .map_batches(l_flags, batch_format="pandas"))
    chunks = [b["okey"].to_numpy()
              for b in out.iter_batches(batch_format="pyarrow")
              if len(b)]
    late_keys = (np.unique(np.concatenate(chunks)).astype(np.int64)
                 if chunks else np.array([], dtype=np.int64))
    lp = prio[np.searchsorted(ok, late_keys)]
    u, c = np.unique(lp.astype(str), return_counts=True)
    order2 = np.argsort(u)
    return pa.table({
        "o_orderpriority": pa.array(u[order2].tolist(), pa.string()),
        "n_orders": pa.array(c[order2].astype(np.int64), pa.int64()),
    })


Q4_D1 = __import__("datetime").datetime(1996, 1, 1)
Q4_D2 = __import__("datetime").datetime(1997, 1, 1)
Q4_LATE_US = 60 * 86_400_000_000  # late = shipped > 60 days after order


def order_priority_counts(sf_dir: str) -> pa.Table:
    """TPC-H-Q4-shaped order-priority check, adapted to this schema's
    columns: count 1996 orders per o_orderpriority where EXISTS a
    lineitem shipped more than 60 days after the order date. The
    distributed EXISTS semi-join: the predicate needs columns from
    BOTH sides (l_shipdate vs o_orderdate), so lineitem collapses
    map-side to per-orderkey MAX(l_shipdate) partials (exists late
    line <=> max_ship > odate + 60d — the semi-join never ships a raw
    lineitem row), both sides bucket by orderkey hash-mask, the
    per-bucket kernel resolves the EXISTS with one searchsorted-free
    pandas merge, and per-priority partial counts roll up through a
    priority-cardinality groupby. Order rows outside the date window
    are dropped AT THE READ (parquet predicate pushdown).

    Auto-strategy (the revenue_by_nation pattern): when the
    date-FILTERED orders side fits JOIN_BROADCAST_CAP, it broadcasts
    as three sorted numpy arrays (zero-copy ray.get) and each
    lineitem batch resolves EXISTS locally, emitting per-priority
    partials — the only exchange is the 5-row priority groupby.
    Above the cap, the bucketed shuffle path below. The strategy must
    never change results (asserted in tests)."""
    from ray.data.aggregate import Sum

    from raysearch.hashing import auto_buckets

    n_win = _q4_window_rows(sf_dir)
    if n_win <= JOIN_BROADCAST_CAP:
        return _order_priority_broadcast(sf_dir)
    nb = auto_buckets(_n_rows(sf_dir, "orders.parquet"))

    def l_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = (pd.DataFrame({
                "okey": df["l_orderkey"].to_numpy(np.int64),
                "v": _epoch_us(df["l_shipdate"])})
             .groupby("okey", as_index=False).agg(v=("v", "max")))
        g["bucket"] = g.okey.to_numpy() & (nb - 1)
        g["prio"] = ""
        g["side"] = np.int64(0)
        return g[["bucket", "okey", "v", "prio", "side"]]

    def o_rows(df: pd.DataFrame) -> pd.DataFrame:
        ok = df["o_orderkey"].to_numpy(np.int64)
        return pd.DataFrame({
            "bucket": ok & (nb - 1),
            "okey": ok,
            "v": _epoch_us(df["o_orderdate"]),
            "prio": df["o_orderpriority"].astype(str),
            "side": np.int64(1)})

    def exists_kern(g: pd.DataFrame) -> pd.DataFrame:
        o = g[g.side == 1]
        li = (g[g.side == 0].groupby("okey", as_index=False)
              .agg(ms=("v", "max")))
        j = o.merge(li, on="okey", how="inner")
        late = j[j.ms > j.v + Q4_LATE_US]
        return (late.groupby("prio", as_index=False)
                .agg(n_orders=("okey", "size")))

    lines = _read(sf_dir, "lineitem.parquet",
                  columns=["l_orderkey", "l_shipdate"]).map_batches(
        l_partial, batch_format="pandas")
    import pyarrow.dataset as pads

    orders = _read(sf_dir, "orders.parquet",
                   columns=["o_orderkey", "o_orderdate",
                            "o_orderpriority"],
                   filter=((pads.field("o_orderdate") >= Q4_D1)
                           & (pads.field("o_orderdate") < Q4_D2))
                   ).map_batches(o_rows, batch_format="pandas")
    agg = (lines.union(orders)
           .groupby("bucket").map_groups(exists_kern,
                                         batch_format="pandas")
           .groupby("prio").aggregate(Sum("n_orders",
                                          alias_name="n_orders")))
    df = agg.to_pandas().sort_values("prio", ignore_index=True)
    return pa.table({
        "o_orderpriority": pa.array(df.prio.tolist(), pa.string()),
        "n_orders": pa.array(df.n_orders.to_numpy(np.int64),
                             pa.int64()),
    })


def sql_order_priority_counts() -> str:
    return f"""
SELECT o_orderpriority, count(*)::BIGINT AS n_orders
FROM orders o
WHERE o.o_orderdate >= TIMESTAMP '1996-01-01'
  AND o.o_orderdate < TIMESTAMP '1997-01-01'
  AND EXISTS (SELECT 1 FROM lineitem l
              WHERE l.l_orderkey = o.o_orderkey
                AND epoch_us(l.l_shipdate)
                    > epoch_us(o.o_orderdate) + {Q4_LATE_US})
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


def running_user_value(sf_dir: str) -> pa.Table:
    """The SQL running-window workhorse, distributed: each event's
    cumulative value over the SAME USER's history in (ts, event_id)
    order — sum(value) OVER (PARTITION BY user ORDER BY ts, event_id
    ROWS UNBOUNDED PRECEDING), in exact int64 cents so the prefix sum
    is bit-identical under any execution order.

    Shape: ONE coarse user-hash exchange (a user's whole history
    co-locates); the in-group kernel is vectorized ACROSS users — one
    global lexsort + one global cumsum, per-user reset via the
    segment-start base trick (running = cum - (cum[start] -
    cents[start])), no per-user dispatch."""
    from raysearch.hashing import auto_buckets

    nb = auto_buckets(_n_rows(sf_dir, _EVENTS))

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        uid, eid, tus, order, start, n = _user_sorted(g)
        cents = _cents(g["value"].to_numpy(np.float64))[order]
        cum = np.cumsum(cents)
        base = cum[start] - cents[start]
        return pd.DataFrame({
            "event_id": eid,
            "user_id": uid,
            "ts_us": tus,
            "run_cents": cum - base,
        })

    ds = _read(sf_dir, _EVENTS,
               columns=["event_id", "ts", "user_id", "value"])
    out = (_user_bucketed(ds, nb)
           .groupby("upart").map_groups(kern, batch_format="pandas"))
    df = out.to_pandas().sort_values("event_id", ignore_index=True)
    return pa.table({
        "event_id": pa.array(df.event_id.to_numpy(np.int64), pa.int64()),
        "user_id": pa.array(df.user_id.to_numpy(np.int64), pa.int64()),
        "ts_us": pa.array(df.ts_us.to_numpy(np.int64), pa.int64()),
        "run_cents": pa.array(df.run_cents.to_numpy(np.int64),
                              pa.int64()),
    })


def sql_running_user_value() -> str:
    return """
SELECT event_id, user_id, epoch_us(ts) AS ts_us,
       sum(CAST(round(value * 100, 0) AS BIGINT)) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS UNBOUNDED PRECEDING)::BIGINT AS run_cents
FROM events ORDER BY event_id
"""


def event_transitions(sf_dir: str) -> pa.Table:
    """Markov transition counts over per-user event sequences: for
    every (prev_type, next_type) pair, how many adjacent steps in some
    user's (ts, event_id)-ordered history make that transition — the
    sequence-mining bigram (oracle = SQL lag() window).

    Shape: ONE coarse user-hash exchange; in-group the kernel is the
    shared _user_sorted lexsort, a shift-compare for segment interiors
    (vectorized across users), and a type-pair groupby producing
    per-(pair, bucket) additive partials that roll up through a
    type^2-cardinality groupby."""
    from ray.data.aggregate import Sum

    from raysearch.hashing import auto_buckets

    nb = auto_buckets(_n_rows(sf_dir, _EVENTS))

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        uid, eid, tus, order, start, n = _user_sorted(g)
        types = g["event_type"].to_numpy()[order]
        if n < 2:
            return pd.DataFrame({"prev_type": [], "next_type": [],
                                 "n": []})
        interior = uid[1:] == uid[:-1]   # same-user adjacent steps
        d = pd.DataFrame({"prev_type": types[:-1][interior],
                          "next_type": types[1:][interior]})
        return d.groupby(["prev_type", "next_type"],
                         as_index=False).agg(n=("prev_type", "size"))

    ds = _read(sf_dir, _EVENTS,
               columns=["event_id", "ts", "user_id", "event_type"])
    agg = (_user_bucketed(ds, nb)
           .groupby("upart").map_groups(kern, batch_format="pandas")
           .groupby(["prev_type", "next_type"]).aggregate(
               Sum("n", alias_name="n")))
    df = agg.to_pandas().sort_values(["prev_type", "next_type"],
                                     ignore_index=True)
    return pa.table({
        "prev_type": pa.array(df.prev_type.tolist(), pa.string()),
        "next_type": pa.array(df.next_type.tolist(), pa.string()),
        "n": pa.array(df.n.to_numpy(np.int64), pa.int64()),
    })


def sql_event_transitions() -> str:
    return """
WITH s AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev_type
  FROM events
)
SELECT prev_type, event_type AS next_type, count(*)::BIGINT AS n
FROM s WHERE prev_type IS NOT NULL
GROUP BY prev_type, next_type
ORDER BY prev_type, next_type
"""


PATHS_K = 20


def user_paths(sf_dir: str) -> pa.Table:
    """Top-PATHS_K order-3 user paths: the most frequent (t1, t2, t3)
    event-type TRIPLES over consecutive same-user steps under the
    (ts, event_id) total order — event_transitions' sequence-mining
    big brother (oracle = two stacked lag() windows), ranked
    (count DESC, t1, t2, t3).

    Shape: identical to event_transitions — ONE coarse user-hash
    exchange, the shared _user_sorted kernel, a double shift-compare
    for interior triples (vectorized across users), per-(triple,
    bucket) additive partials, a type^3-cardinality rollup, and a
    k-bounded driver cut."""
    from ray.data.aggregate import Sum

    from raysearch.hashing import auto_buckets

    nb = auto_buckets(_n_rows(sf_dir, _EVENTS))

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        uid, eid, tus, order, start, n = _user_sorted(g)
        types = g["event_type"].to_numpy()[order]
        if n < 3:
            return pd.DataFrame({"t1": [], "t2": [], "t3": [],
                                 "n": []})
        interior = (uid[2:] == uid[:-2]) & (uid[1:-1] == uid[:-2])
        d = pd.DataFrame({"t1": types[:-2][interior],
                          "t2": types[1:-1][interior],
                          "t3": types[2:][interior]})
        return d.groupby(["t1", "t2", "t3"],
                         as_index=False).agg(n=("t1", "size"))

    ds = _read(sf_dir, _EVENTS,
               columns=["event_id", "ts", "user_id", "event_type"])
    agg = (_user_bucketed(ds, nb)
           .groupby("upart").map_groups(kern, batch_format="pandas")
           .groupby(["t1", "t2", "t3"]).aggregate(
               Sum("n", alias_name="n")))
    df = agg.to_pandas()
    if "t1" not in df.columns or not len(df):
        return pa.table({"t1": pa.array([], pa.string()),
                         "t2": pa.array([], pa.string()),
                         "t3": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    df = (df.sort_values(["n", "t1", "t2", "t3"],
                         ascending=[False, True, True, True],
                         ignore_index=True).head(PATHS_K))
    return pa.table({
        "t1": pa.array(df.t1.tolist(), pa.string()),
        "t2": pa.array(df.t2.tolist(), pa.string()),
        "t3": pa.array(df.t3.tolist(), pa.string()),
        "n": pa.array(df.n.to_numpy(np.int64), pa.int64()),
    })


def sql_user_paths() -> str:
    return f"""
WITH s AS (
  SELECT user_id, event_type AS t3,
         lag(event_type, 1) OVER w AS t2,
         lag(event_type, 2) OVER w AS t1
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT t1, t2, t3, count(*)::BIGINT AS n
FROM s WHERE t1 IS NOT NULL
GROUP BY t1, t2, t3
ORDER BY n DESC, t1, t2, t3
LIMIT {PATHS_K}
"""


QUERIES = {
    "asof_join": asof_join,
    "order_priority_counts": order_priority_counts,
    "running_user_value": running_user_value,
    "event_transitions": event_transitions,
    "user_paths": user_paths,
    "range_join_events": range_join_events,
    "sample_split": sample_split,
    "stratified_sample": stratified_sample,
    "revenue_by_nation": revenue_by_nation,
    "pricing_summary": pricing_summary,
    "top_unshipped_orders": top_unshipped_orders,
}

ORACLE_SQL = {
    "asof_join": sql_asof_join(),
    "order_priority_counts": sql_order_priority_counts(),
    "running_user_value": sql_running_user_value(),
    "event_transitions": sql_event_transitions(),
    "user_paths": sql_user_paths(),
    "range_join_events": sql_range_join_events(),
    "sample_split": sql_sample_split(),
    "stratified_sample": sql_stratified_sample(),
    "revenue_by_nation": sql_revenue_by_nation(),
    "pricing_summary": sql_pricing_summary(),
    "top_unshipped_orders": sql_top_unshipped_orders(),
}
