"""Stream-shaped ops over the ``events`` table (event_id, ts, user_id,
event_type, value, props).

Ray Data has no event-time windows (SURVEY §2.6: the reference's only
"stream" is an unordered MPMC query channel, no windows/watermarks
either); windows are expressed as batch transforms:

- tumbling window: pre-aggregated map-side per (event_type, window)
  inside map_batches — one partial row per key per batch — then a
  narrow groupby sums partials (the combiner pattern; the shuffle
  carries partials, not events).
- sessionization: groupby(user_id).map_groups over ts-sorted groups
  (gap > 30 min starts a new session). The partitioning assumption —
  all of a user's events in one group — is exactly what the groupby
  provides.

All timestamps are compared in integer MICROSECONDS on both sides
(epoch_us in DuckDB) so float-epoch rounding can never flip a window
or session boundary.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from raysearch.numutil import round6

_EVENTS = "events.parquet"
WINDOW_US = 3_600_000_000        # 1 hour
SESSION_GAP_US = 1_800_000_000   # 30 minutes


def _read_events(sf_dir: str, columns):
    import ray.data

    return ray.data.read_parquet(os.path.join(sf_dir, _EVENTS),
                                 columns=columns)


def _epoch_us(ts: pd.Series) -> np.ndarray:
    return ts.astype("datetime64[us]").astype("int64").to_numpy()


def events_window(sf_dir: str) -> pa.Table:
    """Tumbling 1-hour windows per event_type: count + value sum."""
    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        tus = _epoch_us(df["ts"])
        win = (tus // WINDOW_US) * WINDOW_US
        g = (df.assign(window_start_us=win)
               .groupby(["event_type", "window_start_us"], as_index=False)
               .agg(n=("value", "size"), sum_value=("value", "sum")))
        return g

    ds = _read_events(sf_dir, ["ts", "event_type", "value"]).map_batches(
        partial, batch_format="pandas")
    agg = ds.groupby(["event_type", "window_start_us"]).aggregate(
        Sum("n", alias_name="n"), Sum("sum_value", alias_name="sum_value"))
    df = agg.to_pandas()
    return pa.table({
        "event_type": pa.array(df.event_type.tolist(), pa.string()),
        "window_start_us": pa.array(
            df.window_start_us.to_numpy(np.int64), pa.int64()),
        "n": pa.array(df.n.to_numpy(np.int64), pa.int64()),
        "sum_value": pa.array(round6(df.sum_value.to_numpy(np.float64)),
                              pa.float64()),
    })


def _n_events(sf_dir: str) -> int:
    from raysearch.hashing import parquet_rows

    return parquet_rows(os.path.join(sf_dir, _EVENTS))


def _user_bucket_mapper(n_upart: int):
    """map_batches fn appending the coarse user-hash partition column
    (bitmask of the power-of-two bucket count)."""
    def add_upart(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        upart = pc.cast(
            pc.bit_wise_and(b["user_id"], n_upart - 1), pa.int64())
        return b.append_column("upart", upart)
    return add_upart


def _session_sorted(g: pd.DataFrame):
    """Sort one coarse user-bucket group by (user_id, ts_us,
    event_id) — the deterministic total order the SQL oracles share —
    and assign gap-based session ids. The ONE place the session
    contract lives (user_sessions and session_funnel both call it)."""
    tus = _epoch_us(g["ts"])
    uid = g["user_id"].to_numpy()
    eid = g["event_id"].to_numpy()
    order = np.lexsort((eid, tus, uid))
    uid, tus = uid[order], tus[order]
    brk = np.ones(len(g), dtype=np.int64)
    if len(g) > 1:
        brk[1:] = ((uid[1:] != uid[:-1])
                   | (np.diff(tus) > SESSION_GAP_US)).astype(np.int64)
    return order, uid, tus, np.cumsum(brk)


def user_sessions(sf_dir: str) -> pa.Table:
    """Session windows per user (gap > 30 min splits). Events are
    ordered by (ts, event_id) inside each user — the deterministic
    total order both sides share.

    Keyed by a COARSE user-hash partition (all of a user's events in
    one group — the partitioning assumption — but each reduce group
    holds MANY users): sessionization is vectorized ACROSS users
    inside the group via a user-change flag in the break mask, so
    there is no per-user Python dispatch (the #1 map_groups pitfall
    at 10^9-user scale). Partition cardinality is input-scaled
    (auto_buckets over the footer row count, always a power of two so
    the key is a bitmask) — a fixed constant would make group mass
    linear in input size."""
    from raysearch.hashing import auto_buckets

    n_upart = auto_buckets(_n_events(sf_dir))
    add_upart = _user_bucket_mapper(n_upart)

    def sessionize(g: pd.DataFrame) -> pd.DataFrame:
        _, uid, tus, sid = _session_sorted(g)
        out = (pd.DataFrame({"user_id": uid, "sid": sid, "tus": tus})
               .groupby(["user_id", "sid"], as_index=False)
               .agg(session_start_us=("tus", "min"),
                    n_events=("tus", "size"),
                    session_end_us=("tus", "max")))
        out["duration_us"] = out.session_end_us - out.session_start_us
        return out[["user_id", "session_start_us", "n_events",
                    "duration_us"]]

    ds = _read_events(sf_dir, ["event_id", "ts", "user_id"]).map_batches(
        add_upart, batch_format="pyarrow", zero_copy_batch=True)
    out = ds.groupby("upart").map_groups(sessionize, batch_format="pandas")
    df = out.to_pandas()
    return pa.table({
        "user_id": pa.array(df.user_id.to_numpy(np.int64), pa.int64()),
        "session_start_us": pa.array(
            df.session_start_us.to_numpy(np.int64), pa.int64()),
        "n_events": pa.array(df.n_events.to_numpy(np.int64), pa.int64()),
        "duration_us": pa.array(df.duration_us.to_numpy(np.int64),
                                pa.int64()),
    })


FUNNEL_FROM = "click"     # funnel entry event
FUNNEL_TO = "purchase"    # conversion event


def session_funnel(sf_dir: str) -> pa.Table:
    """Session-level conversion funnel: per session (same 30-min-gap
    sessionization as user_sessions), the click/purchase counts and
    whether the session CONVERTED — a purchase at-or-after the
    session's first click (ts >= first-click ts; equal-timestamp
    purchases count, the contract both sides share).

    Same scale shape as user_sessions (coarse user-hash groups,
    vectorized across users); the funnel logic adds two masks and a
    per-session min/any reduction to the same kernel — composition,
    not a new exchange."""
    from raysearch.hashing import auto_buckets

    n_upart = auto_buckets(_n_events(sf_dir))
    add_upart = _user_bucket_mapper(n_upart)

    def funnel(g: pd.DataFrame) -> pd.DataFrame:
        order, uid, tus, sid = _session_sorted(g)
        et = g["event_type"].to_numpy()[order]
        d = pd.DataFrame({
            "user_id": uid, "sid": sid, "tus": tus,
            "is_from": (et == FUNNEL_FROM),
            "is_to": (et == FUNNEL_TO),
            "from_tus": np.where(et == FUNNEL_FROM, tus, np.int64(2**62)),
        })
        out = (d.groupby(["user_id", "sid"], as_index=False)
               .agg(session_start_us=("tus", "min"),
                    n_from=("is_from", "sum"),
                    n_to=("is_to", "sum"),
                    first_from=("from_tus", "min")))
        # converted: any to-event at-or-after the first from-event —
        # computed per session via the max to-event timestamp
        to_max = (d[d.is_to].groupby(["user_id", "sid"],
                                     as_index=False)
                  .agg(to_max=("tus", "max")))
        out = out.merge(to_max, on=["user_id", "sid"], how="left")
        out["converted"] = ((out.n_from > 0)
                            & out.to_max.notna()
                            & (out.to_max.fillna(-1)
                               >= out.first_from)).astype(np.int64)
        return out[["user_id", "session_start_us", "n_from", "n_to",
                    "converted"]]

    ds = _read_events(sf_dir,
                      ["event_id", "ts", "user_id", "event_type"]
                      ).map_batches(add_upart, batch_format="pyarrow",
                                    zero_copy_batch=True)
    out = ds.groupby("upart").map_groups(funnel, batch_format="pandas")
    df = out.to_pandas()
    if "converted" not in df.columns:  # empty input
        df = pd.DataFrame({c: np.array([], dtype=np.int64) for c in
                           ("user_id", "session_start_us", "n_from",
                            "n_to", "converted")})
    return pa.table({
        "user_id": pa.array(df.user_id.to_numpy(np.int64), pa.int64()),
        "session_start_us": pa.array(
            df.session_start_us.to_numpy(np.int64), pa.int64()),
        "n_clicks": pa.array(df.n_from.to_numpy(np.int64), pa.int64()),
        "n_purchases": pa.array(df.n_to.to_numpy(np.int64), pa.int64()),
        "converted": pa.array(df.converted.to_numpy(np.int64),
                              pa.int64()),
    })


def sql_session_funnel() -> str:
    return f"""
WITH e AS (
  SELECT user_id, event_id, event_type, epoch_us(ts)::BIGINT AS tus
  FROM events
),
b AS (
  SELECT user_id, event_id, event_type, tus,
         CASE WHEN lag(tus) OVER w IS NULL
              OR tus - lag(tus) OVER w > {{gap}}
              THEN 1 ELSE 0 END AS brk
  FROM e
  WINDOW w AS (PARTITION BY user_id ORDER BY tus, event_id)
),
s AS (
  SELECT user_id, event_type, tus,
         sum(brk) OVER (PARTITION BY user_id ORDER BY tus, event_id
                        ROWS UNBOUNDED PRECEDING) AS sid
  FROM b
)
SELECT user_id, min(tus)::BIGINT AS session_start_us,
       count(*) FILTER (event_type = '{{f}}')::BIGINT AS n_clicks,
       count(*) FILTER (event_type = '{{t}}')::BIGINT AS n_purchases,
       COALESCE(count(*) FILTER (event_type = '{{f}}') > 0
                AND max(CASE WHEN event_type = '{{t}}' THEN tus END)
                    >= min(CASE WHEN event_type = '{{f}}' THEN tus END),
                FALSE)::BIGINT AS converted
FROM s GROUP BY user_id, sid
""".format(gap=SESSION_GAP_US, f=FUNNEL_FROM, t=FUNNEL_TO)


HOP_US = 1_800_000_000  # hopping windows: 1 h windows every 30 min


def events_hopping(sf_dir: str) -> pa.Table:
    """Hopping (sliding) 1-hour windows with a 30-minute hop: every
    event belongs to exactly WINDOW/HOP = 2 overlapping windows, both
    emitted MAP-SIDE as pre-aggregated partials (the combiner pattern
    again — the shuffle carries 2 partial rows per (key, batch), not
    2x the events)."""
    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        tus = _epoch_us(df["ts"])
        w0 = (tus // HOP_US) * HOP_US      # latest window containing t
        frames = []
        for k in range(WINDOW_US // HOP_US):
            frames.append(df.assign(window_start_us=w0 - k * HOP_US))
        both = pd.concat(frames, ignore_index=True)
        return (both.groupby(["event_type", "window_start_us"],
                             as_index=False)
                .agg(n=("value", "size"), sum_value=("value", "sum")))

    ds = _read_events(sf_dir, ["ts", "event_type", "value"]).map_batches(
        partial, batch_format="pandas")
    agg = ds.groupby(["event_type", "window_start_us"]).aggregate(
        Sum("n", alias_name="n"), Sum("sum_value", alias_name="sum_value"))
    df = agg.to_pandas()
    return pa.table({
        "event_type": pa.array(df.event_type.tolist(), pa.string()),
        "window_start_us": pa.array(
            df.window_start_us.to_numpy(np.int64), pa.int64()),
        "n": pa.array(df.n.to_numpy(np.int64), pa.int64()),
        "sum_value": pa.array(round6(df.sum_value.to_numpy(np.float64)),
                              pa.float64()),
    })


def sql_events_hopping() -> str:
    return f"""
SELECT event_type,
       ((epoch_us(ts) // {HOP_US} - k) * {HOP_US})::BIGINT
         AS window_start_us,
       count(*)::BIGINT AS n,
       round(sum(value), 6) AS sum_value
FROM events, range(0, {WINDOW_US // HOP_US}) r(k)
GROUP BY 1, 2
"""


QUANTILES = (0.5, 0.95)

# Distributed EXACT rank selection (radix-select): a value's float64
# bits map order-preservingly to uint64, sliced into 16-bit digits.
# Pass 1 histograms the top digit per type (map-side partial counts —
# the shuffle-free combiner; the driver reduces integer counts, which
# are order-independent). The driver walks the cumulative counts to
# the bucket holding each needed order statistic; any bucket bigger
# than FETCH_CAP is refined with another 16-bit digit pass (<= 3
# refinements reaches the full 64 bits, where a bucket is a single
# float and resolves with no fetch). A final pass fetches ONLY the
# resolved buckets' values (<= FETCH_CAP each) for the exact
# interpolation. No stage ever holds a type's full value set.
RADIX_BITS = 16
FETCH_CAP = 65_536  # max values fetched per (type, target) bucket


def _ordered_u64(v: np.ndarray) -> np.ndarray:
    """Order-preserving float64 -> uint64 (IEEE-754 total order:
    flip all bits of negatives, flip just the sign bit otherwise)."""
    b = v.astype(np.float64).view(np.uint64)
    neg = (b >> np.uint64(63)) == 1
    return np.where(neg, ~b, b | np.uint64(1) << np.uint64(63))


def _u64_to_f64(u: int) -> float:
    u = np.uint64(u)
    if (u >> np.uint64(63)) == 0:
        u = ~u
    else:
        u = u & ~(np.uint64(1) << np.uint64(63))
    return float(np.array([u], dtype=np.uint64).view(np.float64)[0])


def _digit_hist(sf_dir: str, jobs: list[tuple[str, int, int]],
                level: int) -> dict[tuple[str, int, int], np.ndarray]:
    """One histogram pass: for each (type, prefix) job at ``level``
    (prefix = the already-resolved high bits, right-aligned), count
    values per next-16-bit digit. Returns {(type, prefix, level):
    counts[65536]}. Map-side partials are (type, digit) count rows;
    the driver reduce is exact integer addition."""
    shift = np.uint64(64 - RADIX_BITS * (level + 1))
    pre_shift = np.uint64(64 - RADIX_BITS * level) if level else None
    want: dict[str, list[int]] = {}
    for t, p, _ in jobs:
        want.setdefault(t, []).append(p)

    def hist(df: pd.DataFrame) -> pd.DataFrame:
        out_t, out_d, out_c = [], [], []
        for t, g in df.groupby("event_type"):
            if t not in want:
                continue
            u = _ordered_u64(g["value"].to_numpy(np.float64))
            for p in want[t]:
                m = (u >> pre_shift) == np.uint64(p) if level else \
                    np.ones(len(u), dtype=bool)
                if not m.any():
                    continue
                d = ((u[m] >> shift)
                     & np.uint64((1 << RADIX_BITS) - 1)).astype(np.int64)
                uniq, cnt = np.unique(d, return_counts=True)
                out_t.extend([t] * len(uniq))
                out_d.append(np.stack([np.full(len(uniq), p,
                                               dtype=np.int64), uniq,
                                       cnt], axis=1))
        pdn = (np.concatenate(out_d) if out_d
               else np.zeros((0, 3), dtype=np.int64))
        return pd.DataFrame({"event_type": out_t, "p": pdn[:, 0],
                             "d": pdn[:, 1], "n": pdn[:, 2]})

    ds = _read_events(sf_dir, ["event_type", "value"]).map_batches(
        hist, batch_format="pandas")
    acc: dict[tuple[str, int, int], np.ndarray] = {
        (t, p, level): np.zeros(1 << RADIX_BITS, dtype=np.int64)
        for t, p, _ in jobs}
    for b in ds.iter_batches(batch_format="pandas"):
        ts = b["event_type"].to_numpy()
        ps = b["p"].to_numpy()
        dg = b["d"].to_numpy()
        ns = b["n"].to_numpy()
        for t in pd.unique(ts):
            for p in np.unique(ps[ts == t]):
                key = (t, int(p), level)
                if key in acc:
                    m = (ts == t) & (ps == p)
                    np.add.at(acc[key], dg[m], ns[m])
    return acc


def _fetch_bucket_values(sf_dir: str, fetches) -> dict:
    """Final pass: collect the values of each resolved (type, prefix,
    level) bucket (each <= FETCH_CAP by construction)."""
    want = {(t, p, lv) for t, p, lv in fetches}

    def grab(df: pd.DataFrame) -> pd.DataFrame:
        out_t, out_p, out_l, out_v = [], [], [], []
        for t, g in df.groupby("event_type"):
            u = _ordered_u64(g["value"].to_numpy(np.float64))
            v = g["value"].to_numpy(np.float64)
            for (tt, p, lv) in want:
                if tt != t:
                    continue
                sh = np.uint64(64 - RADIX_BITS * lv)
                m = (u >> sh) == np.uint64(p)
                if not m.any():
                    continue
                vs = v[m]
                out_t.extend([t] * len(vs))
                out_p.extend([p] * len(vs))
                out_l.extend([lv] * len(vs))
                out_v.extend(vs)
        return pd.DataFrame({"event_type": out_t, "p": out_p,
                             "lv": out_l, "value": out_v})

    ds = _read_events(sf_dir, ["event_type", "value"]).map_batches(
        grab, batch_format="pandas")
    vals: dict = {k: [] for k in want}
    for b in ds.iter_batches(batch_format="pandas"):
        for t, p, lv, v in zip(b["event_type"], b["p"], b["lv"],
                               b["value"]):
            vals[(t, int(p), int(lv))].append(float(v))
    return {k: np.sort(np.array(v)) for k, v in vals.items()}


def _exact_type_quantiles(sf_dir: str, qs) -> dict:
    """The radix rank-selection core shared by event_quantiles and
    winsor_stats: for each event type, (n, [interpolated value at q
    for q in qs]) — linear interpolation, numpy 'linear' == DuckDB
    quantile_cont. No stage and not the driver ever holds a type's
    full value set (see event_quantiles)."""
    # pass 1: top-digit histogram for every type (types + counts +
    # each rank's level-0 bucket all come from this one pass)
    first = _digit_hist_all_types(sf_dir)
    out_rows = []
    # targets: (type, global_rank) for floor/ceil of each quantile
    fetch_jobs = []     # (type, prefix, level, within_rank, tag)
    direct = {}         # (type, tag) -> exact value (single-u64 bucket)
    # all rank walks advance in LOCKSTEP by level: every walker that
    # needs a refinement at level L is batched into ONE _digit_hist
    # corpus pass (deduped on (type, prefix)) — a per-walker pass
    # would re-read the whole table once per unresolved bucket.
    walkers = []        # [etype, tag, prefix, rk, counts]
    for etype, counts0 in first.items():
        n = int(counts0.sum())
        ranks = {}
        for qi, q in enumerate(qs):
            r = q * (n - 1)
            ranks[(qi, "lo")] = int(np.floor(r))
            ranks[(qi, "hi")] = int(np.ceil(r))
        for tag, rank in ranks.items():
            walkers.append([etype, tag, 0, rank, counts0])
        out_rows.append((etype, n, ranks))
    level = 0
    while walkers:
        level += 1
        refine = []  # walkers that need the next digit histogram
        for etype, tag, prefix, rk, counts in walkers:
            cum = np.cumsum(counts)
            b = int(np.searchsorted(cum, rk, side="right"))
            within = rk - (int(cum[b - 1]) if b else 0)
            prefix = (prefix << RADIX_BITS) | b
            size = int(counts[b])
            if size <= FETCH_CAP:
                fetch_jobs.append((etype, prefix, level, within, tag))
            elif level * RADIX_BITS >= 64:
                # bucket is one exact u64 -> one float value
                direct[(etype, tag)] = _u64_to_f64(prefix)
            else:
                refine.append([etype, tag, prefix, within])
        if not refine:
            break
        jobs = sorted({(etype, prefix, level)
                       for etype, _, prefix, _ in refine})
        hists = _digit_hist(sf_dir, jobs, level)
        walkers = [[etype, tag, prefix, rk,
                    hists[(etype, prefix, level)]]
                   for etype, tag, prefix, rk in refine]
    fetched = _fetch_bucket_values(
        sf_dir, [(t, p, lv) for t, p, lv, _, _ in fetch_jobs]) \
        if fetch_jobs else {}
    picked = dict(direct)
    for t, p, lv, within, tag in fetch_jobs:
        picked[(t, tag)] = float(fetched[(t, p, lv)][within])
    out = {}
    for etype, n, _ in sorted(out_rows):
        vals = []
        for qi, q in enumerate(qs):
            r = q * (n - 1)
            lo = picked[(etype, (qi, "lo"))]
            hi = picked[(etype, (qi, "hi"))]
            vals.append(lo + (r - np.floor(r)) * (hi - lo))
        out[etype] = (n, vals)
    return out


def event_quantiles(sf_dir: str) -> pa.Table:
    """Exact per-event-type value quantiles (p50/p95, linear
    interpolation — numpy 'linear' == DuckDB quantile_cont), computed
    by DISTRIBUTED RADIX RANK SELECTION: histogram passes over
    order-preserving 16-bit digit slices locate each order statistic's
    bucket, oversized buckets are refined digit-by-digit, and only the
    final (<= FETCH_CAP-value) buckets are fetched — no stage and not
    the driver ever holds a type's full value set, unlike a
    groupby(event_type) whole-group kernel, so per-type volume is
    unbounded. The approximate single-pass alternative is
    event_quantiles_tdigest."""
    per = _exact_type_quantiles(sf_dir, QUANTILES)
    types = sorted(per)
    return pa.table({
        "event_type": pa.array(types, pa.string()),
        "p50": pa.array(np.array([round6(per[t][1][0]) for t in types],
                                 dtype=np.float64), pa.float64()),
        "p95": pa.array(np.array([round6(per[t][1][1]) for t in types],
                                 dtype=np.float64), pa.float64()),
        "n": pa.array(np.array([per[t][0] for t in types],
                               dtype=np.int64), pa.int64()),
    })


def _digit_hist_all_types(sf_dir: str) -> dict[str, np.ndarray]:
    """Level-0 histogram for EVERY type in one pass (no type filter):
    {type: counts[65536] of the top 16-bit digit}."""
    shift = np.uint64(64 - RADIX_BITS)

    def hist(df: pd.DataFrame) -> pd.DataFrame:
        out_t, out_d, out_c = [], [], []
        for t, g in df.groupby("event_type"):
            u = _ordered_u64(g["value"].to_numpy(np.float64))
            d = (u >> shift).astype(np.int64)
            uniq, cnt = np.unique(d, return_counts=True)
            out_t.extend([t] * len(uniq))
            out_d.extend(uniq)
            out_c.extend(cnt)
        return pd.DataFrame({"event_type": out_t,
                             "d": np.array(out_d, dtype=np.int64),
                             "n": np.array(out_c, dtype=np.int64)})

    ds = _read_events(sf_dir, ["event_type", "value"]).map_batches(
        hist, batch_format="pandas")
    acc: dict[str, np.ndarray] = {}
    for b in ds.iter_batches(batch_format="pandas"):
        ts = b["event_type"].to_numpy()
        dg = b["d"].to_numpy()
        ns = b["n"].to_numpy()
        for t in pd.unique(ts):
            if t not in acc:
                acc[t] = np.zeros(1 << RADIX_BITS, dtype=np.int64)
            m = ts == t
            np.add.at(acc[t], dg[m], ns[m])
    return acc


# ---- mergeable quantile sketch (the scale path for quantiles) ----

TDIGEST_K = 256  # clusters per sketch; rank error ~= 1/(2K)


def _sketch_values(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equal-weight centroid sketch (t-digest-style mergeable summary)
    of one value array: <= TDIGEST_K (mean, weight) clusters built
    fully vectorized (sort + reduceat)."""
    vals = np.sort(vals.astype(np.float64))
    n = len(vals)
    k = min(TDIGEST_K, n)
    edges = (np.arange(k + 1, dtype=np.int64) * n) // k
    w = np.diff(edges)
    means = np.add.reduceat(vals, edges[:-1]) / w
    return means, w.astype(np.float64)


def _merge_sketches(means: np.ndarray,
                    weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge many clusters into <= TDIGEST_K: sort by mean, re-chunk on
    equal cumulative-weight boundaries (vectorized searchsorted +
    bincount). Mergeable and associative up to the re-chunk error."""
    order = np.lexsort((weights, means))
    m, w = means[order], weights[order]
    cumw = np.cumsum(w)
    total = cumw[-1]
    k = min(TDIGEST_K, len(m))
    bounds = np.linspace(0.0, total, k + 1)
    mid = cumw - w / 2
    bin_id = np.clip(np.searchsorted(bounds, mid, side="right") - 1,
                     0, k - 1)
    out_w = np.bincount(bin_id, weights=w, minlength=k)
    out_mw = np.bincount(bin_id, weights=w * m, minlength=k)
    nz = out_w > 0
    return out_mw[nz] / out_w[nz], out_w[nz]


def _sketch_quantiles(means: np.ndarray, weights: np.ndarray,
                      qs) -> np.ndarray:
    """Interpolated quantiles from a sketch: centroids sit at their
    cumulative-weight midpoints; np.interp between them."""
    cumw = np.cumsum(weights)
    pos = (cumw - weights / 2) / cumw[-1]
    return np.interp(qs, pos, means)


def event_quantiles_tdigest(sf_dir: str) -> pa.Table:
    """APPROXIMATE per-event-type quantiles via mergeable sketches —
    the scale path event_quantiles' docstring promises: no stage ever
    holds a type's full value set. Map-side each batch emits <= K
    clusters per type (the combiner pattern: the shuffle carries
    centroid rows, not values); a salted pre-merge bounds the final
    group at K * n_salts clusters regardless of block count; the final
    per-type merge interpolates p50/p95. Rank error ~1/(2K) = 0.2%;
    bounded against the exact operator in pytest. Approximate by
    construction -> rows-only driver check (no SQL oracle).

    The pre-merge level only pays for itself once there are enough
    blocks that K * n_blocks clusters per type would strain the final
    group — below ~1M events it is skipped (one fewer exchange; the
    re-chunk math is identical either way)."""
    n_salt = 16
    two_level = _n_events(sf_dir) >= 1_000_000

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        from raysearch.hashing import splitmix64

        out_t, out_m, out_w, out_s = [], [], [], []
        for etype, g in df.groupby("event_type"):
            vals = g["value"].to_numpy(np.float64)
            m, w = _sketch_values(vals)
            out_t.append(etype)
            out_m.append(m)
            out_w.append(w)
            # spread a type's partials uniformly over salts: mix the
            # batch slice's content (first value bits ^ size ^ first
            # row index) through splitmix64 — a raw first-row index is
            # geometrically biased toward 0 for types present in every
            # batch, which would pile most partials on one salt
            seed = (vals[:1].view(np.uint64)
                    ^ np.uint64(len(vals))
                    ^ np.uint64(int(g.index[0])))
            out_s.append(int(splitmix64(seed)[0] % np.uint64(n_salt)))
        return pd.DataFrame({"event_type": out_t, "salt": out_s,
                             "means": out_m, "weights": out_w})

    def premerge(g: pd.DataFrame) -> pd.DataFrame:
        m, w = _merge_sketches(np.concatenate(list(g["means"])),
                               np.concatenate(list(g["weights"])))
        return pd.DataFrame({"event_type": [g["event_type"].iloc[0]],
                             "means": [m], "weights": [w]})

    def final(g: pd.DataFrame) -> pd.DataFrame:
        m, w = _merge_sketches(np.concatenate(list(g["means"])),
                               np.concatenate(list(g["weights"])))
        qs = _sketch_quantiles(m, w, QUANTILES)
        return pd.DataFrame({
            "event_type": [g["event_type"].iloc[0]],
            "p50": [round6(qs[0])], "p95": [round6(qs[1])],
            "n": [np.int64(w.sum())]})

    sketches = _read_events(sf_dir, ["event_type", "value"]).map_batches(
        partial, batch_format="pandas")
    if two_level:
        sketches = sketches.groupby(["event_type", "salt"]).map_groups(
            premerge, batch_format="pandas")
    out = sketches.groupby("event_type").map_groups(
        final, batch_format="pandas")
    df = out.to_pandas().sort_values("event_type").reset_index(drop=True)
    return pa.table({
        "event_type": pa.array(df.event_type.tolist(), pa.string()),
        "p50": pa.array(df.p50.to_numpy(np.float64), pa.float64()),
        "p95": pa.array(df.p95.to_numpy(np.float64), pa.float64()),
        "n": pa.array(df.n.to_numpy(np.int64), pa.int64()),
    })


# ---- oracle SQL ----

def sql_event_quantiles() -> str:
    return f"""
SELECT event_type,
       round(quantile_cont(value, {QUANTILES[0]}), 6) AS p50,
       round(quantile_cont(value, {QUANTILES[1]}), 6) AS p95,
       count(*)::BIGINT AS n
FROM events GROUP BY event_type
"""


def sql_events_window() -> str:
    return f"""
SELECT event_type,
       (epoch_us(ts) // {WINDOW_US} * {WINDOW_US})::BIGINT
         AS window_start_us,
       count(*)::BIGINT AS n,
       round(sum(value), 6) AS sum_value
FROM events
GROUP BY event_type, epoch_us(ts) // {WINDOW_US} * {WINDOW_US}
"""


def sql_user_sessions() -> str:
    return f"""
WITH e AS (
  SELECT user_id, event_id, epoch_us(ts)::BIGINT AS tus FROM events
),
b AS (
  SELECT user_id, event_id, tus,
         CASE WHEN lag(tus) OVER w IS NULL
              OR tus - lag(tus) OVER w > {SESSION_GAP_US}
              THEN 1 ELSE 0 END AS brk
  FROM e
  WINDOW w AS (PARTITION BY user_id ORDER BY tus, event_id)
),
s AS (
  SELECT user_id, tus,
         sum(brk) OVER (PARTITION BY user_id ORDER BY tus, event_id
                        ROWS UNBOUNDED PRECEDING) AS sid
  FROM b
)
SELECT user_id, min(tus)::BIGINT AS session_start_us,
       count(*)::BIGINT AS n_events,
       (max(tus) - min(tus))::BIGINT AS duration_us
FROM s GROUP BY user_id, sid
"""


def _latest_per_user(df: pd.DataFrame) -> np.ndarray:
    """Row indices of each user's LAST row under the shared
    (ts_us, event_id) total order — one lexsort + segment-end pick,
    vectorized across users. Works on both raw batches (ts column)
    and partial rows (ts_us column)."""
    tus = (df["ts_us"].to_numpy(np.int64) if "ts_us" in df.columns
           else _epoch_us(df["ts"]))
    uid = df["user_id"].to_numpy(np.int64)
    eid = df["event_id"].to_numpy(np.int64)
    order = np.lexsort((eid, tus, uid))
    last = np.ones(len(order), dtype=bool)
    if len(order) > 1:
        u_sorted = uid[order]
        last[:-1] = u_sorted[1:] != u_sorted[:-1]
    return order[last]


def latest_events(sf_dir: str) -> pa.Table:
    """Log compaction / upsert semantics: each user's LATEST event
    (the last row under the (ts, event_id) total order) — the
    keep-newest-value-per-key primitive of every CDC / state-store
    pipeline.

    Pure combiner shape: "latest" is a mergeable aggregate, so each
    batch collapses map-side to one row per user it saw (the exchange
    carries <= users-per-batch rows, never raw events), and ONE
    coarse user-bucket groupby finishes the reduction with the same
    kernel. Value is exact int64 cents."""
    from raysearch.hashing import auto_buckets
    from raysearch.pipelines.joins import _cents

    n_upart = auto_buckets(_n_events(sf_dir))
    cols = ["upart", "user_id", "ts_us", "event_id", "event_type",
            "value_cents"]

    def batch_latest(df: pd.DataFrame) -> pd.DataFrame:
        keep = _latest_per_user(df)
        uid = df["user_id"].to_numpy(np.int64)[keep]
        return pd.DataFrame({
            "upart": uid & (n_upart - 1),
            "user_id": uid,
            "ts_us": _epoch_us(df["ts"])[keep],
            "event_id": df["event_id"].to_numpy(np.int64)[keep],
            "event_type": df["event_type"].to_numpy()[keep],
            "value_cents": _cents(
                df["value"].to_numpy(np.float64))[keep]})

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        return g.iloc[_latest_per_user(g)][cols[1:]]

    ds = _read_events(sf_dir, ["event_id", "ts", "user_id",
                               "event_type", "value"])
    out = (ds.map_batches(batch_latest, batch_format="pandas")
           .groupby("upart").map_groups(kern, batch_format="pandas"))
    df = out.to_pandas()
    if "user_id" not in df.columns:  # empty input
        df = pd.DataFrame({"user_id": np.array([], np.int64),
                           "ts_us": np.array([], np.int64),
                           "event_id": np.array([], np.int64),
                           "event_type": pd.Series([], dtype=object),
                           "value_cents": np.array([], np.int64)})
    df = df.sort_values("user_id", ignore_index=True)
    return pa.table({
        "user_id": pa.array(df.user_id.to_numpy(np.int64), pa.int64()),
        "ts_us": pa.array(df.ts_us.to_numpy(np.int64), pa.int64()),
        "event_id": pa.array(df.event_id.to_numpy(np.int64),
                             pa.int64()),
        "event_type": pa.array(df.event_type.tolist(), pa.string()),
        "value_cents": pa.array(df.value_cents.to_numpy(np.int64),
                                pa.int64()),
    })


def sql_latest_events() -> str:
    return """
SELECT user_id, epoch_us(ts)::BIGINT AS ts_us, event_id, event_type,
       CAST(round(value * 100, 0) AS BIGINT) AS value_cents
FROM (SELECT *, row_number() OVER (PARTITION BY user_id
                                   ORDER BY ts DESC, event_id DESC)
               AS rn
      FROM events)
WHERE rn = 1 ORDER BY user_id
"""


WINSOR_QS = (0.05, 0.95)


def winsor_stats(sf_dir: str) -> pa.Table:
    """Winsorized per-type value statistics — the robust-mean
    composition over the exact distributed rank selector: clamp each
    type's values to its round6(p05)/round6(p95) and report the
    clipped counts and winsorized mean.

    Shape: thresholds come from _exact_type_quantiles (the radix
    walker — no stage holds a type's full value set) and broadcast as
    a type-cardinality dict; ONE map pass emits per-type partials
    (clip counts + the EXACT integer cents sum of in-range values);
    one tiny groupby reduces them. The mean is assembled from exact
    ints plus the two clamp bounds in a pinned left-to-right float
    expression, identical to the oracle's (mid/100.0 + n_lo*lo
    + n_hi*hi)/n. Both sides compare v against ROUND6 bounds, so the
    clip branches are taken identically."""
    from ray.data.aggregate import Sum

    per = _exact_type_quantiles(sf_dir, WINSOR_QS)
    thr = {t: (round6(v[1][0]), round6(v[1][1]))
           for t, v in per.items()}
    if not thr:
        return pa.table({
            "event_type": pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
            "n_clip_lo": pa.array([], pa.int64()),
            "n_clip_hi": pa.array([], pa.int64()),
            "lo": pa.array([], pa.float64()),
            "hi": pa.array([], pa.float64()),
            "winsor_mean": pa.array([], pa.float64())})

    lo_map = pd.Series({t: v[0] for t, v in thr.items()})
    hi_map = pd.Series({t: v[1] for t, v in thr.items()})

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        from raysearch.pipelines.joins import _cents

        t = df["event_type"]
        v = df["value"].to_numpy(np.float64)
        # vectorized threshold lookup (Series.map), not a per-row
        # Python comprehension
        lo = t.map(lo_map).to_numpy(np.float64)
        hi = t.map(hi_map).to_numpy(np.float64)
        below = v < lo
        above = v > hi
        mid = ~below & ~above
        cents = _cents(v)
        g = pd.DataFrame({
            "event_type": t.to_numpy(), "n": np.int64(1),
            "n_lo": below.astype(np.int64),
            "n_hi": above.astype(np.int64),
            "mid_cents": np.where(mid, cents, np.int64(0))})
        return g.groupby("event_type", as_index=False).sum()

    agg = (_read_events(sf_dir, ["event_type", "value"])
           .map_batches(partial, batch_format="pandas")
           .groupby("event_type").aggregate(
               Sum("n", alias_name="n"),
               Sum("n_lo", alias_name="n_lo"),
               Sum("n_hi", alias_name="n_hi"),
               Sum("mid_cents", alias_name="mid_cents")))
    df = agg.to_pandas().sort_values("event_type", ignore_index=True)
    los = np.array([thr[t][0] for t in df.event_type])
    his = np.array([thr[t][1] for t in df.event_type])
    n = df.n.to_numpy(np.int64)
    n_lo = df.n_lo.to_numpy(np.int64)
    n_hi = df.n_hi.to_numpy(np.int64)
    mean = round6((df.mid_cents.to_numpy(np.int64) / 100.0
                   + n_lo * los + n_hi * his) / n)
    return pa.table({
        "event_type": pa.array(df.event_type.tolist(), pa.string()),
        "n": pa.array(n, pa.int64()),
        "n_clip_lo": pa.array(n_lo, pa.int64()),
        "n_clip_hi": pa.array(n_hi, pa.int64()),
        "lo": pa.array(los, pa.float64()),
        "hi": pa.array(his, pa.float64()),
        "winsor_mean": pa.array(mean, pa.float64()),
    })


def sql_winsor_stats() -> str:
    return f"""
WITH thr AS (
  SELECT event_type,
         round(quantile_cont(value, {WINSOR_QS[0]}), 6) AS lo,
         round(quantile_cont(value, {WINSOR_QS[1]}), 6) AS hi
  FROM events GROUP BY event_type
),
agg AS (
  SELECT e.event_type, thr.lo, thr.hi,
         count(*)::BIGINT AS n,
         sum(CASE WHEN value < lo THEN 1 ELSE 0 END)::BIGINT AS n_lo,
         sum(CASE WHEN value > hi THEN 1 ELSE 0 END)::BIGINT AS n_hi,
         sum(CASE WHEN value >= lo AND value <= hi
                  THEN CAST(round(value * 100, 0) AS BIGINT)
                  ELSE 0 END)::BIGINT AS mid_cents
  FROM events e JOIN thr USING (event_type)
  GROUP BY 1, 2, 3
)
SELECT event_type, n, n_lo AS n_clip_lo, n_hi AS n_clip_hi, lo, hi,
       round((mid_cents / 100.0 + n_lo * lo + n_hi * hi) / n, 6)
         AS winsor_mean
FROM agg ORDER BY event_type
"""


_DAY_US = 86_400_000_000


def user_daily_fill(sf_dir: str) -> pa.Table:
    """Per-user daily resample with forward fill (LOCF — the gap-fill
    primitive of every time-series feature pipeline): one row per
    (user, calendar day) from the user's first to last active day;
    ``value`` is the value of the user's LAST event at-or-before that
    day's end under the shared (ts, event_id) total order, carried
    VERBATIM (no arithmetic, so engine and oracle are bit-identical
    doubles); ``n_events`` counts that day's events (0 on gap days).

    Combiner shape: "last event of (user, day)" and the day's count
    are both mergeable, so each batch collapses map-side to one row
    per (user, day) it saw — the exchange carries at most
    users x active-days rows, never raw events — and ONE coarse
    user-bucket groupby finishes the merge, builds each user's day
    grid (vectorized repeat/cumsum, no per-user Python loop) and
    forward-fills. Output cardinality is bounded by users x span
    days."""
    from raysearch.hashing import auto_buckets

    n_upart = auto_buckets(_n_events(sf_dir))

    def batch_partial(df: pd.DataFrame) -> pd.DataFrame:
        uid = df["user_id"].to_numpy(np.int64)
        if not len(uid):  # zero-row block: diff-of-starts below would
            return pd.DataFrame({  # emit a length-mismatched frame
                "upart": uid, "user_id": uid, "day_us": uid,
                "ts_us": uid, "event_id": uid,
                "value": np.array([], np.float64),
                "n": np.array([], np.int64)})
        tus = _epoch_us(df["ts"])
        eid = df["event_id"].to_numpy(np.int64)
        day = (tus // _DAY_US) * _DAY_US
        # per-(user, day) last row under (ts_us, event_id): lexsort
        # then keep segment ends
        order = np.lexsort((eid, tus, day, uid))
        key_u, key_d = uid[order], day[order]
        seg_end = np.ones(len(order), dtype=bool)
        if len(order) > 1:
            seg_end[:-1] = (key_u[:-1] != key_u[1:]) | \
                           (key_d[:-1] != key_d[1:])
        starts = np.flatnonzero(
            np.concatenate([[True], seg_end[:-1]]))
        n = np.diff(np.concatenate([starts, [len(order)]]))
        last_rows = order[seg_end]
        return pd.DataFrame({
            "upart": uid[last_rows] & (n_upart - 1),
            "user_id": uid[last_rows],
            "day_us": day[last_rows],
            "ts_us": tus[last_rows],
            "event_id": eid[last_rows],
            "value": df["value"].to_numpy(np.float64)[last_rows],
            "n": n.astype(np.int64)})

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        # merge partials: per (user, day) keep max (ts_us, event_id)
        # row, sum counts
        g = g.sort_values(["user_id", "day_us", "ts_us", "event_id"])
        n = (g.groupby(["user_id", "day_us"], as_index=False)
             .agg(n=("n", "sum")))
        last = g.drop_duplicates(["user_id", "day_us"], keep="last")
        daily = n.merge(last[["user_id", "day_us", "value"]],
                        on=["user_id", "day_us"])
        # vectorized per-user day grid (d0..d1 inclusive)
        span = (daily.groupby("user_id", as_index=False)
                .agg(d0=("day_us", "min"), d1=("day_us", "max")))
        counts = ((span.d1.to_numpy(np.int64)
                   - span.d0.to_numpy(np.int64)) // _DAY_US + 1)
        uid_g = np.repeat(span.user_id.to_numpy(np.int64), counts)
        base = np.repeat(span.d0.to_numpy(np.int64), counts)
        run_start = np.repeat(
            np.concatenate([[0], np.cumsum(counts)[:-1]]), counts)
        day_g = base + (np.arange(counts.sum()) - run_start) * _DAY_US
        grid = pd.DataFrame({"user_id": uid_g, "day_us": day_g})
        out = grid.merge(daily, on=["user_id", "day_us"], how="left")
        out["value"] = out.groupby("user_id")["value"].ffill()
        out["n"] = out["n"].fillna(0).astype(np.int64)
        return out[["user_id", "day_us", "value", "n"]]

    ds = _read_events(sf_dir, ["event_id", "ts", "user_id", "value"])
    df = (ds.map_batches(batch_partial, batch_format="pandas")
          .groupby("upart").map_groups(kern, batch_format="pandas")
          ).to_pandas()
    if "user_id" not in df.columns or not len(df):
        return pa.table({
            "user_id": pa.array([], pa.int64()),
            "day": pa.array([], pa.timestamp("us")),
            "value": pa.array([], pa.float64()),
            "n_events": pa.array([], pa.int64())})
    df = df.sort_values(["user_id", "day_us"], ignore_index=True)
    return pa.table({
        "user_id": pa.array(df.user_id.to_numpy(np.int64), pa.int64()),
        "day": pa.array(df.day_us.to_numpy(np.int64)
                        .astype("datetime64[us]"), pa.timestamp("us")),
        "value": pa.array(df.value.to_numpy(np.float64), pa.float64()),
        "n_events": pa.array(df.n.to_numpy(np.int64), pa.int64()),
    })


def sql_user_daily_fill() -> str:
    return """
WITH ev AS (
  SELECT user_id, ts, event_id, value,
         date_trunc('day', ts) AS day
  FROM events
),
daily AS (
  SELECT user_id, day, value FROM (
    SELECT user_id, day, value,
           row_number() OVER (PARTITION BY user_id, day
                              ORDER BY ts DESC, event_id DESC) AS rn
    FROM ev) WHERE rn = 1
),
cnt AS (
  SELECT user_id, day, count(*)::BIGINT AS n_events
  FROM ev GROUP BY 1, 2
),
span AS (
  SELECT user_id, min(day) AS d0, max(day) AS d1 FROM ev GROUP BY 1
),
grid AS (
  SELECT user_id,
         unnest(generate_series(d0, d1, INTERVAL 1 DAY)) AS day
  FROM span
)
SELECT g.user_id, g.day,
       last_value(daily.value IGNORE NULLS)
         OVER (PARTITION BY g.user_id ORDER BY g.day
               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
         AS value,
       coalesce(cnt.n_events, 0) AS n_events
FROM grid g
LEFT JOIN daily ON daily.user_id = g.user_id AND daily.day = g.day
LEFT JOIN cnt ON cnt.user_id = g.user_id AND cnt.day = g.day
ORDER BY g.user_id, g.day
"""


def events_pipeline_agg(sf_dir: str) -> pa.Table:
    """The Elasticsearch PIPELINE aggregation family over a daily
    date_histogram of events: per day — n_events, derivative
    (day-over-day delta; NULL for the first bucket, ES's rule),
    cumulative_sum, and a trailing 3-bucket moving average
    (moving_fn). The second-order layer the plain histogram ops
    (events_window / events_hopping) stop short of.

    Plan: per-batch (day, n) count partials -> ONE day-bucketed
    groupby; the pipeline layer is driver arithmetic over the bucket
    rows, bounded by the time span (days), never event-sized —
    exactly how ES computes pipeline aggs on the coordinating node
    over the reduced histogram. Counts are exact ints; the moving
    average divides identically (int -> double) on both sides."""
    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        day = (_epoch_us(df["ts"]) // _DAY_US) * _DAY_US
        g = (pd.DataFrame({"day_us": day})
             .groupby("day_us").size().reset_index(name="n"))
        return g

    agg = (_read_events(sf_dir, ["ts"])
           .map_batches(partial, batch_format="pandas")
           .groupby("day_us").aggregate(Sum("n", alias_name="n"))
           ).to_pandas()
    if not len(agg):
        return pa.table({
            "day": pa.array([], pa.timestamp("us")),
            "n_events": pa.array([], pa.int64()),
            "derivative": pa.array([], pa.int64()),
            "cum_events": pa.array([], pa.int64()),
            "moving_avg": pa.array([], pa.float64())})
    agg = agg.sort_values("day_us", ignore_index=True)
    n = agg.n.to_numpy(np.int64)
    deriv = np.empty(len(n), object)
    deriv[0] = None
    deriv[1:] = (n[1:] - n[:-1]).tolist()
    cum = np.cumsum(n)
    mov = np.array([
        round6(float(n[max(0, i - 2):i + 1].sum())
               / (i + 1 - max(0, i - 2)))
        for i in range(len(n))], np.float64)
    return pa.table({
        "day": pa.array(agg.day_us.to_numpy(np.int64)
                        .astype("datetime64[us]"), pa.timestamp("us")),
        "n_events": pa.array(n, pa.int64()),
        "derivative": pa.array(deriv.tolist(), pa.int64()),
        "cum_events": pa.array(cum, pa.int64()),
        "moving_avg": pa.array(mov, pa.float64()),
    })


def sql_events_pipeline_agg() -> str:
    return """
WITH d AS (
  SELECT date_trunc('day', ts) AS day, count(*)::BIGINT AS n_events
  FROM events GROUP BY 1
)
SELECT day, n_events,
       n_events - lag(n_events) OVER (ORDER BY day) AS derivative,
       (sum(n_events) OVER (ORDER BY day
                            ROWS UNBOUNDED PRECEDING))::BIGINT
         AS cum_events,
       round(avg(n_events::DOUBLE) OVER (ORDER BY day
             ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), 6)
         AS moving_avg
FROM d ORDER BY day
"""


# ES percentile_ranks probe values over events.value
PR_VALUES = [50.0, 100.0, 200.0]


def percentile_ranks(sf_dir: str) -> pa.Table:
    """The Elasticsearch percentile_ranks aggregation, EXACT: for each
    probe value v, the percentage of events whose value is <= v — the
    inverse of the percentiles agg (event_quantiles), answering "what
    fraction of traffic sits below this SLO bound".

    Plan: one map pass, one (n, n_le per probe) int row per batch,
    driver sum — the same map-only counter shape as adjacency_matrix;
    exact at any scale (ES itself approximates via t-digest; the
    sibling event_quantiles_tdigest covers that trade)."""
    cols = [f"le_{i}" for i in range(len(PR_VALUES))]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy(np.float64)
        out = {"n": [len(v)]}
        for i, p in enumerate(PR_VALUES):
            out[cols[i]] = [int((v <= p).sum())]
        return pd.DataFrame(out)

    ds = (_read_events(sf_dir, ["value"])
          .map_batches(partial, batch_format="pandas"))
    n = 0
    le = [0] * len(PR_VALUES)
    for b in ds.iter_batches(batch_format="pandas"):
        n += int(b["n"].sum())
        for i, c in enumerate(cols):
            le[i] += int(b[c].sum())
    pct = [round6(100.0 * x / n) if n else None for x in le]
    return pa.table({
        "value": pa.array(PR_VALUES, pa.float64()),
        "n_le": pa.array(le, pa.int64()),
        "pct": pa.array(pct, pa.float64()),
    })


def sql_percentile_ranks() -> str:
    counters = ", ".join(
        f"count(*) FILTER (value <= {v!r})::BIGINT AS n{i}"
        for i, v in enumerate(PR_VALUES))
    rows = "\n  UNION ALL ".join(
        f"SELECT {v!r} AS value, n{i} AS n_le, "
        f"round(100.0 * n{i} / n, 6) AS pct FROM c"
        for i, v in enumerate(PR_VALUES))
    return f"""
WITH c AS (SELECT count(*)::BIGINT AS n, {counters} FROM events)
{rows}
"""


def top_metrics(sf_dir: str) -> pa.Table:
    """The Elasticsearch top_metrics aggregation: per event_type, the
    value carried by the LATEST event under the (ts, event_id) total
    order — "the metric at the sort extreme", the per-dimension
    current-state readout (contrast latest_events, which keys by
    user for CDC upsert semantics).

    Pure combiner shape: argmax under a total order is mergeable, so
    each batch collapses map-side to one row per event_type it saw
    and the driver finishes with the same kernel over batches x
    types rows. Value passes through untouched (no float
    arithmetic)."""
    def latest_rows(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame({
            "event_type": df["event_type"].to_numpy(),
            "tus": (df["tus"].to_numpy(np.int64) if "tus" in df
                    else _epoch_us(df["ts"])),
            "event_id": df["event_id"].to_numpy(np.int64),
            "value": df["value"].to_numpy(np.float64),
        })
        return (d.sort_values(["event_type", "tus", "event_id"])
                .groupby("event_type", as_index=False).tail(1))

    parts = (_read_events(sf_dir, ["ts", "event_id", "event_type",
                                   "value"])
             .map_batches(latest_rows, batch_format="pandas"))
    batches = list(parts.iter_batches(batch_format="pandas"))
    cand = (pd.concat(batches, ignore_index=True) if batches
            else pd.DataFrame(columns=["event_type", "tus",
                                       "event_id", "value"]))
    if not len(cand):
        return pa.table({"event_type": pa.array([], pa.string()),
                         "ts": pa.array([], pa.timestamp("us")),
                         "value": pa.array([], pa.float64())})
    out = (latest_rows(cand)
           .sort_values("event_type", ignore_index=True))
    return pa.table({
        "event_type": pa.array(out.event_type.tolist(), pa.string()),
        "ts": pa.array(out.tus.to_numpy(np.int64)
                       .astype("datetime64[us]"), pa.timestamp("us")),
        "value": pa.array(out.value.to_numpy(np.float64),
                          pa.float64()),
    })


def sql_top_metrics() -> str:
    return """
WITH r AS (
  SELECT event_type, ts, value,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY ts DESC, event_id DESC) AS rn
  FROM events
)
SELECT event_type, ts, value FROM r WHERE rn = 1 ORDER BY event_type
"""


QUERIES = {
    "latest_events": latest_events,
    "user_daily_fill": user_daily_fill,
    "winsor_stats": winsor_stats,
    "events_window": events_window,
    "user_sessions": user_sessions,
    "event_quantiles": event_quantiles,
    "event_quantiles_tdigest": event_quantiles_tdigest,
    "events_hopping": events_hopping,
    "session_funnel": session_funnel,
    "events_pipeline_agg": events_pipeline_agg,
    "percentile_ranks": percentile_ranks,
    "top_metrics": top_metrics,
}

ORACLE_SQL = {
    "latest_events": sql_latest_events(),
    "user_daily_fill": sql_user_daily_fill(),
    "winsor_stats": sql_winsor_stats(),
    "events_hopping": sql_events_hopping(),
    "events_window": sql_events_window(),
    "user_sessions": sql_user_sessions(),
    "event_quantiles": sql_event_quantiles(),
    "session_funnel": sql_session_funnel(),
    "events_pipeline_agg": sql_events_pipeline_agg(),
    "percentile_ranks": sql_percentile_ranks(),
    "top_metrics": sql_top_metrics(),
}
