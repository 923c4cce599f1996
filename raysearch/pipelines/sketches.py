"""Distributed counting / summary operators: exact distinct counts,
HyperLogLog approximate distinct, exact heavy hitters (two-pass
pigeonhole), and per-group top-k — the profile-and-prune family a
training-data pipeline runs before committing to a full shuffle.

Scale shapes (the point of each operator):

- distinct_users: distinct (type, user) pairs dedup map-side per
  batch, then a bucketed exact dedup — group mass is (distinct users
  per type) / n_buckets, input-scaled via auto_buckets; the final
  exchange carries one partial count per (type, bucket).
- hll_distinct_users: the sub-linear path — each batch contributes a
  fixed 2^P-byte register array per type; merge is elementwise max
  (associative + commutative, so combine anywhere). Standard error
  1.04/sqrt(2^P) ~= 1.6 % at P=12. Approximate by construction ->
  rows-only driver check, error-bounded against the exact operator in
  pytest.
- heavy_hitters: exact terms with global count > N/s in TWO passes and
  no full-term shuffle. Pass 1 uses the pigeonhole guarantee (if
  global count > N/s then some batch has local count > n_i/s) to emit
  per-batch candidates (<= s rows per batch); candidates are deduped
  DISTRIBUTED (groupby(term)) before the driver sees them. Pass 2
  broadcasts the candidate array once (ray.put) and counts exactly,
  map-side partial + narrow groupby. A groupby over ALL terms would
  shuffle the whole corpus vocabulary; this shuffles <= s rows per
  batch + |candidates| partials.
- grouped_topk: per-group top-k without a global sort — each batch
  emits its local top-k per group (k rows per (group, batch)), the
  final per-group selection sees only n_blocks * k rows. The
  all-to-all `Dataset.sort` this replaces is the single most
  expensive operation at 100 TB.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from raysearch.numutil import fmt_doc, frame_table, rank_cut

_EVENTS = "events.parquet"
_DOCS = "documents.parquet"


def _read(sf_dir: str, name: str, columns):
    import ray.data

    return ray.data.read_parquet(os.path.join(sf_dir, name),
                                 columns=columns)


def _n_events(sf_dir: str) -> int:
    from raysearch.hashing import parquet_rows

    return parquet_rows(os.path.join(sf_dir, _EVENTS))


# ---- exact distinct count (bucketed dedup + additive partials) ----

def distinct_users(sf_dir: str) -> pa.Table:
    """Exact distinct users per event_type. Each batch first dedups
    its own (type, user) pairs (the map-side combiner: repeat visitors
    inside a batch never shuffle twice); the exchange is keyed on
    (type, user-hash bucket) so each group holds one user-subspace of
    one type — the per-group distinct count is exact and the counts
    add across buckets because buckets partition the user space."""
    from ray.data.aggregate import Sum

    from raysearch.hashing import auto_buckets, splitmix64

    nb = auto_buckets(_n_events(sf_dir))

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["event_type", "user_id"])
        ub = (splitmix64(d["user_id"].to_numpy(np.int64).astype(np.uint64))
              % np.uint64(nb)).astype(np.int64)
        return pd.DataFrame({"event_type": d["event_type"].to_numpy(),
                             "user_id": d["user_id"].to_numpy(),
                             "ubucket": ub})

    def count_group(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.drop_duplicates(["event_type", "user_id"])
               .groupby("event_type", as_index=False)
               .agg(n_users=("user_id", "size")))
        return out

    ds = _read(sf_dir, _EVENTS, ["event_type", "user_id"]).map_batches(
        pairs, batch_format="pandas")
    partials = ds.groupby(["event_type", "ubucket"]).map_groups(
        count_group, batch_format="pandas")
    agg = partials.groupby("event_type").aggregate(
        Sum("n_users", alias_name="n_users"))
    df = agg.to_pandas()
    return pa.table({
        "event_type": pa.array(df.event_type.tolist(), pa.string()),
        "n_users": pa.array(df.n_users.to_numpy(np.int64), pa.int64()),
    })


def sql_distinct_users() -> str:
    return """
SELECT event_type, count(DISTINCT user_id)::BIGINT AS n_users
FROM events GROUP BY event_type
"""


# ---- HyperLogLog (Flajolet-Fusy-Gandouet-Meunier 2007) ----

HLL_P = 12                       # 2^12 = 4096 registers
_HLL_M = 1 << HLL_P
_HLL_ALPHA = 0.7213 / (1 + 1.079 / _HLL_M)  # alpha_m for m >= 128


def _clz64(w: np.ndarray) -> np.ndarray:
    """Vectorized count-leading-zeros over uint64 (branchless binary
    search; float log2 is unsafe past 2^53)."""
    w = w.copy()
    n = np.full(w.shape, 64, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        big = w >= (np.uint64(1) << np.uint64(shift))
        n[big] -= shift
        w[big] >>= np.uint64(shift)
    n[w > 0] -= 1
    return n


def _hll_registers(user_ids: np.ndarray) -> np.ndarray:
    """uint8[2^P] register array for one value set."""
    from raysearch.hashing import splitmix64

    h = splitmix64(user_ids.astype(np.uint64))
    idx = (h >> np.uint64(64 - HLL_P)).astype(np.int64)
    rest = h << np.uint64(HLL_P)          # remaining 64-P bits, aligned
    rho = np.minimum(_clz64(rest) + 1, 64 - HLL_P + 1).astype(np.uint8)
    regs = np.zeros(_HLL_M, dtype=np.uint8)
    np.maximum.at(regs, idx, rho)
    return regs


def _hll_estimate(regs: np.ndarray) -> float:
    e = _HLL_ALPHA * _HLL_M * _HLL_M / np.sum(
        np.exp2(-regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if e <= 2.5 * _HLL_M and zeros:  # small-range (linear counting)
        return _HLL_M * float(np.log(_HLL_M / zeros))
    return float(e)


def hll_distinct_users(sf_dir: str) -> pa.Table:
    """APPROXIMATE distinct users per event_type via HyperLogLog —
    the sub-linear alternative to distinct_users: a batch contributes
    one fixed-size register array per type regardless of row count,
    and merge = elementwise max, so the exchange volume is
    O(types x blocks x 4 KiB) with an (input-gated) salted pre-merge
    bounding the final group exactly like event_quantiles_tdigest."""
    from raysearch.hashing import splitmix64

    n_salt = 16
    two_level = _n_events(sf_dir) >= 1_000_000

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out_t, out_r, out_s = [], [], []
        for etype, g in df.groupby("event_type"):
            uid = g["user_id"].to_numpy(np.int64)
            regs = _hll_registers(uid)
            out_t.append(etype)
            out_r.append(regs)
            seed = (uid[:1].astype(np.uint64)
                    ^ np.uint64(len(uid))
                    ^ np.uint64(int(g.index[0])))
            out_s.append(int(splitmix64(seed)[0] % np.uint64(n_salt)))
        return pd.DataFrame({"event_type": out_t, "salt": out_s,
                             "regs": out_r})

    def merge_regs(g: pd.DataFrame) -> np.ndarray:
        return np.maximum.reduce(list(g["regs"]))

    def premerge(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": [g["event_type"].iloc[0]],
                             "regs": [merge_regs(g)]})

    def final(g: pd.DataFrame) -> pd.DataFrame:
        est = _hll_estimate(merge_regs(g))
        return pd.DataFrame({"event_type": [g["event_type"].iloc[0]],
                             "n_users_est": [np.int64(round(est))]})

    sk = _read(sf_dir, _EVENTS, ["event_type", "user_id"]).map_batches(
        partial, batch_format="pandas")
    if two_level:
        sk = sk.groupby(["event_type", "salt"]).map_groups(
            premerge, batch_format="pandas")
    out = sk.groupby("event_type").map_groups(final,
                                              batch_format="pandas")
    df = out.to_pandas().sort_values("event_type").reset_index(drop=True)
    return pa.table({
        "event_type": pa.array(df.event_type.tolist(), pa.string()),
        "n_users_est": pa.array(df.n_users_est.to_numpy(np.int64),
                                pa.int64()),
    })


# ---- exact heavy hitters (two-pass pigeonhole) ----

HH_S = 512  # report terms with global count > N / HH_S


def _batch_term_counts(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    from raysearch.pipelines.textops import _tokens

    toks = _tokens(batch).flatten().to_numpy(zero_copy_only=False)
    if len(toks) == 0:
        return (np.array([], dtype=object),
                np.array([], dtype=np.int64))
    return np.unique(toks, return_counts=True)


def heavy_hitters(sf_dir: str) -> pa.Table:
    """EXACT terms whose global count exceeds N / HH_S (N = total
    tokens), via the two-pass pigeonhole scheme: pass 1 emits each
    batch's locally-heavy terms (count > batch_tokens / HH_S — at
    most HH_S rows per batch; any globally heavy term must be locally
    heavy somewhere) plus one ''-marker row carrying the batch token
    count; a narrow groupby dedups candidates BEFORE the driver sees
    them (driver holds only the deduped candidate list, <= HH_S
    genuinely heavy + per-batch false positives). Pass 2 broadcasts
    the sorted candidate array once and counts exactly (map-side
    partials, searchsorted membership). Comparison is integer
    (cnt * HH_S > N) on both sides — no float threshold."""
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    def pass1(batch: pa.Table) -> pd.DataFrame:
        terms, cnts = _batch_term_counts(batch)
        n_i = int(cnts.sum())
        heavy = cnts * HH_S > n_i
        return pd.DataFrame({
            "term": np.concatenate([np.array([""], dtype=object),
                                    terms[heavy]]),
            "cnt": np.concatenate([np.array([n_i], dtype=np.int64),
                                   cnts[heavy]]),
        })

    ds = _read(sf_dir, _DOCS, ["doc_id", "text"]).map_batches(
        pass1, batch_format="pyarrow", zero_copy_batch=True)
    cand_df = (ds.groupby("term").aggregate(Sum("cnt", alias_name="cnt"))
               .to_pandas())
    n_total = int(cand_df.loc[cand_df.term == "", "cnt"].sum())
    cands = np.sort(cand_df.loc[cand_df.term != "", "term"]
                    .to_numpy(dtype=object))
    if len(cands) == 0:
        return pa.table({"term": pa.array([], pa.string()),
                         "cnt": pa.array([], pa.int64())})
    cand_ref = ray.put(cands)

    def pass2(batch: pa.Table) -> pd.DataFrame:
        cand = ray.get(cand_ref)
        terms, cnts = _batch_term_counts(batch)
        pos = np.searchsorted(cand, terms)
        pos_c = np.clip(pos, 0, len(cand) - 1)
        hit = cand[pos_c] == terms
        return pd.DataFrame({"term": terms[hit], "cnt": cnts[hit]})

    exact = (_read(sf_dir, _DOCS, ["doc_id", "text"])
             .map_batches(pass2, batch_format="pyarrow",
                          zero_copy_batch=True)
             .groupby("term").aggregate(Sum("cnt", alias_name="cnt"))
             .to_pandas())
    keep = exact["cnt"].to_numpy(np.int64) * HH_S > n_total
    out = exact[keep].sort_values("term").reset_index(drop=True)
    return pa.table({
        "term": pa.array(out.term.tolist(), pa.string()),
        "cnt": pa.array(out.cnt.to_numpy(np.int64), pa.int64()),
    })


def sql_heavy_hitters() -> str:
    return rf"""
WITH tok AS (
  SELECT unnest(regexp_extract_all(lower(text), '\S+')) AS term
  FROM documents
),
tot AS (SELECT count(*) AS n FROM tok)
SELECT term, count(*)::BIGINT AS cnt
FROM tok, tot
GROUP BY term, tot.n
HAVING count(*) * {HH_S} > tot.n
"""


SS_CAP = 64   # SpaceSaving counters per batch summary
SS_K = 20     # reported top-k


@fmt_doc(c=SS_CAP, k=SS_K)
def heavy_hitters_ss(sf_dir: str) -> pa.Table:
    """Mergeable SpaceSaving-style top-{k} terms in ONE pass
    (Agarwal et al., "Mergeable Summaries"): each batch compresses its
    exact term counts to {c} counters (top-{c} by count, ties by
    term) plus one marker row carrying the batch's max DISCARDED
    count; a narrow groupby merges summaries by summing counts.
    A merged candidate's sum is a guaranteed LOWER bound (per-batch
    summary counts are exact for kept terms); the global upper bound
    adds E = sum of per-batch discarded maxima (a term absent from a
    batch's summary had at most that batch's discarded-max there).
    Output: top-{k} by (cnt_lo DESC, term) with [cnt_lo, cnt_hi].

    Deterministic guarantees (pinned in pytest): true count is inside
    [cnt_lo, cnt_hi] for every reported term, and any term whose true
    count exceeds E cannot be missed (discarded-everywhere implies
    true <= E). vs the exact heavy_hitters two-pass scheme this does
    ONE pass and ships a fixed {c}-row summary per batch — the sketch
    path when a second corpus pass is too expensive. Approximate by
    construction -> rows-only driver check; recall/error vs the exact
    operator reported in the bench quality block. Merged-candidate
    cardinality is <= {c} x n_batches narrow rows; at extreme block
    counts the final selection composes with grouped_topk's
    n_blocks x k bound."""
    from ray.data.aggregate import Sum

    def summarize(batch: pa.Table) -> pd.DataFrame:
        terms, cnts = _batch_term_counts(batch)
        if not len(terms):
            return pd.DataFrame({"term": pd.Series([], dtype=object),
                                 "cnt": pd.Series([], dtype=np.int64)})
        # top-C under (cnt DESC, term ASC): lexsort on (term) then
        # stable argsort on -cnt keeps the tie order deterministic
        order = np.lexsort((terms, -cnts))
        keep, drop = order[:SS_CAP], order[SS_CAP:]
        err = int(cnts[drop].max()) if len(drop) else 0
        return pd.DataFrame({
            "term": np.concatenate([np.array([""], dtype=object),
                                    terms[keep]]),
            "cnt": np.concatenate([np.array([err], dtype=np.int64),
                                   cnts[keep].astype(np.int64)]),
        })

    merged = (_read(sf_dir, _DOCS, ["doc_id", "text"])
              .map_batches(summarize, batch_format="pyarrow",
                           zero_copy_batch=True)
              .groupby("term").aggregate(Sum("cnt", alias_name="cnt"))
              ).to_pandas()
    if "term" not in merged.columns or not len(merged):
        return pa.table({"term": pa.array([], pa.string()),
                         "cnt_lo": pa.array([], pa.int64()),
                         "cnt_hi": pa.array([], pa.int64())})
    err_total = int(merged.loc[merged.term == "", "cnt"].sum())
    cand = merged[merged.term != ""].copy()
    cand = cand.sort_values(["cnt", "term"],
                            ascending=[False, True]).head(SS_K)
    lo = cand.cnt.to_numpy(np.int64)
    return pa.table({
        "term": pa.array(cand.term.tolist(), pa.string()),
        "cnt_lo": pa.array(lo, pa.int64()),
        "cnt_hi": pa.array(lo + err_total, pa.int64()),
    })


# ---- per-group top-k without a global sort ----

TOPK_PER_GROUP = 3


@fmt_doc(k=TOPK_PER_GROUP)
def grouped_topk(sf_dir: str) -> pa.Table:
    """Top-{k} documents per language by (n_chars DESC, doc_id ASC):
    each batch emits only its local per-lang top-k (the k-bounded
    combiner), so the final per-lang selection sees n_blocks * k rows
    — never a global sort. Deterministic total order via the doc_id
    tiebreak."""
    k = TOPK_PER_GROUP

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        return (df.sort_values(["lang", "n_chars", "doc_id"],
                               ascending=[True, False, True])
                .groupby("lang", as_index=False).head(k))

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return rank_cut(g, [("n_chars", False), ("doc_id", True)], k)

    ds = _read(sf_dir, _DOCS, ["doc_id", "lang", "n_chars"]).map_batches(
        local_topk, batch_format="pandas")
    out = ds.groupby("lang").map_groups(final, batch_format="pandas")
    return frame_table(out.to_pandas(), pa.schema([
        ("lang", pa.string()), ("doc_id", pa.int64()),
        ("n_chars", pa.int64()), ("rank", pa.int64())]))


def sql_grouped_topk() -> str:
    return f"""
SELECT lang, doc_id, n_chars, rank FROM (
  SELECT lang, doc_id, n_chars,
         row_number() OVER (PARTITION BY lang
                            ORDER BY n_chars DESC, doc_id) AS rank
  FROM documents
) WHERE rank <= {TOPK_PER_GROUP}
"""


# ---- rolling-window distinct (exact trailing 7-day active users) ----

ROLL_WINDOW_DAYS = 7
_DAY_US = 86_400_000_000


@fmt_doc(W=ROLL_WINDOW_DAYS)
def rolling_active_users(sf_dir: str) -> pa.Table:
    """Exact trailing-{W}-day active users: for every window end-day w
    that any activity can reach, the number of distinct users with >= 1
    event in days [w-{W}+1, w].

    Scale shape: raw events collapse to distinct (user, day) pairs
    map-side per batch BEFORE anything shuffles (the activity matrix,
    ~users x days rows, orders of magnitude below event volume); ONE
    user-bucketed exchange dedups the pairs globally and expands each
    into its {W} member windows IN THE GROUP — the (user, window)
    dedup is exact there because the bucket key is a function of user
    alone, so a user's whole history co-locates. The final exchange
    carries one partial count per (window, bucket); counts add across
    buckets because buckets partition the user space (same argument
    as distinct_users). Nothing driver-side exceeds the day-cardinality
    result."""
    from ray.data.aggregate import Sum

    from raysearch.hashing import auto_buckets, splitmix64

    nb = auto_buckets(_n_events(sf_dir))

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        day = (df["ts"].astype("datetime64[us]").astype("int64")
               // _DAY_US).to_numpy(np.int64)
        d = pd.DataFrame({"user_id": df["user_id"].to_numpy(np.int64),
                          "day": day}).drop_duplicates()
        ub = (splitmix64(d["user_id"].to_numpy(np.int64).astype(np.uint64))
              % np.uint64(nb)).astype(np.int64)
        return d.assign(ubucket=ub)

    def expand(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["user_id", "day"])
        u = np.repeat(d["user_id"].to_numpy(np.int64), ROLL_WINDOW_DAYS)
        w = (d["day"].to_numpy(np.int64)[:, None]
             + np.arange(ROLL_WINDOW_DAYS, dtype=np.int64)).ravel()
        uw = pd.DataFrame({"user_id": u, "window_day": w}).drop_duplicates()
        out = (uw.groupby("window_day", as_index=False)
               .agg(n_users=("user_id", "size")))
        return out

    ds = _read(sf_dir, _EVENTS, ["ts", "user_id"]).map_batches(
        pairs, batch_format="pandas")
    agg = (ds.groupby("ubucket").map_groups(expand, batch_format="pandas")
           .groupby("window_day").aggregate(
               Sum("n_users", alias_name="n_users")))
    df = agg.to_pandas().sort_values("window_day", ignore_index=True)
    return pa.table({
        "window_day": pa.array(df.window_day.to_numpy(np.int64),
                               pa.int64()),
        "n_users": pa.array(df.n_users.to_numpy(np.int64), pa.int64()),
    })


def sql_rolling_active_users() -> str:
    return f"""
WITH du AS (SELECT DISTINCT epoch_us(ts) // {_DAY_US} AS d, user_id
            FROM events),
ks AS (SELECT unnest(range({ROLL_WINDOW_DAYS})) AS k),
e AS (SELECT d + k AS w, user_id FROM du CROSS JOIN ks)
SELECT w::BIGINT AS window_day,
       count(DISTINCT user_id)::BIGINT AS n_users
FROM e GROUP BY w
"""


# ---- cohort retention (first-activity cohorts x day offsets) ----

RETENTION_MAX_K = 7  # day offsets 0..K reported per cohort


@fmt_doc(K=RETENTION_MAX_K)
def cohort_retention(sf_dir: str) -> pa.Table:
    """(cohort_day, k, n_users): of the users whose FIRST activity
    fell on cohort_day, how many were active again exactly k days
    later (k = 0..{K}; k=0 is the cohort size). The classic retention
    matrix.

    Scale shape: same skeleton as rolling_active_users — raw events
    collapse to distinct (user, day) pairs map-side; ONE user-bucketed
    exchange computes each user's cohort (min day) and emits the
    deduped (cohort, k) memberships IN THE GROUP (exact, since a
    user's whole history co-locates); the final exchange carries one
    partial count per (cohort, k, bucket), additive because buckets
    partition users."""
    from ray.data.aggregate import Sum

    from raysearch.hashing import auto_buckets, splitmix64

    nb = auto_buckets(_n_events(sf_dir))

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        day = (df["ts"].astype("datetime64[us]").astype("int64")
               // _DAY_US).to_numpy(np.int64)
        d = pd.DataFrame({"user_id": df["user_id"].to_numpy(np.int64),
                          "day": day}).drop_duplicates()
        ub = (splitmix64(d["user_id"].to_numpy(np.int64).astype(np.uint64))
              % np.uint64(nb)).astype(np.int64)
        return d.assign(ubucket=ub)

    def expand(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["user_id", "day"])
        cohort = d.groupby("user_id")["day"].transform("min")
        k = (d["day"] - cohort).to_numpy(np.int64)
        keep = k <= RETENTION_MAX_K
        out = pd.DataFrame({"cohort_day": cohort.to_numpy(np.int64)[keep],
                            "k": k[keep]})
        # (user, day) pairs are unique after the dedup, so each row is
        # one distinct user's membership in (cohort, k)
        return (out.groupby(["cohort_day", "k"], as_index=False)
                .agg(n_users=("k", "size")))

    ds = _read(sf_dir, _EVENTS, ["ts", "user_id"]).map_batches(
        pairs, batch_format="pandas")
    agg = (ds.groupby("ubucket").map_groups(expand, batch_format="pandas")
           .groupby(["cohort_day", "k"]).aggregate(
               Sum("n_users", alias_name="n_users")))
    df = agg.to_pandas().sort_values(["cohort_day", "k"],
                                     ignore_index=True)
    return pa.table({
        "cohort_day": pa.array(df.cohort_day.to_numpy(np.int64),
                               pa.int64()),
        "k": pa.array(df.k.to_numpy(np.int64), pa.int64()),
        "n_users": pa.array(df.n_users.to_numpy(np.int64), pa.int64()),
    })


def sql_cohort_retention() -> str:
    return f"""
WITH du AS (SELECT DISTINCT epoch_us(ts) // {_DAY_US} AS d, user_id
            FROM events),
c AS (SELECT user_id, min(d) AS cohort_day FROM du GROUP BY user_id)
SELECT c.cohort_day::BIGINT AS cohort_day,
       (du.d - c.cohort_day)::BIGINT AS k,
       count(*)::BIGINT AS n_users
FROM du JOIN c USING (user_id)
WHERE du.d - c.cohort_day <= {RETENTION_MAX_K}
GROUP BY 1, 2
"""


# ---- Count-Min sketch term frequencies ----

CMS_D, CMS_W = 4, 4096   # depth x width: over-estimate <= e*N/W w.p.
                         # 1 - e^-D per query; 4 x 4096 int64 = 128 KiB
# fixed odd multipliers (splitmix64/golden-ratio family) — the d
# pairwise-independent-ish row hashes; seeds are part of the contract
# so partial sketches built anywhere merge
_CMS_SEEDS = np.array([0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9,
                       0x94D049BB133111EB, 0xD6E8FEB86659FD93],
                      dtype=np.uint64)
CMS_PROBE_TERMS = ("the", "hash", "join", "dup", "spark", "window",
                   "zzznothingzzz")


def _cms_rows(terms: np.ndarray) -> np.ndarray:
    """(CMS_D, n) column indices for a term array: one stable 64-bit
    base hash per term (md5 prefix — not Python's salted hash), then
    d splitmix-multiplier row derivations."""
    import hashlib

    base = np.fromiter(
        (int.from_bytes(hashlib.md5(t.encode()).digest()[:8], "little")
         for t in terms), dtype=np.uint64, count=len(terms))
    rows = (base[None, :] * _CMS_SEEDS[:, None])
    return ((rows >> np.uint64(40)) % np.uint64(CMS_W)).astype(np.int64)


def cms_term_counts(sf_dir: str) -> pa.Table:
    """Count-Min sketch point-frequency estimates vs exact truth for
    the probe terms: (term, exact, est, overestimate) — est >= exact
    always (counts only ever collide upward), est - exact bounded by
    the sketch's e*N/W tail. Completes the mergeable-summary family
    (HLL distinct, t-digest quantiles, SpaceSaving top-k, Bloom
    membership, CMS frequency).

    Scale shape: each batch contributes ONE fixed {d}x{w}-cell array
    (np.add.at over the batch's unique-term counts); merge is
    elementwise SUM — associative and commutative, so partials
    combine anywhere in any order (the HLL register contract with +
    in place of max). The driver holds batches x 128 KiB partials at
    this P; at cluster scale the same rows pre-sum through a coarse
    groupby exactly like the HLL two-level path. Exact probe counts
    ride the heavy_hitters pass-2 shape (broadcast probe list,
    searchsorted membership, narrow groupby). Estimates are
    deterministic given the seeds but not SQL-expressible -> rows-
    only driver check; the guarantees (est >= exact, bound, merge
    associativity) are pinned in tests/test_sketches.py."""
    import ray.data
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pd.DataFrame:
        terms, cnts = _batch_term_counts(batch)
        tbl = np.zeros((CMS_D, CMS_W), np.int64)
        if len(terms):
            idx = _cms_rows(terms)
            for r in range(CMS_D):
                np.add.at(tbl[r], idx[r], cnts)
        return pd.DataFrame({"sk": [tbl.ravel()]})

    sketch = np.zeros(CMS_D * CMS_W, np.int64)
    for b in (_read(sf_dir, _DOCS, ["doc_id", "text"])
              .map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
              .iter_batches(batch_format="pandas")):
        for arr in b["sk"]:
            sketch += np.asarray(arr, np.int64)
    sketch = sketch.reshape(CMS_D, CMS_W)

    probes = np.array(sorted(CMS_PROBE_TERMS), dtype=object)
    import ray
    probe_ref = ray.put(probes)

    def exact_pass(batch: pa.Table) -> pd.DataFrame:
        probe = ray.get(probe_ref)
        terms, cnts = _batch_term_counts(batch)
        pos = np.clip(np.searchsorted(probe, terms), 0, len(probe) - 1)
        hit = probe[pos] == terms
        return pd.DataFrame({"term": terms[hit], "cnt": cnts[hit]})

    ex = (_read(sf_dir, _DOCS, ["doc_id", "text"])
          .map_batches(exact_pass, batch_format="pyarrow",
                       zero_copy_batch=True)
          .groupby("term").aggregate(Sum("cnt", alias_name="cnt"))
          .to_pandas())
    exact = dict(zip(ex.term, ex.cnt.astype(np.int64)))
    idx = _cms_rows(probes)
    est = sketch[np.arange(CMS_D)[:, None], idx].min(axis=0)
    return pa.table({
        "term": pa.array(probes.tolist(), pa.string()),
        "exact": pa.array([int(exact.get(t, 0)) for t in probes],
                          pa.int64()),
        "est": pa.array(est.astype(np.int64), pa.int64()),
        "overestimate": pa.array(
            [int(e) - int(exact.get(t, 0))
             for t, e in zip(probes, est)], pa.int64()),
    })


QUERIES = {
    "distinct_users": distinct_users,
    "hll_distinct_users": hll_distinct_users,
    "cms_term_counts": cms_term_counts,
    "heavy_hitters": heavy_hitters,
    "heavy_hitters_ss": heavy_hitters_ss,
    "grouped_topk": grouped_topk,
    "rolling_active_users": rolling_active_users,
    "cohort_retention": cohort_retention,
}

ORACLE_SQL = {
    "distinct_users": sql_distinct_users(),
    "heavy_hitters": sql_heavy_hitters(),
    "grouped_topk": sql_grouped_topk(),
    "rolling_active_users": sql_rolling_active_users(),
    "cohort_retention": sql_cohort_retention(),
    # hll_distinct_users: approximate by construction -> rows-only
    # heavy_hitters_ss: approximate by construction -> rows-only;
    #   containment/no-miss guarantees pinned in tests/test_sketches.py
}
