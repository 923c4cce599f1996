"""Shared numeric helpers.

``round6`` is THE rounding used by every pipeline that emits rounded
doubles: round-half-away-from-zero to 6 decimals, matching DuckDB's
``round(x, 6)`` (C ``std::round`` semantics). numpy's ``np.round`` /
pandas ``.round`` / Python ``round`` are all banker's
round-half-to-even, which differs on exact half-ulp values (e.g.
0.8203125 -> 0.820312 vs DuckDB's 0.820313) — the round-1 red
CORRECTNESS cell. Using one helper everywhere keeps engine and oracle
bit-identical on every representable half.

``rank_cut`` is THE top-k rank contract: every ranked output sorts,
numbers its ranks from 1 and cuts at k through it, so each caller
states only its order, and ``frame_table`` turns the result into the
caller's declared Arrow schema.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

_SCALE = 1e6


def round6(x):
    """Round to 6 decimals, ties away from zero (DuckDB semantics).

    Accepts scalars or numpy arrays; returns float64 of the same shape.
    """
    arr = np.asarray(x, dtype=np.float64)
    mag = np.floor(np.abs(arr) * _SCALE + 0.5) / _SCALE
    out = np.where(arr < 0, -mag, mag) + 0.0  # +0.0 normalises -0.0
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def fmt_doc(**kw):
    """Decorator: format {placeholders} in a REAL docstring with the
    module constants. ``\"\"\"...\"\"\".format(...)`` as a function's
    first statement is an expression, not a docstring — __doc__ ends
    up None and the operator contract text is lost to help() /
    introspection (round-3 ADVICE). With this decorator the literal
    stays a docstring and the constants still interpolate."""
    def deco(fn):
        if fn.__doc__:
            fn.__doc__ = fn.__doc__.format(**kw)
        return fn
    return deco


def _sort_key(col: pd.Series, ascending: bool) -> np.ndarray:
    """An ascending np.lexsort key for ``col`` in the pandas
    sort_values order: floats negate for descending (-0.0 == 0.0, and
    NaN stays NaN, last either way), ints and bools bit-flip (no
    overflow), and anything else sorts by its dense factorized code,
    missing last."""
    v = col.to_numpy()
    if v.dtype.kind == "f":
        return v if ascending else -v
    if v.dtype.kind in "iub":
        return v if ascending else ~v
    codes, uniq = pd.factorize(v, sort=True)
    return np.where(codes < 0, len(uniq), codes if ascending else -codes)


def rank_cut(df: pd.DataFrame, order, k: int | None = None,
             group=None) -> pd.DataFrame:
    """The one top-k rank contract: ``df``'s rows sorted by ``group``
    (a column or list of columns, ascending), then by ``order`` —
    ``[(column, ascending), ...]``, which must be a total order within
    a group — with a 1-based int64 ``rank`` within each group, rows
    past ``k`` dropped. ``k=None`` keeps every row; ``group=None``
    ranks globally. One stable np.lexsort; ranks come from the group
    starts, so no pandas groupby runs."""
    group = [group] if isinstance(group, str) else list(group or ())
    gkeys = [_sort_key(df[c], True) for c in group]
    keys = gkeys + [_sort_key(df[c], asc) for c, asc in order]
    idx = np.lexsort(keys[::-1])
    pos = np.arange(len(idx))
    start = pos == 0
    for key in gkeys:
        sk = key[idx]
        start[1:] |= sk[1:] != sk[:-1]
    rank = pos - np.maximum.accumulate(np.where(start, pos, 0)) + 1
    if k is not None:
        idx, rank = idx[rank <= k], rank[rank <= k]
    out = df.take(idx).reset_index(drop=True)
    out["rank"] = rank
    return out


def frame_table(df: pd.DataFrame, schema: pa.Schema) -> pa.Table:
    """``df``'s columns named by ``schema``, in its order, as an Arrow
    table of exactly that schema."""
    return pa.table({f.name: df[f.name].to_numpy() for f in schema},
                    schema=schema)
