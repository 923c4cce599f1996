"""Index-backed prefix (wildcard) retrieval and autocomplete term
suggestion — the two classic uses of a SORTED term dictionary, making
the lexicon a first-class queryable artifact (the reference keeps its
term map private inside the index HashMap, src/lib.rs:341).

- wildcard_docs: documents containing ANY term with a given prefix,
  with the distinct matching-term count — prefix -> terms via a
  RANGE-FILTERED lexicon read (term >= p AND term < p_hi pushes into
  parquet row groups of the term-sorted lexicon; work is bounded by
  the matching VOCABULARY, never the corpus), then the term-group
  probe blocklist_docs also uses (rankex._term_group_docs, one group
  per prefix) over posting lists (term-filtered, row-group-pruned
  segment reads; per-part results final under doc-hash partitioning
  — zero exchanges).
- term_suggest: top-k completions per prefix by (df DESC, term ASC)
  straight from the range-scanned lexicon — k-bounded driver work.

Scale contract: the driver holds only the prefix-matched vocabulary
slice (a pathological one-letter prefix over a 100M-term vocab should
be length-gated upstream; the lexicon read itself stays range-pruned).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from raysearch.numutil import fmt_doc

# multi-term ("s" -> scan/slow/small/sort/spark/stream), single-term
# ("da" -> data), and miss ("zz") paths all exercised
PREFIXES = ("s", "da", "zz")
SUGGEST_K = 10


def _prefix_hi(p: str) -> str:
    """Smallest string greater than every string with prefix p (ASCII
    prefixes only — asserted; the general Unicode successor needs
    code-point arithmetic the fixtures never exercise)."""
    assert p and all(ord(c) < 127 for c in p), f"ASCII prefix only: {p!r}"
    return p[:-1] + chr(ord(p[-1]) + 1)


def _lexicon_range(idx: str, prefix: str) -> pa.Table:
    """(term, df) rows of the lexicon slice with this prefix — a
    range-filtered read of the term-sorted lexicon parquet (row-group
    statistics prune everything outside [p, p_hi))."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    lex = pads.dataset(os.path.join(idx, "lexicon"))
    flt = ((pads.field("term") >= prefix)
           & (pads.field("term") < _prefix_hi(prefix)))
    t = lex.to_table(columns=["term", "df"], filter=flt)
    return pa.table({"term": pc.cast(t["term"], pa.string()),
                     "df": pc.cast(t["df"], pa.int64())})


def wildcard_docs(sf_dir: str) -> pa.Table:
    """Prefix retrieval: for every prefix in PREFIXES, each document
    containing >= 1 term with that prefix and its DISTINCT matching-
    term count — posting lists only, no corpus scan."""
    from raysearch.pipelines.rankex import _term_group_docs
    from raysearch.pipelines.search_queries import cached_index

    idx = cached_index(sf_dir)
    out = _term_group_docs(idx, [_lexicon_range(idx, p)["term"].to_pylist()
                                 for p in PREFIXES])
    return pa.table({
        "prefix": pa.array(np.asarray(PREFIXES, object)[
            out["group"].to_numpy()], pa.string()),
        "doc_id": out["doc_id"],
        "n_terms": out["n_terms"]}).sort_by(
        [("prefix", "ascending"), ("doc_id", "ascending")])


@fmt_doc(k=SUGGEST_K)
def term_suggest(sf_dir: str) -> pa.Table:
    """Autocomplete: the top-{k} completions per prefix by document
    frequency (df DESC, term ASC) from the range-scanned lexicon —
    the global df is already aggregated at build time, so this is a
    k-bounded dictionary lookup, not a corpus pass."""
    from raysearch.pipelines.search_queries import cached_index

    idx = cached_index(sf_dir)
    out_p, out_r, out_t, out_d = [], [], [], []
    for p in PREFIXES:
        t = _lexicon_range(idx, p)
        terms = np.asarray(t["term"].to_pylist(), dtype=object)
        dfs = t["df"].to_numpy()
        order = np.lexsort((terms, -dfs))[:SUGGEST_K]
        out_p.extend([p] * len(order))
        out_r.extend(range(1, len(order) + 1))
        out_t.extend(terms[order].tolist())
        out_d.extend(dfs[order].tolist())
    return pa.table({
        "prefix": pa.array(out_p, pa.string()),
        "rank": pa.array(np.asarray(out_r, np.int64), pa.int64()),
        "term": pa.array(out_t, pa.string()),
        "df": pa.array(np.asarray(out_d, np.int64), pa.int64()),
    })


def _values_clause() -> str:
    return ", ".join(f"('{p}')" for p in PREFIXES)


def sql_wildcard_docs() -> str:
    return rf"""
WITH t AS (SELECT doc_id,
                  unnest(regexp_extract_all(lower(text), '\S+')) AS tok
           FROM documents),
p(prefix) AS (VALUES {_values_clause()})
SELECT prefix, doc_id, count(DISTINCT tok)::BIGINT AS n_terms
FROM t JOIN p ON tok LIKE prefix || '%'
GROUP BY prefix, doc_id
ORDER BY prefix, doc_id
"""


def sql_term_suggest() -> str:
    return rf"""
WITH t AS (SELECT doc_id,
                  unnest(regexp_extract_all(lower(text), '\S+')) AS tok
           FROM documents),
df AS (SELECT tok AS term, count(DISTINCT doc_id)::BIGINT AS df
       FROM t GROUP BY tok),
p(prefix) AS (VALUES {_values_clause()}),
r AS (
  SELECT prefix, term, df,
         row_number() OVER (PARTITION BY prefix
                            ORDER BY df DESC, term)::BIGINT AS rank
  FROM df JOIN p ON term LIKE prefix || '%'
)
SELECT prefix, rank, term, df FROM r WHERE rank <= {SUGGEST_K}
ORDER BY prefix, rank
"""


QUERIES = {
    "wildcard_docs": wildcard_docs,
    "term_suggest": term_suggest,
}

ORACLE_SQL = {
    "wildcard_docs": sql_wildcard_docs(),
    "term_suggest": sql_term_suggest(),
}
