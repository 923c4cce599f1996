"""Boolean query-language parser — the Lucene classic QueryParser
surface: `term AND (term OR term) AND NOT term` strings compiled to
posting-set algebra and scored BM25 over the positive terms.

The reference's query path treats the whole input line as a bag of
`\\w+` tokens (/root/reference/src/lib.rs:374-411) and has no query
language at all; this is the parser component a Lucene-grade engine
puts in front of the same scorer.

Semantics (Lucene BooleanQuery in filter+score composition):
- the expression defines the MATCHING doc set: AND = posting-set
  intersection, OR = union, NOT = subtraction;
- scoring is the ordinary BM25 accumulation over the POSITIVE
  (non-negated) terms, restricted to the matching set (MUST_NOT
  clauses never contribute score, exactly Lucene);
- a NOT needs a positive sibling to subtract from: every AND must
  have >= 1 positive child and OR operands must evaluate positive —
  Lucene's own "pure negative query matches nothing" rule, enforced
  at parse time with a clear error instead of silently returning
  nothing.

Plan shape: doc-hash partitioning puts every document wholly in one
segment part, so the set algebra is PART-LOCAL: each part reads only
the expression's terms' posting lists (work proportional to their
df, never a corpus scan), evaluates the tree with sorted-array
intersections/unions, BM25-scores the survivors over the positive
terms, and emits its top-k buffer; the cross-part merge is the
standard k-bounded candidate selection. At 100 TB nothing changes:
the tree is broadcast once per task wave, bytes moved are
sum(df(term)) posting entries + parts x queries x k candidate rows.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

# one query per boolean shape: nested OR-in-AND, AND NOT, grouped OR
# with NOT, pure conjunction, OR over a negated subtree (legal: the
# subtree evaluates positive), NOT in leading position with positive
# siblings; vocabulary from the documents-table corpus
DSL_QUERIES: list[str] = [
    "hash AND (join OR merge)",
    "sort AND NOT window",
    "(scan OR filter) AND batch AND NOT slow",
    "dup AND row AND line",
    "stream OR (window AND NOT table)",
    "NOT slow AND query AND batch",
]

_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")


class DslError(ValueError):
    pass


def parse_dsl(q: str):
    """Recursive-descent parse to an AST of ('term', t) / ('and', [..])
    / ('or', [..]) / ('not', child). AND binds tighter than OR;
    bare adjacency is rejected (explicit operators only). Term atoms
    normalize through the query tokenizer, so 'Sort,' matches the
    same postings 'sort' does."""
    from raysearch.tokenize import tokenize_query

    toks = _TOKEN_RE.findall(q)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        t = toks[pos]
        pos += 1
        return t

    def atom():
        t = peek()
        if t == "(":
            take()
            node = or_expr()
            if peek() != ")":
                raise DslError(f"expected ')' in {q!r}")
            take()
            return node
        if t in (None, ")", "AND", "OR", "NOT"):
            raise DslError(f"expected term at token {t!r} in {q!r}")
        words = tokenize_query(take())
        if len(words) != 1:
            raise DslError(f"atom must normalize to one token, got "
                           f"{words!r} in {q!r}")
        return ("term", words[0])

    def unary():
        if peek() == "NOT":
            take()
            return ("not", unary())
        return atom()

    def and_expr():
        kids = [unary()]
        while peek() == "AND":
            take()
            kids.append(unary())
        return kids[0] if len(kids) == 1 else ("and", kids)

    def or_expr():
        kids = [and_expr()]
        while peek() == "OR":
            take()
            kids.append(and_expr())
        return kids[0] if len(kids) == 1 else ("or", kids)

    node = or_expr()
    if peek() is not None:
        raise DslError(f"trailing token {peek()!r} in {q!r} "
                       f"(operators must be explicit)")
    if not _validate(node):
        raise DslError("pure negative query matches nothing")
    return node


def _validate(node) -> bool:
    """Driver-side structural check at parse time (the docstring's
    'rejected at parse time' promise — eval_sets re-raises in the
    workers as defense in depth). The EXACT mirror of eval_sets'
    positivity rules: returns whether the node evaluates positive,
    raising on the positions eval_sets would reject."""
    kind = node[0]
    if kind == "term":
        return True
    if kind == "not":
        return not _validate(node[1])
    kids = [_validate(c) for c in node[1]]
    if kind == "and":
        if not any(kids):
            raise DslError("AND needs >= 1 positive clause "
                           "(pure negative query matches nothing)")
        return True
    if not all(kids):
        raise DslError("OR over a negative clause needs the "
                       "corpus universe; rewrite with AND NOT")
    return True


def expr_terms(node) -> tuple[list[str], list[str]]:
    """(all terms, positive terms-with-multiplicity) of an AST."""
    allt: list[str] = []
    post: list[str] = []

    def walk(n, neg: bool):
        kind = n[0]
        if kind == "term":
            allt.append(n[1])
            if not neg:
                post.append(n[1])
        elif kind == "not":
            walk(n[1], not neg)
        else:
            for c in n[1]:
                walk(c, neg)

    walk(node, False)
    return allt, post


def eval_sets(node, docs_of) -> np.ndarray:
    """Evaluate the AST over per-term SORTED doc arrays (``docs_of``
    maps term -> np.ndarray). Returns the sorted matching-doc array.
    Raises DslError where the result would need the corpus universe
    (pure-negative positions)."""

    def ev(n):
        kind = n[0]
        if kind == "term":
            return ("pos", docs_of(n[1]))
        if kind == "not":
            k, arr = ev(n[1])
            return ("neg" if k == "pos" else "pos", arr)
        if kind == "and":
            kids = [ev(c) for c in n[1]]
            pos = [a for k, a in kids if k == "pos"]
            neg = [a for k, a in kids if k == "neg"]
            if not pos:
                raise DslError("AND needs >= 1 positive clause "
                               "(pure negative query matches nothing)")
            acc = pos[0]
            for a in pos[1:]:
                acc = acc[np.isin(acc, a, assume_unique=True)]
            for a in neg:
                acc = acc[~np.isin(acc, a, assume_unique=True)]
            return ("pos", acc)
        # or
        kids = [ev(c) for c in n[1]]
        if any(k == "neg" for k, _ in kids):
            raise DslError("OR over a negative clause needs the "
                           "corpus universe; rewrite with AND NOT")
        arrs = [a for _, a in kids if len(a)]
        if not arrs:
            return ("pos", np.array([], dtype=np.int64))
        return ("pos", np.unique(np.concatenate(arrs)))

    k, arr = ev(node)
    if k == "neg":
        raise DslError("pure negative query matches nothing")
    return arr


def dsl_topk(sf_dir: str) -> pa.Table:
    """BM25 top-10 per DSL query (module docstring semantics) over
    the sf_dir's cached documents index."""
    from raysearch.pipelines.search_queries import cached_index

    return dsl_query_index(cached_index(sf_dir), DSL_QUERIES)


def dsl_query_index(idx: str, dsl_queries: list[str],
                    k: int | None = None) -> pa.Table:
    """Run boolean-DSL queries against an arbitrary built index
    (the `cli query --dsl` entry point): parse once on the driver,
    broadcast the ASTs, per-part set algebra over term-filtered
    posting reads, positive-term BM25 over the survivors, k-bounded
    candidate merge under the shared rounding/tie contract."""
    from raysearch.pipelines.rankex import (_part_topk, _plan,
                                            _ranked_from_candidates)
    from raysearch.pipelines.search_queries import _TOPK_BUFFER
    from raysearch.query import keep_postings

    buffer = _TOPK_BUFFER if k is None else max(_TOPK_BUFFER, k + 20)
    asts = [parse_dsl(q) for q in dsl_queries]
    per_q = [expr_terms(a) for a in asts]
    qweights = []
    for _, post in per_q:
        agg: dict[str, int] = {}
        for t in post:
            agg[t] = agg.get(t, 0) + 1
        qweights.append(sorted(agg.items()))
    all_terms = sorted({t for allt, _ in per_q for t in allt})
    plan = _plan(idx, qweights)
    empty_i64 = np.array([], dtype=np.int64)

    def score_query(qid, post):
        def docs_of(t):
            got = post.get(t)
            return got[0] if got is not None else empty_i64

        cand = eval_sets(asts[qid], docs_of)
        if not len(cand):
            return None
        # score only the SURVIVORS: each positive term's posting row
        # narrows to the matching set before accumulation, so scoring
        # work is ∝ |cand|, not Σ df (cand is sorted unique)
        return plan.score(
            plan.qweights[qid],
            lambda t: keep_postings(post[t], cand) if t in post else None)

    return _ranked_from_candidates(
        _part_topk(idx, all_terms, len(asts), score_query, buffer),
        topk=k)


def _sql_pred(node) -> str:
    """The AST as a correlated predicate over documents d (tf CTE)."""
    kind = node[0]
    if kind == "term":
        return ("EXISTS (SELECT 1 FROM tf WHERE tf.doc_id = d.doc_id "
                f"AND tf.term = '{node[1]}')")
    if kind == "not":
        return f"NOT ({_sql_pred(node[1])})"
    op = " AND " if kind == "and" else " OR "
    return "(" + op.join(_sql_pred(c) for c in node[1]) + ")"


def sql_dsl_topk() -> str:
    from raysearch.pipelines.search_queries import (_TOK_CTES, B, K1,
                                                    TOPK)

    asts = [parse_dsl(q) for q in DSL_QUERIES]
    qrows = []
    for qid, ast in enumerate(asts):
        agg: dict[str, int] = {}
        for t in expr_terms(ast)[1]:
            agg[t] = agg.get(t, 0) + 1
        for t, w in sorted(agg.items()):
            qrows.append(f"({qid}, '{t}', {w})")
    cands = " UNION ALL ".join(
        f"SELECT {qid} AS query_id, d.doc_id FROM documents d "
        f"WHERE {_sql_pred(ast)}"
        for qid, ast in enumerate(asts))
    return f"""
WITH {_TOK_CTES},
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs,
         (SELECT sum(dl) FROM dl)::DOUBLE
           / (SELECT count(*) FROM documents) AS avgdl
),
q(query_id, term, w) AS (VALUES {", ".join(qrows)}),
cand AS ({cands}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum(q.w * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
             * (tf.tf * ({K1} + 1))
             / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl))) AS score
  FROM q
  JOIN tf ON q.term = tf.term
  JOIN df ON q.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
kept AS (
  SELECT sc.* FROM scores sc
  JOIN cand ON cand.query_id = sc.query_id
           AND cand.doc_id = sc.doc_id
),
ranked AS (
  SELECT query_id, doc_id, round(score, 6) AS score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 6) DESC, doc_id) AS rank
  FROM kept
)
SELECT query_id::BIGINT AS query_id, doc_id, rank, score
FROM ranked WHERE rank <= {TOPK}
"""


QUERIES = {
    "dsl_topk": dsl_topk,
}

ORACLE_SQL = {
    "dsl_topk": sql_dsl_topk(),
}
