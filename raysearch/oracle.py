"""Single-process oracle: tokenize + index + BM25/overlap top-k in
plain Python/numpy, no Ray.

Rank-identity for the engine is defined against THIS oracle (the
reference binary itself is nondeterministic on ties —
/root/reference/src/lib.rs:401-404); the oracle reproduces the
reference's tokenizer asymmetry (doc: whitespace+lower with punctuation
kept, src/lib.rs:70-74; query: \\w+ lower, src/lib.rs:151-157), its
overlap·tf integer scoring (src/lib.rs:374-399), and the engine's BM25
via the shared kernels in raysearch/score.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from raysearch.config import IndexConfig
from raysearch.score import (check_query_options, dirichlet_scores,
                             query_term_weights, score_postings, topk)
from raysearch.tokenize import tokenize_doc


class Oracle:
    def __init__(self, corpus: pa.Table, config: IndexConfig | None = None):
        self.config = config or IndexConfig()
        self.postings: dict[str, tuple[list[int], list[int], list[int]]] = {}
        self.doc_lens: dict[int, int] = {}
        rows = corpus.sort_by("doc_id")
        doc_ids = rows["doc_id"].to_pylist()
        contents = rows["content"].to_pylist()
        langs = (rows["lang"].to_pylist() if "lang" in rows.column_names
                 else ["txt"] * len(doc_ids))
        for doc_id, content, lang in zip(doc_ids, contents, langs):
            toks = tokenize_doc(content, lang)
            self.doc_lens[doc_id] = len(toks)
            counts: dict[str, int] = {}
            for t in toks:
                counts[t] = counts.get(t, 0) + 1
            dl = len(toks)
            for t, tf in counts.items():
                p = self.postings.setdefault(t, ([], [], []))
                p[0].append(doc_id)  # ascending: docs visited in doc_id order
                p[1].append(tf)
                p[2].append(dl)
        self._np_postings = {
            t: (np.asarray(d, np.int64), np.asarray(f, np.int64),
                np.asarray(l, np.int64))
            for t, (d, f, l) in self.postings.items()
        }
        self.n_docs = len(doc_ids)
        self.total_tokens = int(sum(self.doc_lens.values()))
        self.avgdl = self.total_tokens / self.n_docs if self.n_docs else 0.0
        self.df = {t: len(p[0]) for t, p in self.postings.items()}
        self._cf: dict[str, int] | None = None  # lazy (needs_cf modes)

    @property
    def cf(self) -> dict[str, int]:
        """Collection frequencies, computed on first use by a mode
        that needs them — the common bm25/overlap paths never pay the
        O(vocab) pass."""
        if self._cf is None:
            self._cf = {t: int(p[1].sum())
                        for t, p in self._np_postings.items()}
        return self._cf

    def search(self, query: str, k: int = 10, mode: str = "bm25",
               mu: float = 2000.0) -> list[tuple[int, float]]:
        qw = query_term_weights(query)
        sim = check_query_options(mode)
        cf = self.cf if sim.needs_cf else None
        if sim.contrib is None:
            docs, scores = dirichlet_scores(
                qw, self._np_postings.get, cf, self.total_tokens, mu)
        else:
            docs, scores = score_postings(
                qw, self._np_postings.get, self.df, self.n_docs,
                self.avgdl, self.config.k1, self.config.b, mode,
                cf, self.total_tokens)
        d, s = topk(docs, scores, k)
        return list(zip(d.tolist(), s.tolist()))

    def search_all(self, queries: list[str], k: int = 10, mode: str = "bm25"
                   ) -> pa.Table:
        """Golden top-k table: (query_id, rank, doc_id, score)."""
        qids, ranks, dids, scores = [], [], [], []
        for qid, q in enumerate(queries):
            for rank, (d, s) in enumerate(self.search(q, k, mode), start=1):
                qids.append(qid); ranks.append(rank)
                dids.append(d); scores.append(s)
        return pa.table({
            "query_id": pa.array(qids, pa.int64()),
            "rank": pa.array(ranks, pa.int32()),
            "doc_id": pa.array(dids, pa.int64()),
            "score": pa.array(scores, pa.float64()),
        })
