"""Text-analysis ops for a large-scale training-data pipeline, over the
``documents`` table: language ID, quality scoring, token counting,
document fingerprinting. Each is a vectorized ``map_batches`` stage
(stateful pieces — compiled regexes, stopword arrays — live in an
actor-pool class) with an exact DuckDB oracle.

Operator contract — whitespace: documents are tokenized on Unicode
whitespace (Arrow ``utf8_split_whitespace``) while the DuckDB oracles
use RE2 ``\\S+`` (ASCII whitespace). The two agree on ASCII input; a
document containing non-ASCII whitespace (e.g. U+00A0 NBSP) is outside
the contract and the sides may differ. The testdata corpus is ASCII.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from raysearch.numutil import fmt_doc, frame_table, rank_cut, round6

_DOCS = "documents.parquet"

# deterministic tie order: first list wins on score ties
LANGS = ["de", "en", "es", "fr", "zh"]
STOPWORDS = {
    "de": ["der", "die", "und", "das", "von", "zu", "mit", "den"],
    "en": ["the", "a", "of", "and", "to", "in", "is", "it"],
    "es": ["el", "la", "de", "y", "que", "en", "los", "del"],
    "fr": ["le", "les", "de", "et", "des", "en", "une", "un"],
    "zh": ["de", "shi", "zai", "le", "he", "you", "wo", "ta"],
}

BPE_PATTERN = r"[A-Za-z]+|[0-9]|[^A-Za-z0-9\s]"
NGRAM = 3


def _read_docs(sf_dir: str, columns=("doc_id", "text")):
    import ray.data

    return ray.data.read_parquet(os.path.join(sf_dir, _DOCS),
                                 columns=list(columns))


def _tokens(batch: pa.Table) -> pa.ListArray:
    from raysearch.tokenize import _drop_empty_tokens

    lowered = pc.utf8_lower(pc.cast(batch["text"], pa.large_string()))
    if isinstance(lowered, pa.ChunkedArray):
        lowered = lowered.combine_chunks()
    # defensive copy: see raysearch/tokenize.py on the pyarrow 16.1
    # split-after-transform kernel bug
    lowered = pa.concat_arrays([lowered])
    out = pc.utf8_split_whitespace(lowered)
    if isinstance(out, pa.ChunkedArray):
        out = out.combine_chunks()
    return _drop_empty_tokens(out)


class TextStats:
    """Actor-pool stage: stopword arrays and patterns built once per
    actor (__init__), batches scored vectorized in __call__."""

    def __init__(self) -> None:
        self.stop_sets = {l: pa.array(ws, pa.large_string())
                          for l, ws in STOPWORDS.items()}

    def lang_scores(self, batch: pa.Table) -> tuple[np.ndarray, dict]:
        toks = _tokens(batch)
        n = batch.num_rows
        dl = pc.list_value_length(toks).to_numpy().astype(np.int64)
        flat = toks.flatten()  # Arrow array: no per-token Python
        idx = np.repeat(np.arange(n), dl)
        scores = {}
        for lang in LANGS:
            hit = pc.is_in(flat, value_set=self.stop_sets[lang]).to_numpy(
                zero_copy_only=False)
            acc = np.zeros(n, dtype=np.int64)
            np.add.at(acc, idx[hit], 1)
            scores[lang] = acc
        return dl, scores

    def __call__(self, batch: pa.Table) -> pa.Table:
        dl, scores = self.lang_scores(batch)
        n = batch.num_rows
        mat = np.stack([scores[l] for l in LANGS])  # order = tie priority
        best = np.argmax(mat, axis=0)  # argmax returns FIRST max = tie rule
        mx = mat.max(axis=0)
        pred = np.asarray(LANGS, dtype=object)[best]
        pred[mx == 0] = "und"
        return pa.table({
            "doc_id": batch["doc_id"],
            "pred_lang": pa.array(pred.tolist(), pa.string()),
        })


def lang_id(sf_dir: str) -> pa.Table:
    """Stopword-overlap language ID (n-gram heuristic family); argmax
    with deterministic (list-order) tie-break, 'und' when no evidence.

    Stateless-task stage on purpose: TextStats state (five tiny Arrow
    stopword arrays) costs microseconds to build, so shipping the
    pre-built instance in the task closure beats paying actor-pool
    spin-up (measured 2x at sf0.1). The actor-pool version of the
    same stage pattern lives where state is actually expensive
    (TfidfRanker's broadcast lexicon, MediaDecoder's codec init)."""
    out = _read_docs(sf_dir).map_batches(
        TextStats(), batch_format="pyarrow", zero_copy_batch=True)
    return pa.concat_tables(out.iter_batches(batch_format="pyarrow"))


def quality_score(sf_dir: str) -> pa.Table:
    """Length / punctuation / stopword heuristics per doc; the classic
    pre-training quality filter signals, fully vectorized."""

    stats = TextStats()

    def score(batch: pa.Table) -> pa.Table:
        text = pc.cast(batch["text"], pa.large_string())
        n_chars = pc.utf8_length(text).to_numpy().astype(np.float64)
        non_ws = pc.utf8_length(pc.replace_substring_regex(
            text, r"\s", "")).to_numpy().astype(np.float64)
        alpha = pc.utf8_length(pc.replace_substring_regex(
            text, r"[^a-zA-Z]", "")).to_numpy().astype(np.float64)
        dl, sc = stats.lang_scores(batch)
        dlf = dl.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            mean_tok = np.where(dl > 0, non_ws / dlf, 0.0)
            alpha_ratio = np.where(n_chars > 0, alpha / n_chars, 0.0)
            stop_ratio = np.where(dl > 0, sc["en"] / dlf, 0.0)
        ok = ((dl >= 5) & (alpha_ratio >= 0.5)).astype(np.int64)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_tokens": pa.array(dl, pa.int64()),
            "mean_tok_len": pa.array(round6(mean_tok), pa.float64()),
            "alpha_ratio": pa.array(round6(alpha_ratio), pa.float64()),
            "stop_ratio": pa.array(round6(stop_ratio), pa.float64()),
            "quality_ok": pa.array(ok, pa.int64()),
        })

    out = _read_docs(sf_dir).map_batches(score, batch_format="pyarrow",
                                         zero_copy_batch=True)
    return pa.concat_tables(out.iter_batches(batch_format="pyarrow"))


def token_counts(sf_dir: str) -> pa.Table:
    """Whitespace token count + BPE-ish regex token count per doc
    (pyarrow count_substring_regex — no Python in the loop)."""

    def count(batch: pa.Table) -> pa.Table:
        text = pc.cast(batch["text"], pa.large_string())
        ws = pc.count_substring_regex(text, r"\S+")
        bpe = pc.count_substring_regex(text, BPE_PATTERN)
        return pa.table({
            "doc_id": batch["doc_id"],
            "ws_tokens": pc.cast(ws, pa.int64()),
            "bpe_tokens": pc.cast(bpe, pa.int64()),
        })

    out = _read_docs(sf_dir).map_batches(count, batch_format="pyarrow",
                                         zero_copy_batch=True)
    return pa.concat_tables(out.iter_batches(batch_format="pyarrow"))


def doc_shingles(batch: pa.Table, ngram: int = NGRAM
                 ) -> tuple[np.ndarray, list[set]]:
    """(doc_ids, distinct word-ngram shingle set per doc)."""
    toks = _tokens(batch).to_pylist()
    doc_ids = batch["doc_id"].to_numpy()
    sets = [{" ".join(t[i:i + ngram]) for i in range(len(t) - ngram + 1)}
            for t in toks]
    return doc_ids, sets


def doc_shingles_flat(batch: pa.Table, ngram: int = NGRAM
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat layout for vectorized sketches: (doc_ids, flat distinct
    grams (object array), per-doc start offsets). Docs with no grams
    are dropped (their start range is empty anyway)."""
    doc_ids, sets = doc_shingles(batch, ngram)
    counts = np.array([len(s) for s in sets], dtype=np.int64)
    keep = counts > 0
    flat = np.array([g for s in sets for g in sorted(s)], dtype=object)
    starts = np.zeros(int(keep.sum()), dtype=np.int64)
    np.cumsum(counts[keep][:-1], out=starts[1:])
    return doc_ids[keep], flat, starts


def md5_prefix_ints(grams: np.ndarray, hex_len: int) -> np.ndarray:
    """int(md5(g)[:hex_len], 16) per gram, hashing each UNIQUE gram
    once per batch (near-dup docs share most shingles)."""
    import hashlib as _hl

    uniq, inv = np.unique(grams, return_inverse=True)
    vals = np.fromiter(
        (int(_hl.md5(g.encode()).hexdigest()[:hex_len], 16) for g in uniq),
        dtype=np.uint64, count=len(uniq))
    return vals[inv]


def fingerprint(sf_dir: str) -> pa.Table:
    """Min-hash document fingerprint: the lexicographically smallest
    md5-prefix over the doc's distinct 3-gram shingles (a min-k
    sketch with k=1) + the distinct-shingle count. Docs with < 3
    tokens have no shingles and are excluded (both sides)."""

    def fp(batch: pa.Table) -> pa.Table:
        doc_ids, flat, starts = doc_shingles_flat(batch)
        if len(doc_ids) == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "minhash_hex": pa.array([], pa.string()),
                             "n_grams": pa.array([], pa.int64())})
        h = md5_prefix_ints(flat, 16)  # 64-bit: uint64 min == hex min
        mins = np.minimum.reduceat(h, starts)
        bounds = np.append(starts, len(flat))
        return pa.table({
            "doc_id": pa.array(doc_ids, pa.int64()),
            "minhash_hex": pa.array([f"{v:016x}" for v in mins],
                                    pa.string()),
            "n_grams": pa.array(np.diff(bounds), pa.int64()),
        })

    out = _read_docs(sf_dir).map_batches(fp, batch_format="pyarrow",
                                         zero_copy_batch=True)
    return pa.concat_tables(out.iter_batches(batch_format="pyarrow"))


# ---- PII scrubbing + text normalization (map-only cleaning ops) ----

# RE2-compatible patterns (pyarrow and DuckDB both run RE2, so the
# match semantics — leftmost, non-overlapping, greedy — agree by
# construction). Applied in a FIXED order (email -> ipv4 -> phone) on
# both sides: later patterns see earlier redactions, so ordering is
# part of the operator contract.
PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_IPV4 = r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b"
PII_PHONE = r"\+?[0-9][0-9. ()-]{6,}[0-9]"
_PII_STEPS = (("email", PII_EMAIL, "<EMAIL>"),
              ("ipv4", PII_IPV4, "<IP>"),
              ("phone", PII_PHONE, "<PHONE>"))


def pii_scrub(sf_dir: str) -> pa.Table:
    """Redact emails / IPv4s / phone-shaped digit runs from every
    document (the standard pre-training PII pass). Map-only, fully
    vectorized (pyarrow RE2 kernels); the scrubbed text is returned as
    an md5 so the driver value-hash covers every output byte without
    hauling the corpus back to the driver. At scale this stage is a
    pure map_batches -> write_parquet sink."""

    def scrub(batch: pa.Table) -> pa.Table:
        import hashlib

        text = pc.cast(batch["text"], pa.large_string())
        counts = {}
        for name, pat, repl in _PII_STEPS:
            counts[name] = pc.cast(
                pc.count_substring_regex(text, pat), pa.int64())
            text = pc.replace_substring_regex(text, pat, repl)
        clean = text.to_pylist()
        return pa.table({
            "doc_id": batch["doc_id"],
            "clean_md5": pa.array(
                [hashlib.md5(t.encode()).hexdigest() for t in clean],
                pa.string()),
            "n_emails": counts["email"],
            "n_ips": counts["ipv4"],
            "n_phones": counts["phone"],
        })

    out = _read_docs(sf_dir).map_batches(scrub, batch_format="pyarrow",
                                         zero_copy_batch=True)
    return pa.concat_tables(out.iter_batches(batch_format="pyarrow"))


def normalize_text(sf_dir: str) -> pa.Table:
    """Canonical text normalization: lowercase, collapse all
    whitespace runs to single spaces, trim. Map-only; output checked
    by md5 (same rationale as pii_scrub)."""

    def norm(batch: pa.Table) -> pa.Table:
        import hashlib

        text = pc.utf8_trim_whitespace(pc.replace_substring_regex(
            pc.utf8_lower(pc.cast(batch["text"], pa.large_string())),
            r"\s+", " "))
        normed = text.to_pylist()
        return pa.table({
            "doc_id": batch["doc_id"],
            "norm_md5": pa.array(
                [hashlib.md5(t.encode()).hexdigest() for t in normed],
                pa.string()),
            "norm_chars": pc.cast(pc.utf8_length(text), pa.int64()),
        })

    out = _read_docs(sf_dir).map_batches(norm, batch_format="pyarrow",
                                         zero_copy_batch=True)
    return pa.concat_tables(out.iter_batches(batch_format="pyarrow"))


# Benchmark-decontamination contract: "benchmark" docs are
# doc_id % BENCH_MOD == 0 (a deterministic held-out split — no
# external data); overlap unit is the distinct lowered-whitespace
# CONTAM_NGRAM-gram, compared via 64-bit md5 prefix on both engine
# and oracle.
BENCH_MOD = 101
CONTAM_NGRAM = 5


def decontaminate(sf_dir: str) -> pa.Table:
    """Benchmark decontamination (the GPT-3 appendix-C shape): flag
    every training doc sharing at least one distinct 5-gram with the
    held-out benchmark split. Pass 1 reads ONLY benchmark docs (a
    ~1/BENCH_MOD slice; at scale the benchmark is its own small
    input) and collects their distinct gram hashes — small side,
    np.unique'd on the driver and broadcast once via ray.put. Pass 2
    streams the corpus, counting per-doc members of the broadcast set
    with one searchsorted per batch (zero-copy numpy ray.get). No
    corpus-sized shuffle anywhere."""
    import ray

    def bench_grams(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        keep = (ids % BENCH_MOD) == 0
        if not keep.any():
            return pa.table({"h": pa.array([], pa.uint64())})
        sub = batch.filter(pa.array(keep))
        _, flat, _ = doc_shingles_flat(sub, ngram=CONTAM_NGRAM)
        return pa.table({"h": pa.array(np.unique(
            md5_prefix_ints(flat, 16)), pa.uint64())})

    bds = _read_docs(sf_dir).map_batches(
        bench_grams, batch_format="pyarrow", zero_copy_batch=True)
    parts = [b["h"].to_numpy()
             for b in bds.iter_batches(batch_format="pyarrow")]
    contam = np.unique(np.concatenate(parts)) if parts \
        else np.array([], dtype=np.uint64)
    contam_ref = ray.put(contam)

    def scan(batch: pa.Table) -> pa.Table:
        cset = ray.get(contam_ref)  # zero-copy numpy view
        ids = batch["doc_id"].to_numpy()
        n = len(ids)
        kept, flat, starts = doc_shingles_flat(batch,
                                               ngram=CONTAM_NGRAM)
        n_grams = np.zeros(n, dtype=np.int64)
        n_contam = np.zeros(n, dtype=np.int64)
        if len(kept):
            h = md5_prefix_ints(flat, 16)
            pos = np.searchsorted(cset, h)
            pos = np.minimum(pos, max(len(cset) - 1, 0))
            hit = (cset[pos] == h).astype(np.int64) if len(cset) \
                else np.zeros(len(h), dtype=np.int64)
            bounds = np.append(starts, len(flat))
            per_doc_hits = np.add.reduceat(hit, starts) if len(flat) \
                else np.zeros(len(kept), dtype=np.int64)
            # kept is an order-preserving subsequence of ids (unique)
            rows = np.flatnonzero(np.isin(ids, kept))
            n_grams[rows] = np.diff(bounds)
            n_contam[rows] = per_doc_hits
        is_bench = ((ids % BENCH_MOD) == 0).astype(np.int64)
        contaminated = ((n_contam > 0) & (is_bench == 0)) \
            .astype(np.int64)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_grams": pa.array(n_grams, pa.int64()),
            "n_contam": pa.array(n_contam, pa.int64()),
            "is_benchmark": pa.array(is_bench, pa.int64()),
            "contaminated": pa.array(contaminated, pa.int64()),
        })

    out = _read_docs(sf_dir).map_batches(scan, batch_format="pyarrow",
                                         zero_copy_batch=True)
    return pa.concat_tables(out.iter_batches(batch_format="pyarrow"))


# ---- Bloom-filter decontamination (the unbounded-benchmark path) ----
#
# `decontaminate` broadcasts the benchmark's distinct gram hashes —
# bounded by the BENCHMARK size (8 B/gram). When the held-out side is
# itself huge, the scalable variant is a FIXED-size Bloom filter:
# 2^BLOOM_BITS_LOG2 bits regardless of benchmark size, OR-mergeable
# (associative+commutative, like the HLL registers), with a superset
# guarantee — never a false negative, false positives at the standard
# (1 - e^(-kn/m))^k rate. Approximate by construction -> rows-only
# driver check; pytest asserts the superset property (including under
# a deliberately undersized filter) and exactness at the default size.

BLOOM_BITS_LOG2 = 20      # 2^20 bits = 128 KiB filter
BLOOM_K = 4               # probes per gram
_BLOOM_M = np.uint64(1 << BLOOM_BITS_LOG2)
_BLOOM_WORDS = (1 << BLOOM_BITS_LOG2) >> 6


def _bloom_positions(h: np.ndarray, m: np.uint64) -> np.ndarray:
    """(k, n) probe bit positions via double hashing — deterministic
    across processes (splitmix64-derived second hash, forced odd).
    The filter size is a PARAMETER (not a module-global read) so the
    value the driver chose is captured by value into task closures —
    module-level globals are re-imported fresh by Ray workers."""
    from raysearch.hashing import splitmix64

    h1 = h % m
    h2 = (splitmix64(h) | np.uint64(1)) % m
    with np.errstate(over="ignore"):
        return np.stack([(h1 + np.uint64(i) * h2) % m
                         for i in range(BLOOM_K)])


@fmt_doc(w=_BLOOM_WORDS, kb=(_BLOOM_WORDS * 8) // 1024, k=BLOOM_K)
def decontaminate_bloom(sf_dir: str) -> pa.Table:
    """Same contract as `decontaminate` but the benchmark side is a
    constant-size Bloom filter: pass 1 emits SPARSE (word_idx, bits)
    rows per batch, one coarse groupby OR-merges them (64 groups, ≤
    {w} word rows total), the driver assembles the final {kb} KiB
    word array and broadcasts it once; pass 2 probes membership with
    {k} vectorized bit tests per gram. `contaminated` is a SUPERSET
    of the exact operator's (no false negatives)."""
    import ray

    m, n_words = _BLOOM_M, _BLOOM_WORDS  # captured by value below

    def bench_bits(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        keep = (ids % BENCH_MOD) == 0
        empty = pa.table({"bucket": pa.array([], pa.int64()),
                          "widx": pa.array([], pa.int64()),
                          "bits": pa.array([], pa.int64())})
        if not keep.any():
            return empty
        sub = batch.filter(pa.array(keep))
        _, flat, _ = doc_shingles_flat(sub, ngram=CONTAM_NGRAM)
        if not len(flat):
            return empty
        pos = _bloom_positions(md5_prefix_ints(flat, 16), m).ravel()
        widx = (pos >> np.uint64(6)).astype(np.int64)
        mask = (np.uint64(1) << (pos & np.uint64(63))).view(np.int64)
        order = np.argsort(widx, kind="stable")
        widx, mask = widx[order], mask[order]
        starts = np.flatnonzero(
            np.concatenate(([True], widx[1:] != widx[:-1])))
        words = np.bitwise_or.reduceat(mask, starts)
        uw = widx[starts]
        return pa.table({
            "bucket": pa.array(uw >> 8, pa.int64()),
            "widx": pa.array(uw, pa.int64()),
            "bits": pa.array(words, pa.int64())})

    def or_merge(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby("widx", as_index=False)
               .agg(bits=("bits", lambda s: np.bitwise_or.reduce(
                   s.to_numpy(np.int64)))))
        return out

    sparse = (_read_docs(sf_dir)
              .map_batches(bench_bits, batch_format="pyarrow",
                           zero_copy_batch=True)
              .groupby("bucket").map_groups(or_merge,
                                            batch_format="pandas")
              .to_pandas())
    words = np.zeros(n_words, dtype=np.int64)
    if len(sparse) and "widx" in sparse.columns:
        words[sparse["widx"].to_numpy(np.int64)] = \
            sparse["bits"].to_numpy(np.int64)
    words_ref = ray.put(words.view(np.uint64))

    def scan(batch: pa.Table) -> pa.Table:
        w = ray.get(words_ref)  # zero-copy numpy view
        ids = batch["doc_id"].to_numpy()
        n = len(ids)
        kept, flat, starts = doc_shingles_flat(batch,
                                               ngram=CONTAM_NGRAM)
        n_grams = np.zeros(n, dtype=np.int64)
        n_maybe = np.zeros(n, dtype=np.int64)
        if len(kept) and len(flat):
            pos = _bloom_positions(md5_prefix_ints(flat, 16), m)
            hit = np.ones(pos.shape[1], dtype=bool)
            for i in range(BLOOM_K):
                p = pos[i]
                hit &= ((w[(p >> np.uint64(6)).astype(np.int64)]
                         >> (p & np.uint64(63))) & np.uint64(1)) == 1
            bounds = np.append(starts, len(flat))
            per_doc = np.add.reduceat(hit.astype(np.int64), starts)
            rows = np.flatnonzero(np.isin(ids, kept))
            n_grams[rows] = np.diff(bounds)
            n_maybe[rows] = per_doc
        is_bench = ((ids % BENCH_MOD) == 0).astype(np.int64)
        contaminated = ((n_maybe > 0) & (is_bench == 0)).astype(np.int64)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_grams": pa.array(n_grams, pa.int64()),
            "n_maybe_contam": pa.array(n_maybe, pa.int64()),
            "is_benchmark": pa.array(is_bench, pa.int64()),
            "contaminated": pa.array(contaminated, pa.int64()),
        })

    out = _read_docs(sf_dir).map_batches(scan, batch_format="pyarrow",
                                         zero_copy_batch=True)
    return pa.concat_tables(out.iter_batches(batch_format="pyarrow"))


def _list_parents(arr: pa.ListArray) -> np.ndarray:
    """Parent row index per flattened list element."""
    offs = arr.offsets.to_numpy()
    return np.repeat(np.arange(len(arr), dtype=np.int64),
                     np.diff(offs))


def rep_signals(sf_dir: str) -> pa.Table:
    """Gopher-style repetition quality signals per document (Rae et
    al. 2021, "Scaling Language Models", appendix A1 repetition
    filters): the fraction of line slots that repeat an earlier
    identical line, the fraction of line characters inside those
    repeats, and the share of tokens taken by the single most frequent
    token. Map-only, one corpus pass, fully vectorized (factorize +
    bincount — no per-doc Python).

    Lines = '\\n'-split pieces with length > 0 (no trimming); tokens =
    the module's lowered whitespace split (ASCII contract, see module
    docstring)."""

    def sig(batch: pa.Table) -> pa.Table:
        text = pc.cast(batch["text"], pa.large_string())
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        # defensive copy: split-after-transform kernel bug (tokenize.py)
        text = pa.concat_arrays([text])
        n = len(text)

        lines = pc.split_pattern(text, "\n")
        parent = _list_parents(lines)
        flat = lines.flatten()
        lens = pc.utf8_length(flat).to_numpy().astype(np.int64)
        keep = lens > 0
        parent, lens = parent[keep], lens[keep]
        flat_np = flat.filter(pa.array(keep)).to_numpy(
            zero_copy_only=False)

        import pandas as pd
        codes, uniq = pd.factorize(flat_np)
        key = parent * np.int64(max(len(uniq), 1)) + codes
        _, first_idx, cnts = np.unique(key, return_index=True,
                                       return_counts=True)
        n_lines = np.bincount(parent, minlength=n)
        n_distinct = np.bincount(parent[first_idx], minlength=n)
        total_chars = np.bincount(parent, weights=lens,
                                  minlength=n)
        distinct_chars = np.bincount(parent[first_idx],
                                     weights=lens[first_idx],
                                     minlength=n)
        with np.errstate(divide="ignore", invalid="ignore"):
            dup_line = np.where(
                n_lines > 0,
                (n_lines - n_distinct) / n_lines.astype(np.float64),
                0.0)
            dup_char = np.where(
                total_chars > 0,
                (total_chars - distinct_chars) / total_chars, 0.0)

        toks = _tokens(batch)
        tparent = _list_parents(toks)
        tflat = toks.flatten().to_numpy(zero_copy_only=False)
        tcodes, tuniq = pd.factorize(tflat)
        tkey = tparent * np.int64(max(len(tuniq), 1)) + tcodes
        tk, tcnt = np.unique(tkey, return_counts=True)
        mx = np.zeros(n, dtype=np.int64)
        np.maximum.at(mx, (tk // np.int64(max(len(tuniq), 1))), tcnt)
        n_toks = np.bincount(tparent, minlength=n)
        with np.errstate(divide="ignore", invalid="ignore"):
            top_word = np.where(n_toks > 0,
                                mx / n_toks.astype(np.float64), 0.0)

        return pa.table({
            "doc_id": batch["doc_id"],
            "n_lines": pa.array(n_lines.astype(np.int64), pa.int64()),
            "dup_line_frac": pa.array(round6(dup_line), pa.float64()),
            "dup_line_char_frac": pa.array(round6(dup_char),
                                           pa.float64()),
            "top_word_frac": pa.array(round6(top_word), pa.float64()),
        })

    out = _read_docs(sf_dir).map_batches(sig, batch_format="pyarrow",
                                         zero_copy_batch=True)
    return pa.concat_tables(out.iter_batches(batch_format="pyarrow"))


def rep_ngram_signals(sf_dir: str) -> pa.Table:
    """Gopher repetition signals over word n-grams (Rae et al. 2021
    appendix A1, the n-gram companions to ``rep_signals``): the share
    of bigram slots taken by the single most frequent bigram
    (top_bigram_frac) and the fraction of trigram slots that repeat an
    earlier identical trigram (dup_trigram_frac). Token-SLOT
    accounting (not Gopher's character spans) keeps the contract exact
    and SQL-expressible. Map-only, one corpus pass, vectorized across
    all docs in a batch (factorize + int64 gram keys + unique/bincount
    — no per-doc Python)."""

    def sig(batch: pa.Table) -> pa.Table:
        import pandas as pd

        n = len(batch["doc_id"])
        toks = _tokens(batch)
        parent = _list_parents(toks)
        flat = toks.flatten().to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(flat)
        codes = codes.astype(np.int64)
        v = np.int64(max(len(uniq), 1))

        n_big = np.zeros(n, dtype=np.int64)
        mx2 = np.zeros(n, dtype=np.int64)
        n_tri = np.zeros(n, dtype=np.int64)
        nd_tri = np.zeros(n, dtype=np.int64)
        if len(codes) > 1:
            same2 = parent[:-1] == parent[1:]
            p2 = parent[:-1][same2]
            # overflow-safe packing: factorize the pair code FIRST so
            # the (parent, pair) key is bounded by n_rows * n_pairs
            # (<= ~1e15 for any physical batch) instead of
            # n_rows * V^2, which can exceed int64 on large blocks
            pair_code = codes[:-1][same2] * v + codes[1:][same2]
            f_pair, pair_uniq = pd.factorize(pair_code)
            np_pairs = np.int64(max(len(pair_uniq), 1))
            key2 = p2 * np_pairs + f_pair.astype(np.int64)
            n_big = np.bincount(p2, minlength=n)
            _, first2, cnt2 = np.unique(key2, return_index=True,
                                        return_counts=True)
            np.maximum.at(mx2, p2[first2], cnt2)

            if len(codes) > 2:
                same3 = same2[:-1] & same2[1:]
                if same3.any():
                    # trigram key = factorized bigram code (parent
                    # already embedded) x V + third token
                    f2, _ = pd.factorize(key2)
                    idx2 = np.cumsum(same2) - 1
                    pos3 = np.nonzero(same3)[0]
                    key3 = f2[idx2[pos3]].astype(np.int64) * v \
                        + codes[pos3 + 2]
                    p3 = parent[pos3]
                    n_tri = np.bincount(p3, minlength=n)
                    _, first3 = np.unique(key3, return_index=True)
                    nd_tri = np.bincount(p3[first3], minlength=n)

        with np.errstate(divide="ignore", invalid="ignore"):
            top2 = np.where(n_big > 0, mx2 / n_big.astype(np.float64),
                            0.0)
            dup3 = np.where(n_tri > 0,
                            (n_tri - nd_tri) / n_tri.astype(np.float64),
                            0.0)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_bigrams": pa.array(n_big, pa.int64()),
            "top_bigram_frac": pa.array(round6(top2), pa.float64()),
            "dup_trigram_frac": pa.array(round6(dup3), pa.float64()),
        })

    out = _read_docs(sf_dir).map_batches(sig, batch_format="pyarrow",
                                         zero_copy_batch=True)
    return pa.concat_tables(out.iter_batches(batch_format="pyarrow"))


GOPHER_STOPS = ["the", "be", "to", "of", "and", "that", "have", "with"]
GOPHER_MIN_WORDS = 50
GOPHER_MAX_WORDS = 100_000
GOPHER_MIN_MWL = 3.0
GOPHER_MAX_MWL = 10.0
GOPHER_MIN_ALPHA = 0.8
GOPHER_MIN_STOPS = 2


def gopher_filters(sf_dir: str) -> pa.Table:
    """Gopher document-level quality filter rules (Rae et al. 2021,
    appendix A1 "quality filtering" — the word-based subset; the
    line-based C4 rules are degenerate on single-line corpora): word
    count in [50, 100k], mean word length in [3, 10], fraction of
    words containing an alphabetic character >= 0.8, and at least 2
    distinct common-English stopwords present. Emits each signal plus
    the combined ``kept`` flag. Thresholds are exact on round6'd
    signals so the engine and the SQL oracle take identical branches.
    Map-only, one corpus pass, vectorized (Arrow kernels + bincount;
    the only loop is over the 8 stopwords, not over docs)."""

    def sig(batch: pa.Table) -> pa.Table:
        n = len(batch["doc_id"])
        toks = _tokens(batch)
        parent = _list_parents(toks)
        flat = toks.flatten()
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        n_words = np.bincount(parent, minlength=n).astype(np.int64)
        lens = pc.utf8_length(flat).to_numpy().astype(np.int64)
        tot_len = np.bincount(parent, weights=lens, minlength=n)
        alpha = pc.match_substring_regex(flat, "[a-z]").to_numpy(
            zero_copy_only=False)
        n_alpha = np.bincount(parent, weights=alpha, minlength=n)
        stop_hits = np.zeros(n, dtype=np.int64)
        for w in GOPHER_STOPS:
            hit = pc.equal(flat, w).to_numpy(zero_copy_only=False)
            present = np.bincount(parent, weights=hit, minlength=n) > 0
            stop_hits += present.astype(np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            mwl = round6(np.where(n_words > 0,
                                  tot_len / np.maximum(n_words, 1),
                                  0.0))
            af = round6(np.where(n_words > 0,
                                 n_alpha / np.maximum(n_words, 1),
                                 0.0))
        kept = ((n_words >= GOPHER_MIN_WORDS)
                & (n_words <= GOPHER_MAX_WORDS)
                & (mwl >= GOPHER_MIN_MWL) & (mwl <= GOPHER_MAX_MWL)
                & (af >= GOPHER_MIN_ALPHA)
                & (stop_hits >= GOPHER_MIN_STOPS)).astype(np.int64)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_words": pa.array(n_words, pa.int64()),
            "mean_word_len": pa.array(mwl, pa.float64()),
            "alpha_word_frac": pa.array(af, pa.float64()),
            "stopword_hits": pa.array(stop_hits, pa.int64()),
            "kept": pa.array(kept, pa.int64()),
        })

    out = _read_docs(sf_dir).map_batches(sig, batch_format="pyarrow",
                                         zero_copy_batch=True)
    return pa.concat_tables(out.iter_batches(batch_format="pyarrow"))


def sql_gopher_filters() -> str:
    stops = ", ".join(f"'{w}'" for w in GOPHER_STOPS)
    return rf"""
WITH t AS (SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS toks
           FROM documents),
w AS (SELECT doc_id, unnest(toks) AS w FROM t),
agg AS (
  SELECT doc_id,
         count(*)::BIGINT AS n_words,
         round(sum(length(w))::DOUBLE / count(*), 6) AS mwl,
         round(sum(CASE WHEN regexp_matches(w, '[a-z]')
                        THEN 1 ELSE 0 END)::DOUBLE / count(*), 6)
           AS af,
         count(DISTINCT CASE WHEN w IN ({stops}) THEN w END)::BIGINT
           AS stop_hits
  FROM w GROUP BY doc_id
)
SELECT d.doc_id,
  coalesce(a.n_words, 0)::BIGINT AS n_words,
  coalesce(a.mwl, 0)::DOUBLE AS mean_word_len,
  coalesce(a.af, 0)::DOUBLE AS alpha_word_frac,
  coalesce(a.stop_hits, 0)::BIGINT AS stopword_hits,
  (CASE WHEN coalesce(a.n_words, 0) BETWEEN {GOPHER_MIN_WORDS}
          AND {GOPHER_MAX_WORDS}
        AND a.mwl BETWEEN {GOPHER_MIN_MWL} AND {GOPHER_MAX_MWL}
        AND a.af >= {GOPHER_MIN_ALPHA}
        AND a.stop_hits >= {GOPHER_MIN_STOPS}
   THEN 1 ELSE 0 END)::BIGINT AS kept
FROM documents d LEFT JOIN agg a USING (doc_id)
"""


def lang_confusion(sf_dir: str) -> pa.Table:
    """Model-evaluation aggregate: the confusion matrix of the
    stopword-overlap language classifier against the labeled ``lang``
    column — (true_lang, pred_lang, n). One map pass emits per-batch
    (true, pred) partial counts (the classifier runs in the same
    batch, nothing per-doc leaves the task); a lang^2-cardinality
    groupby sums them. The oracle COMPOSES sql_lang_id as a CTE, so
    the classifier contract is pinned in exactly one place."""
    import pandas as pd
    from ray.data.aggregate import Sum

    stats = TextStats()

    def partial(batch: pa.Table) -> pa.Table:
        pred = stats(batch)["pred_lang"].to_numpy(zero_copy_only=False)
        true = np.asarray(batch["lang"].to_pylist(), dtype=object)
        df = (pd.DataFrame({"true_lang": true, "pred_lang": pred})
              .groupby(["true_lang", "pred_lang"], as_index=False)
              .agg(n=("true_lang", "size")))
        return pa.table({
            "true_lang": pa.array(df.true_lang.tolist(), pa.string()),
            "pred_lang": pa.array(df.pred_lang.tolist(), pa.string()),
            "n": pa.array(df.n.to_numpy(np.int64), pa.int64()),
        })

    ds = _read_docs(sf_dir, ["doc_id", "text", "lang"]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True)
    agg = ds.groupby(["true_lang", "pred_lang"]).aggregate(
        Sum("n", alias_name="n"))
    df = agg.to_pandas().sort_values(["true_lang", "pred_lang"],
                                     ignore_index=True)
    return pa.table({
        "true_lang": pa.array(df.true_lang.tolist(), pa.string()),
        "pred_lang": pa.array(df.pred_lang.tolist(), pa.string()),
        "n": pa.array(df.n.to_numpy(np.int64), pa.int64()),
    })


def sql_lang_confusion() -> str:
    return f"""
WITH pred AS ({sql_lang_id()})
SELECT d.lang AS true_lang, p.pred_lang, count(*)::BIGINT AS n
FROM documents d JOIN pred p ON d.doc_id = p.doc_id
GROUP BY 1, 2 ORDER BY 1, 2
"""


C4_MIN_WORDS_PER_LINE = 3
C4_MIN_SENTENCES = 3
C4_BAD_PHRASE = "lorem ipsum"


def c4_filters(sf_dir: str) -> pa.Table:
    """C4-style line/punctuation quality rules (Raffel et al. 2020,
    §2.2 — the line-based complement to the word-based
    ``gopher_filters``): per doc, the fraction of nonempty lines
    ending in terminal punctuation (. ! ? or a closing double quote),
    the fraction of nonempty lines with fewer than 3 whitespace
    tokens, sentence-ender count, curly-brace and 'lorem ipsum'
    flags, and the combined ``kept`` decision
    (>= 3 sentence enders, no brace, no bad phrase). Map-only, one
    pass, Arrow regex kernels + bincount — no per-doc Python."""

    def sig(batch: pa.Table) -> pa.Table:
        text = pc.cast(batch["text"], pa.large_string())
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        text = pa.concat_arrays([text])
        n = len(text)

        lines = pc.split_pattern(text, "\n")
        parent = _list_parents(lines)
        flat = lines.flatten()
        keep = pc.greater(pc.utf8_length(flat), 0).to_numpy(
            zero_copy_only=False)
        parent = parent[keep]
        flat = flat.filter(pa.array(keep))
        n_lines = np.bincount(parent, minlength=n).astype(np.int64)
        term = pc.match_substring_regex(
            flat, '[.!?"]$').to_numpy(zero_copy_only=False)
        n_term = np.bincount(parent, weights=term, minlength=n)
        words = pc.count_substring_regex(flat, r"\S+").to_numpy(
            zero_copy_only=False)
        short = words < C4_MIN_WORDS_PER_LINE
        n_short = np.bincount(parent, weights=short, minlength=n)

        n_sent = pc.count_substring_regex(text, "[.!?]").to_numpy(
            zero_copy_only=False).astype(np.int64)
        brace = pc.match_substring(text, "{").to_numpy(
            zero_copy_only=False).astype(np.int64)
        lorem = pc.match_substring(
            pc.utf8_lower(text), C4_BAD_PHRASE).to_numpy(
            zero_copy_only=False).astype(np.int64)

        with np.errstate(divide="ignore", invalid="ignore"):
            tf = round6(np.where(n_lines > 0,
                                 n_term / np.maximum(n_lines, 1), 0.0))
            sf_ = round6(np.where(n_lines > 0,
                                  n_short / np.maximum(n_lines, 1), 0.0))
        kept = ((n_sent >= C4_MIN_SENTENCES) & (brace == 0)
                & (lorem == 0)).astype(np.int64)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_lines": pa.array(n_lines, pa.int64()),
            "term_punct_frac": pa.array(tf, pa.float64()),
            "short_line_frac": pa.array(sf_, pa.float64()),
            "n_sentences": pa.array(n_sent, pa.int64()),
            "has_brace": pa.array(brace, pa.int64()),
            "has_bad_phrase": pa.array(lorem, pa.int64()),
            "kept": pa.array(kept, pa.int64()),
        })

    out = _read_docs(sf_dir).map_batches(sig, batch_format="pyarrow",
                                         zero_copy_batch=True)
    return pa.concat_tables(out.iter_batches(batch_format="pyarrow"))


def sql_c4_filters() -> str:
    return rf"""
WITH raw AS (
  SELECT doc_id, unnest(string_split(text, chr(10))) AS line
  FROM documents
),
l AS (
  SELECT doc_id,
         count(*)::BIGINT AS n_lines,
         sum(CASE WHEN regexp_matches(line, '[.!?"]$')
             THEN 1 ELSE 0 END)::BIGINT AS n_term,
         sum(CASE WHEN len(regexp_extract_all(line, '\S+'))
                  < {C4_MIN_WORDS_PER_LINE}
             THEN 1 ELSE 0 END)::BIGINT AS n_short
  FROM raw WHERE length(line) > 0 GROUP BY doc_id
)
SELECT d.doc_id,
  coalesce(l.n_lines, 0)::BIGINT AS n_lines,
  round(CASE WHEN coalesce(l.n_lines, 0) > 0
    THEN l.n_term::DOUBLE / l.n_lines ELSE 0 END, 6)
    AS term_punct_frac,
  round(CASE WHEN coalesce(l.n_lines, 0) > 0
    THEN l.n_short::DOUBLE / l.n_lines ELSE 0 END, 6)
    AS short_line_frac,
  len(regexp_extract_all(d.text, '[.!?]'))::BIGINT AS n_sentences,
  (CASE WHEN contains(d.text, '{{') THEN 1 ELSE 0 END)::BIGINT
    AS has_brace,
  (CASE WHEN contains(lower(d.text), '{C4_BAD_PHRASE}')
   THEN 1 ELSE 0 END)::BIGINT AS has_bad_phrase,
  (CASE WHEN len(regexp_extract_all(d.text, '[.!?]'))
          >= {C4_MIN_SENTENCES}
        AND NOT contains(d.text, '{{')
        AND NOT contains(lower(d.text), '{C4_BAD_PHRASE}')
   THEN 1 ELSE 0 END)::BIGINT AS kept
FROM documents d LEFT JOIN l USING (doc_id)
"""


# ---- oracle SQL ----

def _stop_in(lang: str) -> str:
    return ", ".join(f"'{w}'" for w in STOPWORDS[lang])


def sql_lang_id() -> str:
    return rf"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '\S+')) AS term
  FROM documents
),
sc AS (
  SELECT doc_id,
    sum(CASE WHEN term IN ({_stop_in('de')}) THEN 1 ELSE 0 END) AS s_de,
    sum(CASE WHEN term IN ({_stop_in('en')}) THEN 1 ELSE 0 END) AS s_en,
    sum(CASE WHEN term IN ({_stop_in('es')}) THEN 1 ELSE 0 END) AS s_es,
    sum(CASE WHEN term IN ({_stop_in('fr')}) THEN 1 ELSE 0 END) AS s_fr,
    sum(CASE WHEN term IN ({_stop_in('zh')}) THEN 1 ELSE 0 END) AS s_zh
  FROM tok GROUP BY doc_id
)
SELECT d.doc_id,
  CASE WHEN coalesce(greatest(s_de, s_en, s_es, s_fr, s_zh), 0) = 0 THEN 'und'
       WHEN s_de >= s_en AND s_de >= s_es AND s_de >= s_fr AND s_de >= s_zh
            THEN 'de'
       WHEN s_en >= s_es AND s_en >= s_fr AND s_en >= s_zh THEN 'en'
       WHEN s_es >= s_fr AND s_es >= s_zh THEN 'es'
       WHEN s_fr >= s_zh THEN 'fr'
       ELSE 'zh' END AS pred_lang
FROM documents d LEFT JOIN sc ON d.doc_id = sc.doc_id
"""


def sql_quality_score() -> str:
    return rf"""
WITH base AS (
  SELECT doc_id,
    len(regexp_extract_all(text, '\S+'))::BIGINT AS n_tokens,
    length(text)::DOUBLE AS n_chars,
    length(regexp_replace(text, '\s', '', 'g'))::DOUBLE AS non_ws,
    length(regexp_replace(text, '[^a-zA-Z]', '', 'g'))::DOUBLE AS alpha,
    len(list_filter(regexp_extract_all(lower(text), '\S+'),
        x -> x IN ({_stop_in('en')})))::DOUBLE AS stop_hits
  FROM documents
)
SELECT doc_id, n_tokens,
  round(CASE WHEN n_tokens > 0 THEN non_ws / n_tokens ELSE 0 END, 6)
    AS mean_tok_len,
  round(CASE WHEN n_chars > 0 THEN alpha / n_chars ELSE 0 END, 6)
    AS alpha_ratio,
  round(CASE WHEN n_tokens > 0 THEN stop_hits / n_tokens ELSE 0 END, 6)
    AS stop_ratio,
  (CASE WHEN n_tokens >= 5
        AND (CASE WHEN n_chars > 0 THEN alpha / n_chars ELSE 0 END) >= 0.5
        THEN 1 ELSE 0 END)::BIGINT AS quality_ok
FROM base
"""


def sql_token_counts() -> str:
    return rf"""
SELECT doc_id,
  len(regexp_extract_all(text, '\S+'))::BIGINT AS ws_tokens,
  len(regexp_extract_all(text, '{BPE_PATTERN}'))::BIGINT AS bpe_tokens
FROM documents
"""


SQL_GRAMS_CTE = r"""
t AS (SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS toks
      FROM documents),
g AS (
  SELECT DISTINCT doc_id,
    unnest(list_transform(range(1, greatest(len(toks) - 1, 1)),
           i -> toks[i] || ' ' || toks[i + 1] || ' ' || toks[i + 2])) AS gram
  FROM t
)
"""


def sql_fingerprint() -> str:
    return f"""
WITH {SQL_GRAMS_CTE}
SELECT doc_id, min(substr(md5(gram), 1, 16)) AS minhash_hex,
       count(*)::BIGINT AS n_grams
FROM g GROUP BY doc_id
"""


def sql_pii_scrub() -> str:
    return f"""
WITH s1 AS (
  SELECT doc_id,
         len(regexp_extract_all(text, '{PII_EMAIL}'))::BIGINT AS n_emails,
         regexp_replace(text, '{PII_EMAIL}', '<EMAIL>', 'g') AS t
  FROM documents
),
s2 AS (
  SELECT doc_id, n_emails,
         len(regexp_extract_all(t, '{PII_IPV4}'))::BIGINT AS n_ips,
         regexp_replace(t, '{PII_IPV4}', '<IP>', 'g') AS t
  FROM s1
)
SELECT doc_id,
       md5(regexp_replace(t, '{PII_PHONE}', '<PHONE>', 'g'))
         AS clean_md5,
       n_emails, n_ips,
       len(regexp_extract_all(t, '{PII_PHONE}'))::BIGINT AS n_phones
FROM s2
"""


def sql_normalize_text() -> str:
    return r"""
WITH n AS (
  SELECT doc_id,
         trim(regexp_replace(lower(text), '\s+', ' ', 'g')) AS t
  FROM documents
)
SELECT doc_id, md5(t) AS norm_md5, length(t)::BIGINT AS norm_chars
FROM n
"""


def sql_rep_signals() -> str:
    return r"""
WITH raw AS (
  SELECT doc_id, unnest(string_split(text, chr(10))) AS line
  FROM documents
),
lc AS (
  SELECT doc_id, line, length(line)::BIGINT AS len,
         count(*)::BIGINT AS cnt
  FROM raw WHERE length(line) > 0 GROUP BY doc_id, line
),
ld AS (
  SELECT doc_id, sum(cnt)::BIGINT AS n_lines,
         count(*)::BIGINT AS n_distinct,
         sum(cnt * len)::DOUBLE AS total_chars,
         sum(len)::DOUBLE AS distinct_chars
  FROM lc GROUP BY doc_id
),
tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '\S+')) AS w
  FROM documents
),
tc AS (SELECT doc_id, w, count(*)::BIGINT AS c
       FROM tok GROUP BY doc_id, w),
tt AS (SELECT doc_id, max(c)::DOUBLE AS mx, sum(c)::DOUBLE AS n
       FROM tc GROUP BY doc_id)
SELECT d.doc_id,
  coalesce(ld.n_lines, 0)::BIGINT AS n_lines,
  round(CASE WHEN coalesce(ld.n_lines, 0) > 0
    THEN (ld.n_lines - ld.n_distinct)::DOUBLE / ld.n_lines
    ELSE 0 END, 6) AS dup_line_frac,
  round(CASE WHEN coalesce(ld.total_chars, 0) > 0
    THEN (ld.total_chars - ld.distinct_chars) / ld.total_chars
    ELSE 0 END, 6) AS dup_line_char_frac,
  round(CASE WHEN coalesce(tt.n, 0) > 0 THEN tt.mx / tt.n
    ELSE 0 END, 6) AS top_word_frac
FROM documents d
LEFT JOIN ld USING (doc_id) LEFT JOIN tt USING (doc_id)
"""


def sql_rep_ngram_signals() -> str:
    return r"""
WITH t AS (SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS toks
           FROM documents),
b AS (
  SELECT doc_id,
    unnest(list_transform(range(1, len(toks)),
           i -> toks[i] || ' ' || toks[i + 1])) AS g
  FROM t WHERE len(toks) >= 2
),
bc AS (SELECT doc_id, g, count(*)::BIGINT AS c
       FROM b GROUP BY doc_id, g),
bt AS (SELECT doc_id, max(c)::DOUBLE AS mx, sum(c)::BIGINT AS n
       FROM bc GROUP BY doc_id),
tr AS (
  SELECT doc_id,
    unnest(list_transform(range(1, len(toks) - 1),
           i -> toks[i] || ' ' || toks[i + 1] || ' ' || toks[i + 2]))
      AS g
  FROM t WHERE len(toks) >= 3
),
ts AS (SELECT doc_id, count(*)::BIGINT AS n,
              count(DISTINCT g)::BIGINT AS nd
       FROM tr GROUP BY doc_id)
SELECT d.doc_id,
  coalesce(bt.n, 0)::BIGINT AS n_bigrams,
  round(CASE WHEN coalesce(bt.n, 0) > 0 THEN bt.mx / bt.n
    ELSE 0 END, 6) AS top_bigram_frac,
  round(CASE WHEN coalesce(ts.n, 0) > 0
    THEN (ts.n - ts.nd)::DOUBLE / ts.n
    ELSE 0 END, 6) AS dup_trigram_frac
FROM documents d
LEFT JOIN bt USING (doc_id) LEFT JOIN ts USING (doc_id)
"""


def sql_decontaminate() -> str:
    return rf"""
WITH t AS (SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS toks
           FROM documents),
g AS (
  SELECT DISTINCT doc_id,
    unnest(list_transform(range(1, greatest(len(toks) - 3, 1)),
           i -> toks[i] || ' ' || toks[i + 1] || ' ' || toks[i + 2]
                || ' ' || toks[i + 3] || ' ' || toks[i + 4])) AS gram
  FROM t WHERE len(toks) >= {CONTAM_NGRAM}
),
bg AS (SELECT DISTINCT substr(md5(gram), 1, 16) AS h
       FROM g WHERE doc_id % {BENCH_MOD} = 0),
dg AS (SELECT doc_id, substr(md5(gram), 1, 16) AS h FROM g),
hits AS (SELECT doc_id, count(*)::BIGINT AS n_contam
         FROM dg JOIN bg USING (h) GROUP BY doc_id),
cnt AS (SELECT doc_id, count(*)::BIGINT AS n_grams
        FROM g GROUP BY doc_id)
SELECT d.doc_id,
  coalesce(c.n_grams, 0)::BIGINT AS n_grams,
  coalesce(h.n_contam, 0)::BIGINT AS n_contam,
  (CASE WHEN d.doc_id % {BENCH_MOD} = 0 THEN 1 ELSE 0 END)::BIGINT
    AS is_benchmark,
  (CASE WHEN coalesce(h.n_contam, 0) > 0
        AND d.doc_id % {BENCH_MOD} <> 0 THEN 1 ELSE 0 END)::BIGINT
    AS contaminated
FROM documents d
LEFT JOIN cnt c USING (doc_id) LEFT JOIN hits h USING (doc_id)
"""


# Unicode-script profiling contract: per-codepoint RE2 classes shared
# verbatim between the Arrow kernel and the DuckDB oracle (both RE2);
# dominant script = (count DESC, name ASC) over these, 'none' at 0.
_SCRIPT_CLASSES = (
    ("arabic", r"[\p{Arabic}]"),
    ("cyrillic", r"[\p{Cyrillic}]"),
    ("digit", r"[0-9]"),
    ("han", r"[\p{Han}]"),
    ("latin", r"[\p{Latin}]"),
)


def script_stats(sf_dir: str) -> pa.Table:
    """Per-document unicode-script profile (the multilingual-corpus
    triage signal: is this row Latin text, CJK, mixed, or digit
    noise): total codepoints, per-script codepoint counts, and the
    dominant script under (count DESC, name ASC) — 'none' for docs
    with zero classified codepoints. Map-only, one vectorized RE2
    count per class (patterns shared verbatim with the oracle)."""

    def stats(batch: pa.Table) -> pa.Table:
        text = pc.cast(batch["text"], pa.large_string())
        counts = {
            name: pc.cast(pc.count_substring_regex(text, pat),
                          pa.int64()).to_numpy()
            for name, pat in _SCRIPT_CLASSES}
        names = sorted(counts)  # alphabetical = tie order
        mat = np.stack([counts[n] for n in names])
        best = mat.argmax(axis=0)      # first max = alphabetical win
        dom = np.array(names, dtype=object)[best]
        dom[mat.max(axis=0) == 0] = "none"
        out = {"doc_id": batch["doc_id"],
               "n_cp": pc.cast(pc.utf8_length(text), pa.int64())}
        for n in names:
            out[f"n_{n}"] = pa.array(counts[n], pa.int64())
        out["dominant"] = pa.array(dom.tolist(), pa.string())
        return pa.table(out)

    out = _read_docs(sf_dir).map_batches(stats, batch_format="pyarrow",
                                         zero_copy_batch=True)
    return pa.concat_tables(out.iter_batches(batch_format="pyarrow"))


def sql_script_stats() -> str:
    cols = ",\n       ".join(
        f"len(regexp_extract_all(text, '{pat}'))::BIGINT AS n_{name}"
        for name, pat in _SCRIPT_CLASSES)
    names = sorted(n for n, _ in _SCRIPT_CLASSES)
    m = "greatest(" + ", ".join(f"n_{n}" for n in names) + ")"
    case = " ".join(f"WHEN n_{n} = m THEN '{n}'" for n in names)
    return f"""
WITH s AS (
  SELECT doc_id, length(text)::BIGINT AS n_cp,
       {cols}
  FROM documents
), d AS (SELECT *, {m} AS m FROM s)
SELECT doc_id, n_cp, {", ".join(f"n_{n}" for n in names)},
       CASE WHEN m = 0 THEN 'none' {case} END AS dominant
FROM d ORDER BY doc_id
"""


def doc_entropy(sf_dir: str) -> pa.Table:
    """Character-level Shannon entropy per document — the classic
    low-entropy signal for boilerplate / padded / machine-generated
    text in a pre-training corpus (generalizes the reference's
    per-doc token statistics, src/lib.rs:86-100, from counts to a
    distributional score).

    Map-only and fully vectorized: each batch's strings decode ONCE
    from the Arrow UTF-8 data buffer into a flat UTF-32 codepoint
    vector (no per-row Python), per-(doc, codepoint) counts come from
    one np.unique over a packed ``doc_idx << 21 | codepoint`` key
    (codepoints < 2^21, so the pack is collision-free), and
    H = log2(n) - Σ k·log2(k) / n per doc. Empty docs define H = 0.
    At 100 TB this stays a pure map stage: no exchange, no driver
    state; output is doc-cardinality (a sink at scale)."""

    def ent(batch: pa.Table) -> pa.Table:
        text = pc.cast(batch["text"], pa.large_string())
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        if text.null_count:
            text = pc.fill_null(text, "")
        n = batch.num_rows
        lens = pc.utf8_length(text).to_numpy().astype(np.int64)
        # one whole-buffer UTF-8 -> UTF-32 decode for the batch: the
        # value buffer sliced to this array's offset window
        off = np.frombuffer(text.buffers()[1], np.int64)[
            text.offset:text.offset + n + 1]
        data = np.frombuffer(text.buffers()[2], np.uint8)
        cp = np.frombuffer(
            data[off[0]:off[-1]].tobytes().decode("utf-8")
            .encode("utf-32-le"), dtype="<u4").astype(np.int64)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), lens)
        uk, counts = np.unique((doc_idx << 21) | cp,
                               return_counts=True)
        d = uk >> 21
        acc = np.zeros(n, np.float64)
        np.add.at(acc, d, counts * np.log2(counts))
        n_distinct = np.zeros(n, np.int64)
        np.add.at(n_distinct, d, 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ent_ = np.where(lens > 0,
                            np.log2(np.maximum(lens, 1)) - acc / np.maximum(lens, 1),
                            0.0)
        return pa.table({
            "doc_id": batch["doc_id"],
            "n_cp": pa.array(lens, pa.int64()),
            "n_distinct_cp": pa.array(n_distinct, pa.int64()),
            "entropy": pa.array(round6(ent_) + 0.0, pa.float64()),
        })

    out = _read_docs(sf_dir).map_batches(ent, batch_format="pyarrow",
                                         zero_copy_batch=True)
    return pa.concat_tables(out.iter_batches(batch_format="pyarrow"))


def sql_doc_entropy() -> str:
    # string_split(text, '') yields codepoints (verified: 'é' as
    # e + U+0301 splits into 2) — same unit as the engine's UTF-32
    # view and DuckDB length(). string_split('', '') yields [''], so
    # empty docs are excluded from ch and re-enter via the LEFT JOIN
    # with the defined H = 0.
    return """
WITH ch AS (
  SELECT doc_id, unnest(string_split(text, '')) AS c
  FROM documents WHERE text <> ''
), cc AS (
  SELECT doc_id, count(*)::BIGINT AS k FROM ch GROUP BY doc_id, c
), agg AS (
  SELECT doc_id, count(*)::BIGINT AS n_distinct_cp,
         sum(k)::BIGINT AS n, sum(k * log2(k::DOUBLE)) AS s
  FROM cc GROUP BY doc_id
)
SELECT d.doc_id, length(d.text)::BIGINT AS n_cp,
       COALESCE(a.n_distinct_cp, 0)::BIGINT AS n_distinct_cp,
       round(COALESCE(log2(a.n::DOUBLE) - a.s / a.n, 0), 6) AS entropy
FROM documents d LEFT JOIN agg a ON d.doc_id = a.doc_id
ORDER BY d.doc_id
"""


# WordDelimiterFilter subtoken rules, applied in order (RE2 on both
# sides — Arrow and DuckDB share rewrite semantics): acronym-head
# split, camelCase split, letter<->digit splits; then lower + split
# on non-alphanumerics
_SUBTOKEN_RULES: list[tuple[str, str]] = [
    (r"([A-Z]+)([A-Z][a-z])", r"\1 \2"),
    (r"([a-z])([A-Z])", r"\1 \2"),
    (r"([A-Za-z])([0-9])", r"\1 \2"),
    (r"([0-9])([A-Za-z])", r"\1 \2"),
]
SUBTOKEN_TOPK = 50


def subtoken_stats(sf_dir: str) -> pa.Table:
    """Lucene WordDelimiterFilter analysis — the code-identifier
    analyzer the (repo, path, commit, lang, content) mandate implies:
    split camelCase / ACRONYMHead / letter-digit boundaries and
    non-alphanumerics into subtokens ('DeduplicatePipeline99' ->
    deduplicate, pipeline, 99), then report the top {k} subtokens by
    collection frequency with document frequency — the identifier
    vocabulary profile an index-time subtoken field would carry.

    Plan: one map-only pass; the rule chain runs as vectorized RE2
    rewrites on whole batch text, counting is per-batch (a doc lives
    in one row, so per-batch df/cf partials are exact) and the driver
    merges vocab-bounded partials (same acceptance as term_stats; at
    open vocab this merge becomes the one term-bucket exchange
    source_term_kl uses). Ties cut deterministically by
    (cf DESC, subtoken ASC)."""
    import pandas as pd

    def kern(batch: pa.Table) -> pa.Table:
        text = pc.cast(batch["text"], pa.large_string())
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        text = pa.concat_arrays([text])  # split-after-transform copy
        for pat, rep in _SUBTOKEN_RULES:
            text = pc.replace_substring_regex(text, pattern=pat,
                                              replacement=rep)
        text = pc.replace_substring_regex(
            pc.utf8_lower(text), pattern="[^a-z0-9]+", replacement=" ")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        text = pa.concat_arrays([text])
        toks = _drop_empty(pc.utf8_split_whitespace(text))
        n = batch.num_rows
        dl = pc.list_value_length(toks).to_numpy().astype(np.int64)
        flat = toks.flatten().to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(n), dl)
        if not len(flat):
            return pa.table({"subtoken": pa.array([], pa.string()),
                             "df": pa.array([], pa.int64()),
                             "cf": pa.array([], pa.int64())})
        df_p = pd.DataFrame({"subtoken": flat, "doc": doc_idx})
        cf = df_p.groupby("subtoken", sort=False).size()
        df = df_p.drop_duplicates().groupby("subtoken",
                                            sort=False).size()
        return pa.table({
            "subtoken": pa.array(cf.index.to_numpy(), pa.string()),
            "df": pa.array(df.reindex(cf.index).to_numpy(np.int64),
                           pa.int64()),
            "cf": pa.array(cf.to_numpy(np.int64), pa.int64())})

    out = _read_docs(sf_dir).map_batches(kern, batch_format="pyarrow",
                                         zero_copy_batch=True)
    parts = pa.concat_tables(
        out.iter_batches(batch_format="pyarrow")).to_pandas()
    schema = pa.schema([("subtoken", pa.string()), ("df", pa.int64()),
                        ("cf", pa.int64()), ("rank", pa.int64())])
    if not len(parts):
        return schema.empty_table()
    agg = parts.groupby("subtoken", as_index=False).agg(
        df=("df", "sum"), cf=("cf", "sum"))
    return frame_table(rank_cut(agg, [("cf", False), ("subtoken", True)],
                                SUBTOKEN_TOPK), schema)


def _drop_empty(out):
    from raysearch.tokenize import _drop_empty_tokens

    if isinstance(out, pa.ChunkedArray):
        out = out.combine_chunks()
    return _drop_empty_tokens(out)


def sql_subtoken_stats() -> str:
    expr = "text"
    for pat, rep in _SUBTOKEN_RULES:
        expr = f"regexp_replace({expr}, '{pat}', '{rep}', 'g')"
    return rf"""
WITH sub AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower({expr}), '[a-z0-9]+'))
           AS subtoken
  FROM documents
),
agg AS (
  SELECT subtoken, count(DISTINCT doc_id)::BIGINT AS df,
         count(*)::BIGINT AS cf
  FROM sub GROUP BY subtoken
),
ranked AS (
  SELECT subtoken, df, cf,
         row_number() OVER (ORDER BY cf DESC, subtoken) AS rank
  FROM agg
)
SELECT subtoken, df, cf, rank FROM ranked
WHERE rank <= {SUBTOKEN_TOPK}
"""


QUERIES = {
    "lang_id": lang_id,
    "script_stats": script_stats,
    "quality_score": quality_score,
    "token_counts": token_counts,
    "fingerprint": fingerprint,
    "pii_scrub": pii_scrub,
    "normalize_text": normalize_text,
    "rep_signals": rep_signals,
    "rep_ngram_signals": rep_ngram_signals,
    "gopher_filters": gopher_filters,
    "c4_filters": c4_filters,
    "lang_confusion": lang_confusion,
    "decontaminate": decontaminate,
    "decontaminate_bloom": decontaminate_bloom,
    "doc_entropy": doc_entropy,
    "subtoken_stats": subtoken_stats,
}

ORACLE_SQL = {
    "lang_id": sql_lang_id(),
    "script_stats": sql_script_stats(),
    "quality_score": sql_quality_score(),
    "token_counts": sql_token_counts(),
    "fingerprint": sql_fingerprint(),
    "pii_scrub": sql_pii_scrub(),
    "normalize_text": sql_normalize_text(),
    "rep_signals": sql_rep_signals(),
    "rep_ngram_signals": sql_rep_ngram_signals(),
    "gopher_filters": sql_gopher_filters(),
    "c4_filters": sql_c4_filters(),
    "lang_confusion": sql_lang_confusion(),
    "decontaminate": sql_decontaminate(),
    "doc_entropy": sql_doc_entropy(),
    "subtoken_stats": sql_subtoken_stats(),
}
