"""Seeded inputs: a Zipf-vocabulary code corpus and the query streams.

Everything here is a pure function of ``(seed, n_docs)``; the program
under test only ever sees the parquet files and query strings written
by ``ensure_inputs``. Inputs are cached on disk under that key and are
byte-identical for the same key.

Corpus: identifier terms drawn from a Zipf law (s = 1.07) over a fixed
60k-term vocabulary whose rank order is permuted by the seed;
log-normal document lengths (median 120 tokens); a py/rs/txt/json/html
language mix. Query terms come from the corpus' own document
frequencies:

- ``hot``: the 50 terms with the highest df;
- ``mid``: df ranks 500-2000;
- ``rare``: 2 <= df <= 10.

Streams:

- ``oneshot``: one query per call, tiers in turn (hot, mid, rare, ...);
- ``batches``: 100-query batches, a third of each tier;
- ``check``: a few queries per tier, compared with the oracle;
- ``serve``: a fixed population of two-term queries. ``serve_warm``
  is its popular head, issued once at set-up. Each block of four calls
  holds three Zipf draws from that head (cache hits) and, at a seeded
  position, one member from outside it that no earlier call used
  (a cache miss), so the miss share is 25% at every block boundary
  whatever the seed.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

GEN_VERSION = 2  # part of the cache key: bump when any output changes
VOCAB_SIZE = 60_000
ZIPF_S = 1.07
MEDIAN_TOKENS = 120
LENGTH_SIGMA = 0.6
LANGS = ("py", "rs", "txt", "json", "html")
LANG_WEIGHTS = (0.35, 0.25, 0.2, 0.1, 0.1)
TOKENS_PER_LINE = 12
CORPUS_FILES = 8

TIERS = ("hot", "mid", "rare")
HOT_TERMS = 50
MID_RANKS = (500, 2000)
RARE_DF = (2, 10)
TERMS_PER_QUERY = 2

ONESHOT_QUERIES = 120
BATCH_SIZE = 100
BATCHES = 12
CHECK_PER_TIER = 6
SERVE_POPULATION = 20_000
SERVE_ZIPF_S = 1.1
SERVE_WARM = 300
SERVE_STREAM = 4_000
SERVE_BLOCK = 4

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t",
           "v", "z", "ch", "sh", "th", "pr", "st", "tr")
_VOWELS = ("a", "e", "i", "o", "u")
_SYLLABLES = [o + v for o in _ONSETS for v in _VOWELS]  # 100


def vocabulary(n: int = VOCAB_SIZE) -> np.ndarray:
    """``n`` distinct lowercase identifier terms (three syllables each,
    an underscore after the first when the index is odd). Independent
    of the seed; the seed only permutes which term is how frequent."""
    s = len(_SYLLABLES)
    out = []
    for i in range(n):
        a, b, c = _SYLLABLES[i // (s * s) % s], _SYLLABLES[i // s % s], \
            _SYLLABLES[i % s]
        out.append(f"{a}_{b}{c}" if i % 2 else f"{a}{b}{c}")
    return np.asarray(out, dtype=object)


def _zipf_cdf(n: int, s: float) -> np.ndarray:
    p = np.arange(1, n + 1, dtype=np.float64) ** -s
    cdf = np.cumsum(p)
    return cdf / cdf[-1]


def _draw(rng: np.random.Generator, cdf: np.ndarray, size: int) -> np.ndarray:
    return np.minimum(np.searchsorted(cdf, rng.random(size)), len(cdf) - 1)


def _render(words: list[str], lang: str) -> str:
    lines = [" ".join(words[i:i + TOKENS_PER_LINE])
             for i in range(0, len(words), TOKENS_PER_LINE)]
    if lang == "json":
        return json.dumps({"lines": lines})
    if lang == "html":
        return ("<html><body>"
                + "".join(f"<p>{ln}</p>" for ln in lines)
                + "</body></html>")
    return "\n".join(lines)


def generate_corpus(seed: int, n_docs: int) -> tuple[pa.Table, np.ndarray]:
    """(corpus table with doc_id/lang/content, per-term document
    frequency indexed like ``vocabulary()``)."""
    rng = np.random.default_rng([seed, n_docs, 1])
    vocab = vocabulary()
    by_rank = rng.permutation(VOCAB_SIZE)  # Zipf rank -> vocab index
    lengths = np.clip(np.rint(rng.lognormal(np.log(MEDIAN_TOKENS),
                                            LENGTH_SIGMA, n_docs)),
                      4, 4000).astype(np.int64)
    ids = by_rank[_draw(rng, _zipf_cdf(VOCAB_SIZE, ZIPF_S),
                        int(lengths.sum()))]
    langs = np.asarray(LANGS, dtype=object)[
        rng.choice(len(LANGS), size=n_docs, p=LANG_WEIGHTS)]
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    words = vocab[ids]
    contents = [_render(list(words[bounds[i]:bounds[i + 1]]), langs[i])
                for i in range(n_docs)]
    doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), lengths)
    pairs = np.unique(doc_of * VOCAB_SIZE + ids)
    df = np.bincount(pairs % VOCAB_SIZE, minlength=VOCAB_SIZE)
    table = pa.table({
        "doc_id": pa.array(np.arange(n_docs, dtype=np.int64), pa.int64()),
        "lang": pa.array(langs.tolist(), pa.string()),
        "content": pa.array(contents, pa.string()),
    })
    return table, df


def tier_terms(df: np.ndarray) -> dict[str, list[str]]:
    """Query-term pools per tier, from the corpus' document frequencies."""
    vocab = vocabulary()
    order = np.lexsort((np.arange(len(df)), -df))  # df desc, index asc
    rare = np.flatnonzero((df >= RARE_DF[0]) & (df <= RARE_DF[1]))
    return {
        "hot": vocab[order[:HOT_TERMS]].tolist(),
        "mid": vocab[order[MID_RANKS[0]:MID_RANKS[1]]].tolist(),
        "rare": vocab[rare].tolist(),
    }


def _query(rng: np.random.Generator, pool: list[str]) -> str:
    picks = rng.choice(len(pool), size=TERMS_PER_QUERY, replace=False)
    return " ".join(pool[int(i)] for i in picks)


def generate_streams(seed: int, df: np.ndarray) -> dict:
    rng = np.random.default_rng([seed, 2])
    pools = tier_terms(df)

    def tiered(n: int) -> tuple[list[str], list[str]]:
        tiers = [TIERS[i % len(TIERS)] for i in range(n)]
        return [_query(rng, pools[t]) for t in tiers], tiers

    oneshot, oneshot_tiers = tiered(ONESHOT_QUERIES)
    batches = [tiered(BATCH_SIZE) for _ in range(BATCHES)]
    check, check_tiers = tiered(CHECK_PER_TIER * len(TIERS))
    # serve population: terms from the mid and rare pools, so distinct
    # queries rarely share terms and a draw outside the warmed head
    # costs segment reads
    pool = pools["mid"] + pools["rare"]
    population = [_query(rng, pool) for _ in range(SERVE_POPULATION)]
    ranks = _draw(rng, _zipf_cdf(SERVE_WARM, SERVE_ZIPF_S), SERVE_STREAM)
    n_blocks = SERVE_STREAM // SERVE_BLOCK
    miss_at = (np.arange(n_blocks) * SERVE_BLOCK
               + rng.integers(0, SERVE_BLOCK, n_blocks))
    ranks[miss_at] = SERVE_WARM + rng.permutation(
        SERVE_POPULATION - SERVE_WARM)[:n_blocks]
    return {
        "tiers": list(TIERS),
        "oneshot": oneshot, "oneshot_tiers": oneshot_tiers,
        "batches": [b for b, _ in batches],
        "check": check, "check_tiers": check_tiers,
        "serve_warm": population[:SERVE_WARM],
        "serve": [population[int(r)] for r in ranks],
    }


def ensure_inputs(cache_root: str, seed: int, n_docs: int) -> dict:
    """Generate (or reuse) the inputs for ``(seed, n_docs)``. Returns
    ``{"dir", "corpus_files", "content_bytes", "streams"}``.
    The cache entry appears atomically (staging dir + rename)."""
    key = f"v{GEN_VERSION}-s{seed}-n{n_docs}"
    out = os.path.join(cache_root, key)
    if not os.path.exists(os.path.join(out, "streams.json")):
        stage = f"{out}.tmp-{os.getpid()}"
        shutil.rmtree(stage, ignore_errors=True)
        corpus_dir = os.path.join(stage, "corpus")
        os.makedirs(corpus_dir)
        table, df = generate_corpus(seed, n_docs)
        per = -(-n_docs // CORPUS_FILES)
        for f in range(CORPUS_FILES):
            pq.write_table(table.slice(f * per, per),
                           os.path.join(corpus_dir, f"part-{f:03d}.parquet"))
        streams = generate_streams(seed, df)
        streams["content_bytes"] = int(sum(
            len(c.encode()) for c in table["content"].to_pylist()))
        with open(os.path.join(stage, "streams.json"), "w") as fh:
            json.dump(streams, fh, sort_keys=True)
        if os.path.isdir(out):
            shutil.rmtree(out)
        os.replace(stage, out)
    with open(os.path.join(out, "streams.json")) as fh:
        streams = json.load(fh)
    corpus_dir = os.path.join(out, "corpus")
    return {
        "dir": out,
        "corpus_files": sorted(os.path.join(corpus_dir, f)
                               for f in os.listdir(corpus_dir)),
        "content_bytes": streams.pop("content_bytes"),
        "streams": streams,
    }
