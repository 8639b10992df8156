"""Text-analysis kernels for large-scale training-data pipelines.

Not present in the reference (its payloads are clinical codes); these are
the text-payload analogs the 100 TB engine needs: language id, quality
scoring, token counting, fingerprinting, shingling/minhash/simhash
primitives.  All kernels are batch-vectorized (pandas str ops / numpy);
the deterministic hash base is ``pandas.util.hash_array`` (fixed key →
stable across processes and runs).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

_WORD_RE = re.compile(r"[A-Za-z']+")
# BPE-ish pre-tokenizer classes: letters | digits | other-nonspace
_TOKEN_RE = re.compile(r"[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]+")

_STOPWORDS = {
    "en": {"the", "and", "of", "a", "to", "in", "is", "it", "that", "for",
           "on", "with", "as", "was", "at", "by", "an", "be", "this", "are"},
    "es": {"el", "la", "de", "que", "y", "en", "un", "una", "los", "las",
           "por", "con", "para", "es", "al", "lo", "como", "más", "pero"},
    "fr": {"le", "la", "de", "et", "les", "des", "un", "une", "du", "en",
           "est", "que", "pour", "dans", "qui", "sur", "pas", "au", "avec"},
    "de": {"der", "die", "das", "und", "in", "den", "von", "zu", "mit",
           "sich", "des", "auf", "für", "ist", "im", "dem", "nicht", "ein"},
}

MERSENNE61 = np.uint64((1 << 61) - 1)


def hash_u64(values: np.ndarray) -> np.ndarray:
    """Deterministic vectorized 64-bit hash of an object array of strings."""
    return pd.util.hash_array(np.asarray(values, dtype=object))


def token_counts(texts: pd.Series) -> pd.DataFrame:
    """Whitespace + BPE-ish token counts per document."""
    ws = texts.str.split().str.len().fillna(0).astype(np.int64)
    bpe = texts.str.count(_TOKEN_RE.pattern).fillna(0).astype(np.int64)
    return pd.DataFrame({"n_tokens_ws": ws, "n_tokens_bpe": bpe})


def quality_features(texts: pd.Series) -> pd.DataFrame:
    """Length / punctuation / stopword / digit features + composite score
    (the usual pretraining-corpus quality heuristics)."""
    n_chars = texts.str.len().fillna(0).astype(np.int64)
    # null texts → empty word lists (str.findall yields NaN for nulls,
    # which would crash the per-list lambdas below)
    words = texts.str.findall(_WORD_RE).map(
        lambda ws: ws if isinstance(ws, list) else []
    )
    n_words = words.str.len().fillna(0).astype(np.int64)
    mean_word_len = (
        words.map(lambda ws: float(np.mean([len(w) for w in ws])) if ws else 0.0)
    )
    n_punct = texts.str.count(r"[^\w\s]").fillna(0)
    n_digit = texts.str.count(r"\d").fillna(0)
    # (n_chars already 0-filled for nulls → ratios are 0 for null docs)
    punct_ratio = (n_punct / n_chars.clip(lower=1)).astype(float)
    digit_ratio = (n_digit / n_chars.clip(lower=1)).astype(float)
    sw = _STOPWORDS["en"]
    stop_ratio = words.map(
        lambda ws: sum(1 for w in ws if w.lower() in sw) / max(1, len(ws))
    )
    score = (
        (n_words.clip(upper=1000) / 1000.0) * 0.3
        + (1.0 - punct_ratio.clip(upper=0.5) * 2) * 0.2
        + (1.0 - digit_ratio.clip(upper=0.5) * 2) * 0.2
        + stop_ratio.clip(upper=0.5) * 2 * 0.3
    )
    return pd.DataFrame(
        {
            "n_chars": n_chars,
            "n_words": n_words,
            "mean_word_len": mean_word_len,
            "punct_ratio": punct_ratio,
            "digit_ratio": digit_ratio,
            "stopword_ratio": stop_ratio,
            "quality_score": score,
        }
    )


def detect_language(texts: pd.Series) -> pd.Series:
    """n-gram-free stopword-vote language id; 'und' when no language
    clears the 2-hit threshold."""
    langs = list(_STOPWORDS)
    tokens = texts.str.lower().str.findall(_WORD_RE)

    def vote(ws):
        if not isinstance(ws, list) or not ws:  # null text → NaN → und
            return "und"
        best, hits = "und", 1
        for lang in langs:
            h = sum(1 for w in ws if w in _STOPWORDS[lang])
            if h > hits:
                best, hits = lang, h
        return best

    return tokens.map(vote)


def word_shingles(text: str, k: int = 3) -> list[str]:
    ws = text.split()
    if len(ws) < k:
        return [" ".join(ws)] if ws else []
    return [" ".join(ws[i : i + k]) for i in range(len(ws) - k + 1)]


def char_ngrams(text: str, n: int = 5) -> list[str]:
    if len(text) < n:
        return [text] if text else []
    return [text[i : i + n] for i in range(len(text) - n + 1)]


def minhash_params(num_hashes: int, seed: int = 1) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, MERSENNE61, num_hashes, dtype=np.uint64)
    b = rng.integers(0, MERSENNE61, num_hashes, dtype=np.uint64)
    return a, b


def _permute_mod_m61(h: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a·h + b) mod 2⁶¹-1 for all k permutations — (k, S) uint64.

    The modulo is computed with the exact Mersenne fold (2⁶¹ ≡ 1 mod M,
    so x ≡ (x & M) + (x >> 61), one conditional subtract): bit-identical
    to ``% MERSENNE61`` but ~20× faster than numpy's per-element uint64
    division, and in-place to avoid (k × S) temporaries — this is the
    minhash hot loop."""
    y = a[:, None] * h[None, :]
    y += b[:, None]
    hi = y >> np.uint64(61)
    y &= MERSENNE61
    y += hi
    np.subtract(y, MERSENNE61, out=y, where=y >= MERSENNE61)
    return y


def minhash_signature(
    shingle_hashes: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """k-permutation MinHash of one document's shingle hash set."""
    if len(shingle_hashes) == 0:
        return np.full(len(a), MERSENNE61, dtype=np.uint64)
    # (k, s): (a*h + b) mod p — wraparound multiply is fine for hashing
    h = shingle_hashes.astype(np.uint64)
    return _permute_mod_m61(h, a, b).min(axis=1)


def band_hashes(sig: np.ndarray, bands: int) -> np.ndarray:
    """LSH banding: fold each band of the signature to one uint64."""
    rows = len(sig) // bands
    folded = sig[: bands * rows].reshape(bands, rows)
    mix = np.uint64(0x9E3779B97F4A7C15)
    out = np.zeros(bands, dtype=np.uint64)
    for r in range(rows):
        out = (out ^ folded[:, r]) * mix
    return out


def minhash_signatures_batch(
    shingle_lists: list[list[str]], a: np.ndarray, b: np.ndarray,
    chunk_shingles: int = 4_096,
) -> np.ndarray:
    """Vectorized MinHash for a whole batch of documents.

    One ``hash_array`` call and one (k × S) permute-min per chunk of
    documents (``np.minimum.reduceat`` over per-doc segments) instead of
    a per-document Python loop — the map_batches hot path.
    Returns (n_docs, k) uint64.

    ``chunk_shingles`` bounds the (k × S) permute temporary to ~4 MB so
    it stays in cache: measured 0.65 s vs 4.9 s at 65k chunks for 10k
    docs / 520k shingles — the permute is memory-bound, not FLOP-bound.
    """
    k = len(a)
    n = len(shingle_lists)
    out = np.full((n, k), MERSENNE61, dtype=np.uint64)
    counts = np.array([len(s) for s in shingle_lists])
    nonempty = np.flatnonzero(counts)
    i = 0
    while i < len(nonempty):
        # take docs until the chunk budget is filled
        j, total = i, 0
        while j < len(nonempty) and (total == 0 or total + counts[nonempty[j]] <= chunk_shingles):
            total += counts[nonempty[j]]
            j += 1
        docs = nonempty[i:j]
        flat = np.concatenate(
            [np.asarray(shingle_lists[d], dtype=object) for d in docs]
        )
        H = hash_u64(flat)
        vals = _permute_mod_m61(H, a, b)  # (k, S)
        offsets = np.concatenate([[0], np.cumsum(counts[docs])[:-1]])
        mins = np.minimum.reduceat(vals, offsets, axis=1)  # (k, n_chunk)
        out[docs] = mins.T
        i = j
    return out


def band_hashes_batch(sigs: np.ndarray, bands: int) -> np.ndarray:
    """(n_docs, k) signatures → (n_docs, bands) folded band hashes."""
    n, k = sigs.shape
    rows = k // bands
    folded = sigs[:, : bands * rows].reshape(n, bands, rows)
    mix = np.uint64(0x9E3779B97F4A7C15)
    out = np.zeros((n, bands), dtype=np.uint64)
    for r in range(rows):
        out = (out ^ folded[:, :, r]) * mix
    return out


def simhash64_batch(
    token_lists: list[list[str]], chunk_tokens: int = 4_096
) -> np.ndarray:
    """Vectorized 64-bit SimHash for a batch of documents → (n,) uint64.

    ``chunk_tokens`` bounds the (T × 64) bit-expansion temporary so it
    stays in cache (memory-bound, like the minhash permute): measured
    0.31 s vs 1.64 s at 131k chunks for 10k docs."""
    n = len(token_lists)
    out = np.zeros(n, dtype=np.uint64)
    counts = np.array([len(t) for t in token_lists])
    nonempty = np.flatnonzero(counts)
    shifts = np.arange(64, dtype=np.uint64)
    i = 0
    while i < len(nonempty):
        j, total = i, 0
        while j < len(nonempty) and (total == 0 or total + counts[nonempty[j]] <= chunk_tokens):
            total += counts[nonempty[j]]
            j += 1
        docs = nonempty[i:j]
        flat = np.concatenate(
            [np.asarray(token_lists[d], dtype=object) for d in docs]
        )
        H = hash_u64(flat)
        bits = ((H[:, None] >> shifts) & np.uint64(1)).astype(np.int32)  # (T, 64)
        offsets = np.concatenate([[0], np.cumsum(counts[docs])[:-1]])
        ones = np.add.reduceat(bits, offsets, axis=0)  # (n_chunk, 64)
        score = 2 * ones - counts[docs][:, None]
        fp = (score > 0).astype(np.uint64) << shifts[None, :]
        out[docs] = np.bitwise_or.reduce(fp, axis=1)
        i = j
    return out


def simhash64(token_hashes: np.ndarray) -> np.uint64:
    """64-bit SimHash of one document's token hash multiset."""
    if len(token_hashes) == 0:
        return np.uint64(0)
    bits = (token_hashes[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    score = (2 * bits.astype(np.int64) - 1).sum(axis=0)
    fp = np.uint64(0)
    for i in np.flatnonzero(score > 0):
        fp |= np.uint64(1) << np.uint64(i)
    return fp


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / max(1, len(a | b))


def winnowing_fingerprint(
    text: str, k: int = 8, window: int = 4
) -> np.ndarray:
    """Winnowing document fingerprint (Schleimer et al., SIGMOD'03):
    min k-gram hash per sliding window, deduplicated."""
    grams = char_ngrams(text, k)
    if not grams:
        return np.array([], dtype=np.uint64)
    h = hash_u64(np.array(grams, dtype=object))
    if len(h) <= window:
        return np.array([h.min()], dtype=np.uint64)
    # uint64-exact rolling min (pd.rolling would route through float64
    # and corrupt the low bits of hashes > 2^53)
    wins = np.lib.stride_tricks.sliding_window_view(h, window)
    return np.unique(wins.min(axis=1))


def repetition_features(texts: pd.Series) -> pd.DataFrame:
    """Within-document repetition signals (the Gopher-rule family:
    Rae et al.'21 §A1.1 filters on duplicate n-gram fractions):

    * ``dup_trigram_frac`` — fraction of word 3-grams that are repeats
      of an earlier 3-gram in the same doc.
    * ``top_bigram_frac`` — share of all word 2-grams taken by the
      single most frequent 2-gram.

    Whitespace tokenization (``str.split``), matching the dedup
    shingler, not _WORD_RE."""
    from collections import Counter

    dup3, top2 = [], []
    for t in texts:
        ws = (t or "").split()
        n3 = max(len(ws) - 2, 0)
        if n3 == 0:
            dup3.append(0.0)
        else:
            tri = {" ".join(ws[i:i + 3]) for i in range(n3)}
            dup3.append((n3 - len(tri)) / n3)
        n2 = max(len(ws) - 1, 0)
        if n2 == 0:
            top2.append(0.0)
        else:
            c = Counter(" ".join(ws[i:i + 2]) for i in range(n2))
            top2.append(max(c.values()) / n2)
    return pd.DataFrame(
        {"dup_trigram_frac": dup3, "top_bigram_frac": top2},
        index=texts.index,
    )
