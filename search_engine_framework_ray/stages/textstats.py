"""Text-analysis stages for large-scale training-data pipelines: token
counting, quality scoring, language id, document fingerprinting.

All are vectorized/batched ``map_batches`` bodies over a documents-like table
(``doc_id, text, …``). Stateless ones are plain functions; LangId is a
callable class (compiles profiles once, when built).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.analysis import LUCENE_STOP_WORDS

# BPE-ish word/number/punct splitter for token counting (public GPT-2-style
# pre-tokenizer shape: contractions, letter runs, digit runs, punct runs).
import re

# (lookahead-free so the same pattern runs under RE2/DuckDB for the oracle;
# whitespace is the EXPLICIT ASCII class RE2's \s denotes — [\t\n\f\r ] with
# no \v and no unicode — so engine and oracle tokenize identically for ANY
# input, not just the single-space fixture. Python's \s/.split() would also
# split on \v and unicode whitespace, silently diverging from the SQL twin.)
RE2_WS = " \t\n\f\r"
BPE_PATTERN = (
    r"'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+"
    r"| ?[^ \t\n\f\rA-Za-z0-9]+|[ \t\n\f\r]+"
)
RE2_TOKEN_RE = re.compile(r"[^ \t\n\f\r]+")
_BPE_RE = re.compile(BPE_PATTERN)
_WS_RE = RE2_TOKEN_RE
_PUNCT_RE = re.compile(r"[^\w\s]")


def token_count(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Whitespace token count + BPE-ish subword-unit count per doc
    (vectorized ``Series.str.count`` — non-overlapping matches, identical to
    ``len(findall)``)."""
    texts = batch[text_col].fillna("")
    batch = batch.copy()
    batch["n_ws_tokens"] = texts.str.count(_WS_RE).astype("int64")
    batch["n_bpe_tokens"] = texts.str.count(_BPE_RE).astype("int64")
    return batch


def quality_score(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Heuristic quality features: length, mean word length, stopword ratio,
    punctuation ratio, plus a composite [0,1] score."""
    out = batch.copy()
    texts = batch[text_col].fillna("").reset_index(drop=True)
    n_chars = texts.str.len().astype("int64")
    # RE2-aligned tokenization (see RE2_WS note above) so the SQL oracle
    # can reproduce the word stats on any input
    words = texts.str.lower().str.findall(RE2_TOKEN_RE)
    n_words = words.str.len().astype("int64")
    # stopword count via explode + isin (vectorized hash probe, no per-row
    # Python set scan)
    exploded = words.explode().dropna()
    stop_hits = (
        exploded[exploded.isin(LUCENE_STOP_WORDS)].groupby(level=0).size()
        if len(exploded)
        else pd.Series(dtype="int64")
    )
    n_stop = (
        stop_hits.reindex(range(len(texts)), fill_value=0).astype("int64").to_numpy()
    )
    n_punct = texts.str.count(_PUNCT_RE).astype("int64")
    n_words = pd.Series(n_words.to_numpy(), index=out.index)
    n_chars = pd.Series(n_chars.to_numpy(), index=out.index)
    n_punct = pd.Series(n_punct.to_numpy(), index=out.index)
    n_stop = pd.Series(n_stop, index=out.index)
    out["n_chars_q"] = n_chars
    out["n_words"] = n_words
    out["mean_word_len"] = np.where(n_words > 0, (n_chars - (n_words - 1).clip(lower=0)) / n_words.replace(0, 1), 0.0)
    out["stopword_ratio"] = np.where(n_words > 0, n_stop / n_words.replace(0, 1), 0.0)
    out["punct_ratio"] = np.where(n_chars > 0, n_punct / n_chars.replace(0, 1), 0.0)
    # composite: long-enough docs with natural stopword density and low punct
    len_ok = np.clip(n_words / 50.0, 0, 1)
    stop_ok = 1.0 - np.abs(out["stopword_ratio"] - 0.4) / 0.4
    punct_ok = 1.0 - np.clip(out["punct_ratio"] * 5, 0, 1)
    out["quality"] = (len_ok * 0.4 + np.clip(stop_ok, 0, 1) * 0.4 + punct_ok * 0.2).astype(float)
    return out


# Function-word profiles for a deterministic n-gram/stopword language-id
# heuristic (top function words per language; public linguistic knowledge).
_LANG_PROFILES = {
    "en": {"the", "and", "of", "to", "in", "is", "it", "that", "for", "with", "as", "on"},
    "de": {"der", "die", "das", "und", "ist", "von", "mit", "den", "nicht", "ein", "eine", "zu"},
    "fr": {"le", "la", "les", "et", "est", "des", "un", "une", "du", "que", "pour", "dans"},
    "es": {"el", "la", "los", "las", "y", "es", "de", "un", "una", "que", "por", "con"},
    "zh": set(),  # no latin function words → falls through to "und"/unknown
}


class LangIdStage:
    """``map_batches`` language id: function-word hit-rate argmax; 'und' when no
    profile scores (e.g. CJK text under this latin heuristic)."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.word_re = re.compile(r"[a-zA-Z]+")
        self.profiles = {k: v for k, v in _LANG_PROFILES.items() if v}

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        # Vectorized argmax over the per-language hit-rate matrix: one
        # explode + one isin (hash probe) per language instead of a Python
        # loop over documents. Semantics identical to the original per-doc
        # scan — np.argmax takes the FIRST maximum, which equals the old
        # strict-'>' scan over alphabetically sorted languages.
        out = batch.copy()
        texts = batch[self.text_col].fillna("").reset_index(drop=True)
        words = texts.str.lower().str.findall(self.word_re)
        n_words = words.str.len().to_numpy(np.int64)
        langs = sorted(self.profiles)
        scores = np.zeros((len(texts), len(langs)), dtype=np.float64)
        ex = words.explode().dropna()
        if len(ex):
            for j, lang in enumerate(langs):
                hits = ex[ex.isin(self.profiles[lang])].groupby(level=0).size()
                scores[hits.index.to_numpy(), j] = hits.to_numpy()
        with np.errstate(invalid="ignore"):
            scores = scores / np.where(n_words > 0, n_words, 1)[:, None]
        best_j = scores.argmax(axis=1)
        best_score = scores[np.arange(len(texts)), best_j]
        pred = np.where(
            (n_words > 0) & (best_score > 0.02),
            np.asarray(langs, dtype=object)[best_j],
            "und",
        )
        out["lang_pred"] = pred
        return out


# ASCII whitespace class shared verbatim with the DuckDB oracle's
# regexp_replace — Python's \s would also match unicode whitespace
_WS_NORM_RE = re.compile(r"[ \t\n\r\f\v]+")


def fingerprint_md5(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Whitespace-normalized md5 document fingerprint: the signed-int64 view
    of md5's lower 64 bits — byte-for-byte DuckDB's ``md5_number_lower``, so
    a SQL oracle verifies it exactly. Order-sensitive like the Rabin
    variant; use :func:`fingerprint` when a *rolling* (incremental) hash is
    needed."""
    import hashlib

    out = batch.copy()
    fps = np.empty(len(batch), dtype=np.int64)
    for i, t in enumerate(batch[text_col].fillna("")):
        s = _WS_NORM_RE.sub(" ", t).strip(" \t\n\r\f\v")
        v = int.from_bytes(hashlib.md5(s.encode("utf-8", "surrogatepass")).digest()[8:], "little")
        fps[i] = v - (1 << 64) if v >= (1 << 63) else v
    out["fp_md5"] = fps
    return out


_FP_BASE = np.uint64(1099511628211)
_FP_MOD_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def fingerprint(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Rolling polynomial (Rabin-Karp-style) 64-bit document fingerprint —
    order-sensitive, whitespace-normalized; identical content → identical
    fingerprint across any partitioning."""
    out = batch.copy()
    fps = []
    for t in batch[text_col].fillna(""):
        data = np.frombuffer(" ".join(t.split()).encode("utf-8"), dtype=np.uint8)
        h = np.uint64(14695981039346656037)
        # vectorized Horner: h = ((h * B) + b) for each byte, via cumulative powers
        if data.size:
            with np.errstate(over="ignore"):  # uint64 wraparound IS the modulus
                powers = np.empty(data.size, dtype=np.uint64)
                powers[0] = 1
                if data.size > 1:
                    np.multiply.accumulate(
                        np.full(data.size - 1, _FP_BASE, dtype=np.uint64),
                        out=powers[1:],
                    )
                h = (
                    h * powers[-1] * _FP_BASE
                    + np.sum(data.astype(np.uint64) * powers[::-1], dtype=np.uint64)
                ) & _FP_MOD_MASK
        v = int(h)
        fps.append(v - (1 << 64) if v >= (1 << 63) else v)
    out["fingerprint"] = np.array(fps, dtype=np.int64)
    return out


def normalize_text(
    ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Unicode text normalization pass → (id, norm_text, norm_fp):
    NFC-normalize (combining sequences compose), strip C0 control chars
    (except the whitespace class, which the next step owns), collapse
    whitespace runs to single spaces, strip ends. ``norm_fp`` is the
    md5-low64 signed fingerprint of the normalized text — DuckDB replays
    the chain with ``nfc_normalize`` + ``regexp_replace`` +
    ``md5_number_lower``, so every byte of the rewrite is verifiable."""
    import hashlib
    import unicodedata

    _CTRL_RE = re.compile(r"[\x00-\x08\x0e-\x1f\x7f]")

    def norm(b: pd.DataFrame) -> pd.DataFrame:
        ids = b[id_col].astype("int64").to_numpy()
        outs, fps = [], []
        for t in b[text_col].fillna(""):
            s = unicodedata.normalize("NFC", t)
            s = _CTRL_RE.sub("", s)
            s = _WS_NORM_RE.sub(" ", s).strip()
            outs.append(s)
            v = int.from_bytes(
                hashlib.md5(s.encode("utf-8", "surrogatepass")).digest()[8:],
                "little",
            )
            fps.append(v - (1 << 64) if v >= (1 << 63) else v)
        return pd.DataFrame(
            {
                id_col: ids,
                "norm_text": pd.Series(outs, dtype="object"),
                "norm_fp": pd.Series(fps, dtype="int64"),
            }
        )

    return ds.map_batches(norm, batch_format="pandas")


def char_entropy(
    ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Character-entropy quality signal → (id, n_chars, entropy_micros):
    Shannon entropy over code points, ``H = -Σ p·log2(p)`` — the classic
    cheap detector for gibberish, encoding junk and low-diversity spam
    (natural text sits ~4-4.5 bits/char; base64 blobs ~6, aaaa-spam ~0).
    Micros-rounded so the DuckDB twin (char explode + the same float64
    formula) verifies values; empty docs score 0.

    Scale: stateless single streaming pass, one Counter per doc (alphabet-
    sized, not text-sized, state per row)."""
    from collections import Counter

    def score(b: pd.DataFrame) -> pd.DataFrame:
        ids = b[id_col].astype("int64").to_numpy()
        n_out = np.zeros(len(b), dtype=np.int64)
        h_out = np.zeros(len(b), dtype=np.int64)
        for i, t in enumerate(b[text_col].fillna("")):
            n = len(t)
            n_out[i] = n
            if n == 0:
                continue
            k = np.fromiter(Counter(t).values(), dtype=np.float64)
            p = k / n
            h = float(-(p * np.log2(p)).sum())
            h_out[i] = int(np.floor(abs(h) * 1e6 + 0.5)) * (1 if h >= 0 else -1)
        return pd.DataFrame(
            {id_col: ids, "n_chars": n_out, "entropy_micros": h_out}
        )

    return ds.map_batches(score, batch_format="pandas")


def pattern_scan(
    ds,
    patterns: list[str],
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Multi-pattern LITERAL scan — the canary / secret / eval-marker sweep a
    training corpus gets before release (the literal-string sibling of the
    PII regex pass). The pattern list is tiny and ships inside the closure
    (broadcast once per task); each batch runs one vectorized
    ``Series.str.count`` per pattern (non-overlapping left-to-right count,
    the same count ``replace``-based SQL reproduces as
    ``(len(text)-len(replace(text,p,'')))/len(p)``). Output is long-format
    ``(id, pattern, n)`` for hits only — on a clean corpus (the common
    case) almost nothing leaves the scan, so the stage streams with no
    shuffle at any corpus size.
    """
    import re as _re

    import pyarrow as pa

    pats = list(patterns)
    compiled = [(_re.compile(_re.escape(p)), p) for p in pats]
    # explicit Arrow schema so all-empty blocks (clean corpus, the common
    # case) still carry the three columns through to_pandas
    schema = pa.schema(
        [(id_col, pa.int64()), ("pattern", pa.string()), ("n", pa.int64())]
    )

    def scan(b: pd.DataFrame) -> pa.Table:
        ids = b[id_col].astype("int64").reset_index(drop=True)
        texts = b[text_col].fillna("").reset_index(drop=True)
        frames = []
        for rx, p in compiled:
            n = texts.str.count(rx).astype("int64")
            hit = n > 0
            if hit.any():
                frames.append(
                    pd.DataFrame(
                        {id_col: ids[hit], "pattern": p, "n": n[hit]}
                    )
                )
        if not frames:
            return schema.empty_table()
        return pa.Table.from_pandas(
            pd.concat(frames, ignore_index=True),
            schema=schema,
            preserve_index=False,
        )

    return ds.map_batches(scan, batch_format="pandas")
