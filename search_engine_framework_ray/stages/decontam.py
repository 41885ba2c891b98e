"""Benchmark decontamination: flag corpus documents that share any k-word
shingle with a held-out evaluation set (the standard train/test-overlap
check for LLM training corpora — n-gram collision against the benchmark,
as popularized by the GPT-3 appendix and the C4/Pile cleanups).

Scale shape
-----------
The eval side is benchmark-sized (thousands of documents, MBs) while the
corpus side is the 100-TB stream, so this is the canonical broadcast
pattern: hash every eval shingle ONCE into a sorted uint64 array, hand it
to the stage instance (Ray Data puts the instance in the object store once
per operator), and probe per corpus batch with ``np.isin`` (a vectorized
sorted-array membership test) inside ``map_batches`` — zero shuffles, one
streaming pass over the corpus. The broadcast array is 8 bytes per
distinct eval shingle (~10 MB per ~1M shingles); if an "eval set" ever
approaches corpus size, this operator is the wrong tool and a shuffle
join on shingle hash (the `bigram-model join` shape in stages/lm.py)
replaces it.

Shingles reuse :func:`..stages.dedup._shingles_strict` — the RE2-aligned
tokenizer plus rolling polynomial hash — so a DuckDB trigram oracle
reproduces the decision exactly (hash collisions between distinct word
k-grams are the only divergence risk, at ~2^-64 per pair).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .dedup import _shingles_strict


def eval_shingle_set(texts, k: int = 8) -> np.ndarray:
    """Sorted unique uint64 shingle hashes over the eval texts. Driver-side
    by design: the eval set is small (see module docstring)."""
    parts = [_shingles_strict(t or "", k) for t in texts]
    if not parts:
        return np.empty(0, dtype=np.uint64)
    return np.unique(np.concatenate(parts))


class DecontamStage:
    """``map_batches`` callable: mark each doc with the number of distinct
    eval shingles it contains (``contam_ngrams``) and the boolean flag
    (``contaminated``). ``eval_sorted`` is :func:`eval_shingle_set`'s
    array; it travels inside the instance, once per operator, not once per
    batch."""

    def __init__(self, eval_sorted: np.ndarray, k: int = 8, text_col: str = "text"):
        self.eval_sorted = eval_sorted
        self.k = k
        self.text_col = text_col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.copy()
        hits = np.zeros(len(batch), dtype=np.int64)
        ev = self.eval_sorted
        if ev.size:
            for i, t in enumerate(batch[self.text_col].fillna("")):
                sh = _shingles_strict(t, self.k)
                if sh.size:
                    # sh is unique already → isin count == distinct shared
                    hits[i] = int(np.isin(sh, ev, assume_unique=True).sum())
        out["contam_ngrams"] = hits
        out["contaminated"] = hits > 0
        return out


def decontaminate(ds, eval_texts, k: int = 8, text_col: str = "text"):
    """Annotate ``ds`` (a documents-like Dataset) against ``eval_texts``
    (an iterable of benchmark strings). Returns the Dataset with
    ``contam_ngrams`` / ``contaminated`` columns added; callers typically
    ``.filter(expr="not contaminated")`` next."""
    stage = DecontamStage(eval_shingle_set(eval_texts, k), k, text_col)
    return ds.map_batches(stage, batch_format="pandas")


class EmbeddingDecontamStage:
    """map_batches callable for SEMANTIC decontamination: the n-gram check
    above misses paraphrased benchmark leakage, so production cleanups add
    an embedding-similarity pass (e.g. the Phi-family "semantic
    decontamination"): flag any corpus vector whose cosine against ANY
    eval vector reaches a threshold. Same broadcast shape — the eval
    matrix (plus its row norms) ships inside the instance, once per
    operator; each batch is one (batch × eval) matmul. Cosine uses the
    repo's pinned kernel: ``floor(dot / (|a|·|b|) · 1e6 + 0.5)`` with zero-norm ≡ 0, the
    exact expression DuckDB's ``list_cosine_similarity`` twin evaluates."""

    def __init__(self, eval_matrix, threshold_micros: int, emb_col: str, id_col: str):
        E = np.asarray(eval_matrix, dtype=np.float64)
        self.E = E
        n = np.linalg.norm(E, axis=1)
        n[n == 0] = 1.0  # zero eval vector ⇒ cosine 0 (pinned convention)
        self.zero_eval = np.linalg.norm(E, axis=1) == 0
        self.en = n
        self.threshold = threshold_micros
        self.emb_col, self.id_col = emb_col, id_col

    def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
        from .ann import _stack_embeddings

        X = _stack_embeddings(b, self.emb_col)
        xn = np.linalg.norm(X, axis=1)
        zero_x = xn == 0
        xn = np.where(zero_x, 1.0, xn)
        cos = (X @ self.E.T) / np.outer(xn, self.en)
        cos[:, self.zero_eval] = 0.0
        cos[zero_x, :] = 0.0
        mc = np.floor(cos * 1e6 + 0.5).max(axis=1).astype(np.int64)
        return pd.DataFrame(
            {
                self.id_col: b[self.id_col].to_numpy(np.int64),
                "max_cos_micros": mc,
                "contaminated": (mc >= self.threshold).astype(np.int64),
            }
        )


def embedding_decontaminate(
    ds,
    eval_matrix: np.ndarray,
    *,
    threshold_micros: int = 460_000,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
):
    """Streaming semantic-decontamination pass → (id, max_cos_micros,
    contaminated). Zero shuffles; the eval matrix ships once, inside the
    stage instance. At a real benchmark size (10⁴ × 10³ dims ≈ 100 MB)
    the per-batch matmul stays cache-friendly, and Ray Data logs its
    100 MiB UDF-size warning (``MapOperator.MAP_UDF_WARN_SIZE_THRESHOLD``):
    expected here, the matrix is put once per operator, not per batch. An
    eval set beyond ~10⁶ rows should switch to the IVF-bucketed ANN join
    instead (stages/ann.py)."""
    stage = EmbeddingDecontamStage(eval_matrix, threshold_micros, emb_col, id_col)
    return ds.map_batches(stage, batch_format="pandas")
