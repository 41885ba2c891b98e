"""Passage-level BM25 — rank documents by their BEST fixed-size window
(Callan, SIGIR 1994 "Passage-level evidence in document retrieval"; Liu &
Croft, SIGIR 2002): a long page that mentions every query term once,
scattered, should lose to a short page whose terms cluster in one
passage. The whole-document ranker cannot see that; this one scores

    score(d) = max over window starts s of
               Σ_t idf(t) · c_t(s) / (c_t(s) + k1)

where ``c_t(s)`` counts t's occurrences in positions ``[s, s+W)`` and the
candidate starts are exactly d's query-term match positions (the best
window must begin at a match — sliding further left only adds empty
prefix). The fixed window length makes BM25's length normalization a
constant (B = 1), the classic fixed-window passage model; ``idf`` uses
the GLOBAL document df from the index's termstats store, so scores are
comparable across shards.

Distributed shape (the ``query/bm25f.py`` contract): one pass on a
``QueryService`` started for the call (``_ServiceWorker.map_shards``);
each worker holds its shards open (``_ShardCache``), decodes POSITIONAL
postings for the query terms only, drops deleted docs, and scans windows
fully vectorized per document (per-term
``searchsorted(starts+W) − searchsorted(starts)`` over the sorted
position arrays — no per-position Python). Each shard returns its local
top-k; the driver merges k·S rows. Per-shard work is proportional to the
query terms' posting sizes, never the corpus.

Determinism: every window score is micro-quantized BEFORE the per-doc
argmax (ties → earliest start) and the global ranking sorts the integer
key (ties → docid) — both engines pick identical windows even at float
knife edges.

Reference scope: the reference ranks whole documents only
(``QryopSlScore.java``); passage evidence is the standard public
extension for long-document web retrieval.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..state.index_layout import read_stats
from .executor import QueryService, _ShardCache, load_term_stats
from .kernels import _member_mask

__all__ = ["passage_bm25_topk"]


def _round_away(v: np.ndarray) -> np.ndarray:
    return np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5)


def _passage_rows(
    cache: _ShardCache,
    shards,
    terms: list[str],
    idf: dict[str, float],
    k1: float,
    window: int,
    k: int,
) -> pd.DataFrame:
    out = {"docid": [], "start_pos": [], "score_micros": []}
    for shard in shards:
        view = cache.view(int(shard))
        posts = {}
        all_docs = []
        for t in terms:
            d, _tf, po, pf, _df, _ctf = view.reader.get_postings(
                "body", t, with_positions=True
            )
            if len(d):
                posts[t] = (d, po, pf)
                all_docs.append(d)
        if not all_docs:
            continue
        union = np.unique(np.concatenate(all_docs))
        if len(cache.tombstones):  # deleted docs drop before the top-k cut
            union = union[~_member_mask(cache.tombstones, union)]
        # per-doc window scan: per-term sorted position slices +
        # searchsorted range counts over the candidate starts
        doc_best: list[tuple[int, int, int]] = []  # (docid, start, micros)
        for doc in union:
            pos_by_term = {}
            for t, (d, po, pf) in posts.items():
                i = np.searchsorted(d, doc)
                if i < len(d) and d[i] == doc:
                    pos_by_term[t] = pf[po[i] : po[i + 1]].astype(np.int64)
            starts = np.unique(np.concatenate(list(pos_by_term.values())))
            score = np.zeros(len(starts), dtype=np.float64)
            for t in terms:  # fixed accumulation order
                p = pos_by_term.get(t)
                if p is None:
                    continue
                c = (
                    np.searchsorted(p, starts + window, side="left")
                    - np.searchsorted(p, starts, side="left")
                ).astype(np.float64)
                score += idf[t] * (c / (c + k1))
            micros = _round_away(score).astype(np.int64)
            j = int(np.lexsort((starts, -micros))[0])  # ties → earliest start
            doc_best.append((int(doc), int(starts[j]), int(micros[j])))
        if not doc_best:
            continue
        df = pd.DataFrame(doc_best, columns=["docid", "start_pos", "score_micros"])
        df = df.sort_values(
            ["score_micros", "docid"], ascending=[False, True], kind="mergesort"
        ).head(k)
        for c in out:
            out[c].extend(df[c].tolist())
    return pd.DataFrame(
        {c: pd.Series(v, dtype="int64") for c, v in out.items()}
    )


def passage_bm25_topk(
    index_dir: str,
    terms: list[str],
    *,
    window: int = 16,
    k: int = 10,
    k1: float = 1.2,
) -> pd.DataFrame:
    """→ global top-k ``(docid, start_pos, score_micros)`` in
    ``(score_micros desc, docid asc)`` order; ``start_pos`` is the best
    window's first position (engine position base: 0-based raw-token
    offsets, gap-preserving)."""
    n_docs = float(read_stats(index_dir)["n_docs"])
    got = load_term_stats(index_dir, {("body", t) for t in terms})
    idf = {}
    for t in terms:
        df = got.get(("body", t), (0, 0))[0]
        idf[t] = float(np.log((n_docs - df + 0.5) / (df + 0.5)))
    with QueryService(index_dir) as svc:
        rows = svc._gather("map_shards", _passage_rows, terms, idf, k1, window, k)
    return (
        rows.sort_values(
            ["score_micros", "docid"], ascending=[False, True], kind="mergesort"
        )
        .head(k)
        .reset_index(drop=True)
    )
