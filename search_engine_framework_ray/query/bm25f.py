"""BM25F — field-weighted BM25 over the multi-field index.

The reference scores each field independently (per-field BM25 features,
LearnToRank.java:358-445); BM25F (Zaragoza et al., CIKM 2004, "Microsoft
Cambridge at TREC-13: Web and HARD tracks") instead folds the fields into
ONE frequency before saturation, which is the standard web-search ranking
for title/body/anchor evidence:

    tf~(t, d)  =  sum_f  w_f * tf(t, f, d) / B_f(d)
    B_f(d)     =  (1 - b) + b * len_f(d) / avglen_f
    score(d)   =  sum_t  idf(t) * tf~ / (k1 + tf~)
    idf(t)     =  ln((N - df_u(t) + 0.5) / (df_u(t) + 0.5))

where ``df_u`` is the cross-field UNION document frequency (a doc counts
once no matter how many fields the term hits).

Distributed shape (same contract as query/executor.py): shards partition
docids, so

* pass 1 — per-shard union-df: each shard merges the term's posting docid
  sets across fields and reports ``len(union)``; the driver SUM over shards
  is the exact global union df (no doc appears in two shards).  One tiny
  (term, count) row per (shard, term).
* pass 2 — scoring: every shard computes tf~ fully vectorized from mmap'd
  postings + per-field doclen arrays using GLOBAL field stats (stats.json
  sum_doclen/doccount — identical on every shard, so scores are globally
  comparable), drops deleted docs, keeps a local top-k, and the driver
  merges k*S rows.

Both passes run on one ``QueryService`` started for the call
(``_ServiceWorker.map_shards``), so each shard loads once per call.
Deleted docs still count in the union df (Lucene liveDocs/docFreq
semantics: a compaction reclaims the stats).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..state.index_layout import read_stats
from .executor import QueryService, _ShardCache
from .kernels import _member_mask

# field accumulation order is part of the spec: IEEE float addition is not
# associative, so the SQL twin writes the B + title + url + inlink chain in
# exactly this order
FIELD_ORDER = ("body", "title", "url", "inlink")


def _union_df_rows(cache: _ShardCache, shards, terms: list[str], fields) -> pd.DataFrame:
    out = {"term": [], "df": []}
    for shard in shards:
        view = cache.view(int(shard))
        for t in terms:
            docs = [
                view.reader.get_postings(f, t, with_positions=False)[0]
                for f in fields
            ]
            docs = [d for d in docs if len(d)]
            n = len(np.unique(np.concatenate(docs))) if docs else 0
            out["term"].append(t)
            out["df"].append(n)
    return pd.DataFrame({"term": out["term"], "df": pd.Series(out["df"], dtype="int64")})


def _score_rows(
    cache: _ShardCache,
    shards,
    terms: list[str],
    weights: dict[str, float],
    idf: dict[str, float],
    k1: float,
    b: float,
    k: int,
) -> pd.DataFrame:
    out = {"docid": [], "url": [], "score": []}
    fields = [f for f in FIELD_ORDER if f in weights]
    for shard in shards:
        view = cache.view(int(shard))
        # per-field avg doclen from GLOBAL build-time stats (identical on
        # every shard — cross-shard score comparability, executor.py:37)
        avg = {}
        for f in fields:
            dc = view.doccount(f)
            avg[f] = view.sum_doclen(f) / dc if dc else 0.0
        # union of matching docids across all (term, field) postings
        all_docs = []
        posts = {}  # (term, field) -> (docids, tfs)
        for t in terms:
            for f in fields:
                d, tf, _, _, _, _ = view.reader.get_postings(f, t, with_positions=False)
                if len(d):
                    posts[(t, f)] = (d, tf)
                    all_docs.append(d)
        if not all_docs:
            continue
        union = np.unique(np.concatenate(all_docs))
        score = np.zeros(len(union), dtype=np.float64)
        for t in terms:
            tft = np.zeros(len(union), dtype=np.float64)
            for f in fields:  # FIELD_ORDER accumulation (see module doc)
                if (t, f) not in posts or not avg[f]:
                    continue
                d, tf = posts[(t, f)]
                bf = (1.0 - b) + b * (
                    view.doclen(f, d).astype(np.float64) / avg[f]
                )
                tft[np.searchsorted(union, d)] += (weights[f] * tf.astype(np.float64)) / bf
            m = tft > 0
            score[m] += idf[t] * (tft[m] / (k1 + tft[m]))
        if len(cache.tombstones):  # deleted docs drop before the top-k cut
            keep = ~_member_mask(cache.tombstones, union)
            union, score = union[keep], score[keep]
        order = np.lexsort((union, -score))[:k]
        docids = union[order]
        out["docid"].extend(int(d) for d in docids)
        out["url"].extend(view.reader.url_of(docids))
        out["score"].extend(float(s) for s in score[order])
    return pd.DataFrame(
        {
            "docid": pd.Series(out["docid"], dtype="int64"),
            "url": pd.Series(out["url"], dtype="object"),
            "score": pd.Series(out["score"], dtype="float64"),
        }
    )


def bm25f_topk(
    index_dir: str,
    terms: list[str],
    weights: dict[str, float],
    *,
    k: int = 15,
    k1: float = 1.2,
    b: float = 0.75,
) -> pd.DataFrame:
    """→ (docid, url, score) global top-k, (score desc, docid) order."""
    fields = [f for f in FIELD_ORDER if f in weights]
    n_docs = read_stats(index_dir)["n_docs"]
    with QueryService(index_dir) as svc:
        local = svc._gather("map_shards", _union_df_rows, terms, fields)
        gdf = local.groupby("term")["df"].sum() if len(local) else pd.Series(dtype="int64")
        idf = {
            t: float(np.log((n_docs - int(gdf.get(t, 0)) + 0.5) / (int(gdf.get(t, 0)) + 0.5)))
            for t in terms
        }
        rows = svc._gather("map_shards", _score_rows, terms, weights, idf, k1, b, k)
    return (
        rows.sort_values(["score", "docid"], ascending=[False, True], kind="mergesort")
        .head(k)
        .reset_index(drop=True)
    )
