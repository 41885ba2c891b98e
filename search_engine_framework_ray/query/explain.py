"""Score explanation — the Lucene ``explain()`` surface: for a (query,
document) pair, the per-term decomposition of the BM25 score (tf, df,
doclen, and each term's contribution) so a relevance engineer can answer
"why does THIS doc rank THERE" without re-deriving the arithmetic.

Scale shape: requested docs route to their shards (as in
``score_documents``), each shard task decodes ONLY the query terms'
posting lists and probes the requested ids with one searchsorted pass per term — no
full evaluation, no top-k machinery, no corpus scan. df/N/avgdl come from
the global termstats/stats metadata (the same values the distributed
query path scores with, so contributions sum EXACTLY to the ranking
score — pinned by unit test and by the driver oracle hash).

Reference parity: the reference prints final scores only
(QryEval.printResults); explain decomposes the identical arithmetic
(RetrievalModelBM25 k1/b/idf shapes) term by term.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import ray

from ..state.index_layout import list_shards, read_manifest, read_stats
from ..state.shard import ShardReader
from .executor import load_term_stats
from .models import ModelParams


@ray.remote
def _explain_shard(
    index_dir: str, shard: int, terms: list[str], docids: list[int]
) -> pd.DataFrame:
    """(doc_id, term, tf, dl) for requested docs present in this shard —
    one posting decode per term, one searchsorted probe per (term, ids)."""
    r = ShardReader(index_dir, shard)
    lo = r.docid_base
    hi = lo + r.n_docs
    want = np.array(sorted(d for d in docids if lo <= d < hi), dtype=np.int64)
    out = {"doc_id": [], "term": [], "tf": [], "dl": []}
    if not len(want):
        return pd.DataFrame(out)
    dls = r.doclen("body", want)
    dl_of = dict(zip(want.tolist(), dls.tolist()))
    for t in terms:
        p_doc, p_tf, *_ = r.get_postings("body", t, with_positions=False)
        if not len(p_doc):
            continue
        idx = np.searchsorted(p_doc, want)
        idxc = np.minimum(idx, len(p_doc) - 1)
        hit = p_doc[idxc] == want
        for d, tf in zip(want[hit].tolist(), p_tf[idxc[hit]].tolist()):
            out["doc_id"].append(d)
            out["term"].append(t)
            out["tf"].append(int(tf))
            out["dl"].append(dl_of[d])
    return pd.DataFrame(out)


def explain_bm25(
    index_dir: str,
    terms: list[str],
    doc_ids: list[int],
    params: ModelParams | None = None,
) -> pd.DataFrame:
    """Per-term BM25 explanation rows for the requested documents →
    ``(doc_id, term, tf, df, dl, contribution_micros)`` (term absent from a
    doc ⇒ no row; contributions sum to the doc's ranking score exactly).
    Ordered (doc_id, term)."""
    params = params or ModelParams(model="BM25")
    stats = read_stats(index_dir)
    n_docs = int(stats["n_docs"])
    body = stats["fields"]["body"]
    doccount, sum_dl = int(body["doccount"]), int(body["sum_doclen"])

    by_shard: dict[int, list[int]] = {}
    for s in list_shards(index_dir):
        man = read_manifest(index_dir, s)
        lo = int(man["docid_base"])
        hi = lo + int(man["n_docs"])
        mine = [int(d) for d in doc_ids if lo <= d < hi]
        if mine:
            by_shard[int(s)] = mine
    parts = ray.get(
        [
            _explain_shard.remote(index_dir, s, list(terms), ds)
            for s, ds in sorted(by_shard.items())
        ]
    )
    rows = (
        pd.concat([p for p in parts if len(p)], ignore_index=True)
        if any(len(p) for p in parts)
        else pd.DataFrame({"doc_id": [], "term": [], "tf": [], "dl": []})
    )
    if not len(rows):
        return pd.DataFrame(
            {
                "doc_id": pd.Series(dtype="int64"),
                "term": pd.Series(dtype="object"),
                "tf": pd.Series(dtype="int64"),
                "df": pd.Series(dtype="int64"),
                "dl": pd.Series(dtype="int64"),
                "contribution_micros": pd.Series(dtype="int64"),
            }
        )

    ts = load_term_stats(index_dir, {("body", t) for t in set(rows["term"])})
    df_of = {t: int(d) for (f, t), (d, _) in ts.items() if f == "body"}
    rows["df"] = rows["term"].map(df_of).astype("int64")
    tf = rows["tf"].to_numpy(np.float64)
    dl = rows["dl"].to_numpy(np.float64)
    dfv = rows["df"].to_numpy(np.float64)
    # the exact float shapes of the distributed scorer / SQL twin:
    # idf = ln((N - df + 0.5)/(df + 0.5)); norm = (1-b) + b·dl/avgdl
    idf = np.log((n_docs - dfv + 0.5) / (dfv + 0.5))
    contrib = idf * (
        tf / (tf + params.k1 * ((1 - params.b) + params.b * (dl / (sum_dl * 1.0 / doccount))))
    )
    rows["contribution_micros"] = (
        np.sign(contrib) * np.floor(np.abs(contrib) * 1_000_000 + 0.5)
    ).astype(np.int64)
    for c in ("doc_id", "tf", "dl"):
        rows[c] = rows[c].astype("int64")
    return (
        rows[["doc_id", "term", "tf", "df", "dl", "contribution_micros"]]
        .sort_values(["doc_id", "term"], kind="mergesort")
        .reset_index(drop=True)
    )
