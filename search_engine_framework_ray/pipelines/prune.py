"""Static index pruning (Carmel et al., SIGIR 2001, "Static index pruning
for information retrieval systems") — impact-ordered posting cuts, plus
BM25 scoring over the pruned table.

The reference always scores complete posting lists; web-scale engines trade
tail postings for index size by keeping only each term's ``keep_top``
highest-impact entries (here: tf, ties docid-ascending — with the fixed
BM25 doclen normalization this is the uniform top-k variant).

Distributed shape:

* ``prune_postings`` — the per-shard decode task TAKES ITS LOCAL top-P per
  term before anything shuffles (the global top-P per term is a subset of
  the union of per-shard top-Ps — the same combiner argument as the
  build's termstats partials), so at most P·shards rows per term cross the
  ONE term-bucket shuffle; the per-bucket reduce applies the global cut.
* ``pruned_bm25_topk`` — scores the pruned table with the FULL index's
  global stats (idf / doclen / avgdl unchanged: pruning removes evidence,
  it must not re-weight what survives — every surviving posting scores
  exactly what it scored un-pruned, so the pruned score is a per-doc lower
  bound of the full score). Rows co-partition by SHARD (docid ranges are
  the shard boundaries, known from the manifests), so each group loads
  only its own shard's doclen column — per-task memory O(shard), and
  per-doc sums complete within one group (docid → shard is a function).
  Each group drops the index's tombstoned docs before its top-k cut, so
  deleted docs never rank and live ones fill the page; df and the
  collection stats keep their pre-delete values, as on every QueryService
  path. The ``prune_postings`` cut itself reads no delete list: which
  postings survive, and so every survivor's score, is the same with or
  without deletes. k·S rows reach the driver.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import ray.data

from ..sources.corpus import hash_det
from ..state import index_layout as lay
from . import unreserved

__all__ = ["prune_postings", "pruned_bm25_topk"]


def prune_postings(
    index_dir: str,
    keep_top: int,
    *,
    field: str = "body",
    terms: list[str] | None = None,
    n_buckets: int = 32,
) -> ray.data.Dataset:
    """→ Dataset (term, docid, tf): each term's global ``keep_top``
    highest-tf postings (ties docid-ascending). ``terms`` restricts the
    decode to a term subset (the column-pruned read for query-time use);
    None prunes the whole vocabulary (the stored-artifact use)."""
    shards = lay.list_shards(index_dir)
    want = set(terms) if terms is not None else None

    def local_cut(batch):
        from ..functions.codec import decode_postings
        from ..state.shard import ShardReader

        out_t, out_d, out_f = [], [], []
        for sid in batch["shard"].tolist():
            rdr = ShardReader(index_dir, int(sid))
            for (f, term), (off, nb, df, _) in rdr.term_dict.items():
                if f != field or (want is not None and term not in want):
                    continue
                d, tf, _, _ = decode_postings(
                    rdr.postings[off : off + nb], with_positions=False
                )
                if len(d) > keep_top:
                    cut = np.lexsort((d, -tf))[:keep_top]
                    cut.sort()
                    d, tf = d[cut], tf[cut]
                out_t.append(np.repeat(term, len(d)))
                out_d.append(d)
                out_f.append(tf.astype(np.int64))
        if not out_t:
            return pd.DataFrame(
                {
                    "term": pd.Series(dtype="object"),
                    "docid": pd.Series(dtype="int64"),
                    "tf": pd.Series(dtype="int64"),
                    "bucket": pd.Series(dtype="int64"),
                }
            )
        term_col = np.concatenate(out_t)
        df = pd.DataFrame(
            {
                "term": term_col,
                "docid": np.concatenate(out_d),
                "tf": np.concatenate(out_f),
            }
        )
        df["bucket"] = pd.Series(
            [hash_det(t) % n_buckets for t in term_col], dtype="int64"
        )
        return df

    def global_cut(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["term", "tf", "docid"], ascending=[True, False, True], kind="mergesort"
        )
        g = g.groupby("term", sort=False).head(keep_top)
        return g[["term", "docid", "tf"]]

    # reservation off (pipelines.unreserved): the local_cut map and the
    # map after the bucket sort (global_cut, and pruned_bm25_topk's
    # assign_shard) each run one task at a time under it
    return (
        unreserved(
            ray.data.from_items(
                [{"shard": int(s)} for s in shards],
                override_num_blocks=max(1, len(shards)),
            )
        )
        .map_batches(local_cut, batch_format="pandas")
        .groupby("bucket")
        .map_groups(global_cut, batch_format="pandas")
    )


def pruned_bm25_topk(
    index_dir: str,
    terms: list[str],
    keep_top: int,
    *,
    k: int = 20,
    field: str = "body",
    k1: float = 1.2,
    b: float = 0.75,
) -> pd.DataFrame:
    """→ (docid, score) top-k BM25 over the pruned postings, full-index
    global stats (see module doc)."""
    from ..query.executor import load_term_stats
    from ..query.kernels import _member_mask

    stats = lay.read_stats(index_dir)
    tomb = lay.load_tombstones(index_dir)
    n_docs = int(stats["n_docs"])
    fstats = stats["fields"][field]
    avg = float(np.float64(fstats["sum_doclen"]) / np.float64(fstats["doccount"]))
    tstats = load_term_stats(index_dir, {(field, t) for t in terms})
    idf = {
        t: math.log((n_docs - df + 0.5) / (df + 0.5))
        for (f, t), (df, _) in tstats.items()
    }

    shards = lay.list_shards(index_dir)
    bases, sdirs = [], {}
    for s in shards:
        sd = lay.shard_dir(index_dir, s)
        with open(os.path.join(sd, "manifest.json")) as fh:
            bases.append(int(json.load(fh)["docid_base"]))
        sdirs[s] = sd
    order = np.argsort(bases)
    bases_sorted = np.asarray(bases, dtype=np.int64)[order]
    shard_sorted = np.asarray(shards, dtype=np.int64)[order]

    pruned = prune_postings(index_dir, keep_top, field=field, terms=terms)

    def assign_shard(batch: pd.DataFrame) -> pd.DataFrame:
        pos = np.searchsorted(bases_sorted, batch["docid"].to_numpy(), side="right") - 1
        batch = batch.copy()
        batch["shard"] = shard_sorted[pos]
        return batch

    def score_group(g: pd.DataFrame) -> pd.DataFrame:
        sid = int(g["shard"].iloc[0])
        sd = sdirs[sid]
        with open(os.path.join(sd, "manifest.json")) as fh:
            base = int(json.load(fh)["docid_base"])
        dl_arr = (
            pq.read_table(
                os.path.join(sd, "doclens.parquet"), columns=[f"len_{field}"]
            )[f"len_{field}"]
            .to_numpy()
            .astype(np.float64)
        )
        docids = g["docid"].to_numpy()
        tf = g["tf"].to_numpy().astype(np.float64)
        dl = dl_arr[docids - base]
        tf_w = tf / (tf + k1 * ((1 - b) + b * (dl / avg)))
        part = np.asarray([idf[t] for t in g["term"]]) * tf_w
        agg = (
            pd.DataFrame({"docid": docids, "part": part})
            .groupby("docid", sort=True)["part"]
            .sum()
            .reset_index()
        )
        agg = agg.rename(columns={"part": "score"})
        if len(tomb):
            agg = agg[~_member_mask(tomb, agg["docid"].to_numpy())]
        o = np.lexsort((agg["docid"].to_numpy(), -agg["score"].to_numpy()))[:k]
        return agg.iloc[o]

    rows = (
        pruned.map_batches(assign_shard, batch_format="pandas")
        .groupby("shard")
        .map_groups(score_group, batch_format="pandas")
        .to_pandas()
    )
    o = np.lexsort((rows["docid"].to_numpy(), -rows["score"].to_numpy()))[:k]
    return rows.iloc[o][["docid", "score"]].reset_index(drop=True)
