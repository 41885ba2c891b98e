"""Index compaction: merge many small shards into few right-sized ones.

Completes the incremental-index lifecycle started by
``build_index`` + ``extend_index`` (LSM-style): daily ``extend_index``
appends accumulate small delta shards; once their count (and the per-query
fan-out, which is O(shards)) grows, ``compact_index`` rewrites the index
into a fresh directory with consolidated shards and the SAME logical
content — docids, postings, doclens, forward vectors, docmap and global
termstats are all preserved exactly, so query results over the compacted
index are byte-identical to the uncompacted one (the unit tests' oracle,
and the `compact_bm25` driver entry's SQL-hash oracle).

Design for 10¹²-doc scale:

* Output goes to a NEW directory — the live index stays queryable until
  the atomic pointer swap, and a crashed compaction never corrupts it.
* One Ray task per OUTPUT shard (``groupby('group').map_groups``, the same
  execution shape as the build); each task touches only its input shards'
  files, so per-task memory is O(merged shard), never O(index).
* Input shards hold disjoint, ascending, contiguous docid ranges (the
  build and extend invariants), so merging consecutive shards is a linear
  posting-list concatenation — no docid remapping, no re-tokenization,
  and the corpus text is never read.
* A term that lives in only ONE input shard (the common case for a Zipf
  tail) is copied byte-for-byte: the posting codec is position-independent
  (docid deltas start from 0 per list), so no decode/re-encode happens.
  Multi-shard terms decode, concatenate (docids already ascending across
  shards), and re-encode with fresh skip blocks + block-max scores.
* Global (field, term) df/ctf buckets are copied, not recomputed —
  compaction preserves the per-term sums by construction.
* Resumable: each output shard writes a fingerprint derived from its
  input shards' fingerprints; re-running skips finished shards, and a
  completed compaction is recognized by ``compact_key`` in stats.json.

The reference engine (Jiacli/search-engine-framework) delegates index
storage to Lucene (``QryEval.java:54,102`` — one ``IndexReader`` over a
``DirectoryReader``-opened index, logical view independent of physical
segmentation); Lucene's background segment merging is the operation this
module re-expresses for the sharded Ray-native layout.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from ..functions.codec import decode_postings, encode_postings
from ..state import index_layout as lay
from ..state.shard import TERMS_SCHEMA
from . import unreserved

__all__ = ["compact_index"]


def _shard_manifests(index_dir: str) -> list[dict]:
    """All shard manifests, sorted by docid_base; validates the contiguity
    invariant compaction relies on."""
    mans = []
    for sid in lay.list_shards(index_dir):
        m = lay.read_manifest(index_dir, sid)
        if m is None:
            raise ValueError(f"shard {sid} has no manifest — index incomplete?")
        mans.append(m)
    mans.sort(key=lambda m: m["docid_base"])
    expect = 0
    for m in mans:
        if m["docid_base"] != expect:
            raise ValueError(
                f"shard {m['shard']} docid_base={m['docid_base']} != {expect}; "
                "docid ranges are not contiguous — cannot compact"
            )
        expect += m["n_docs"]
    return mans


def _plan_groups(mans: list[dict], num_shards: int | None) -> list[list[dict]]:
    """Group consecutive input shards into output shards, balanced by docs
    (the same 20k-docs / 96 MiB sizing rule as the build when num_shards is
    not forced)."""
    total_docs = sum(m["n_docs"] for m in mans)
    total_bytes = sum(m.get("postings_bytes", 0) for m in mans)
    if num_shards is None:
        num_shards = max(1, -(-total_docs // 20_000), -(-total_bytes // (96 << 20)))
    num_shards = min(num_shards, len(mans))
    groups: list[list[dict]] = [[] for _ in range(num_shards)]
    cum = 0
    for m in mans:
        g = min(num_shards - 1, cum * num_shards // max(1, total_docs))
        groups[g].append(m)
        cum += m["n_docs"]
    return [g for g in groups if g]


def _tomb_mask(sorted_tombs: np.ndarray, docids: np.ndarray) -> np.ndarray:
    """True where docid IS tombstoned (sorted-membership probe)."""
    if len(sorted_tombs) == 0 or len(docids) == 0:
        return np.zeros(len(docids), dtype=bool)
    idx = np.minimum(np.searchsorted(sorted_tombs, docids), len(sorted_tombs) - 1)
    return sorted_tombs[idx] == docids


def _merge_group(
    in_dir: str,
    sids: list[int],
    out_dir: str,
    out_sid: int,
    fingerprint: str,
    block_size: int,
    include_forward: bool,
    tombstones: np.ndarray | None = None,
) -> dict:
    """Merge the given input shards (ascending docid ranges) into output
    shard ``out_sid``. Idempotent: skips if the output shard already exists
    with this fingerprint. Runs inside one Ray task.

    ``tombstones`` (sorted int64): physical delete reclaim — tombstoned
    docs' postings are dropped (lists re-encoded, df/ctf recomputed, empty
    terms vanish), while per-doc metadata rows (doclens/fwd/docmap) are
    KEPT as addressing stubs so docid→row positions stay valid without a
    corpus-wide renumber; the manifest records survivor stats as
    ``n_live`` / live field sums."""
    prev = lay.read_manifest(out_dir, out_sid)
    if prev is not None and prev.get("fingerprint") == fingerprint:
        return {"shard": out_sid, "skipped": True, "n_docs": prev["n_docs"]}
    t0 = time.monotonic()
    sdirs = [lay.shard_dir(in_dir, s) for s in sids]
    out_sdir = lay.shard_dir(out_dir, out_sid)
    tmp = out_sdir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)

    # --- row-wise files: plain concatenation in docid order ---
    def concat_to(name: str, dest: str) -> pa.Table:
        tabs = [pq.read_table(os.path.join(d, name)) for d in sdirs]
        cols = tabs[0].column_names
        tab = pa.concat_tables([t.select(cols) for t in tabs])
        pq.write_table(tab, os.path.join(tmp, dest))
        return tab

    dl_tab = concat_to("doclens.parquet", "doclens.parquet")
    if include_forward:
        concat_to("fwd.parquet", "fwd.parquet")
    docmap = pa.concat_tables(
        [pq.read_table(lay.docmap_path(in_dir, s)) for s in sids]
    )

    in_mans = [lay.read_manifest(in_dir, s) for s in sids]
    base = int(in_mans[0]["docid_base"])
    end = base + int(sum(m["n_docs"] for m in in_mans))
    tomb_rng = (
        tombstones[(tombstones >= base) & (tombstones < end)]
        if tombstones is not None and len(tombstones)
        else np.empty(0, dtype=np.int64)
    )

    # --- postings: single-source terms byte-copy, multi-source re-encode ---
    pieces = []
    maps = []
    for ordn, d in enumerate(sdirs):
        t = pq.read_table(os.path.join(d, "terms.parquet")).to_pandas()
        t["ord"] = ordn
        pieces.append(t)
        maps.append(np.memmap(os.path.join(d, "postings.bin"), dtype=np.uint8, mode="r"))
    allt = pd.concat(pieces, ignore_index=True).sort_values(
        ["field", "term", "ord"], kind="mergesort"
    )
    fields_s: list[str] = []
    terms_s: list[str] = []
    dfs: list[int] = []
    ctfs: list[int] = []
    offsets: list[int] = []
    nbytes_l: list[int] = []
    offset = 0
    with open(os.path.join(tmp, "postings.bin"), "wb") as fh:
        for (field, term), rows in allt.groupby(["field", "term"], sort=False):
            df_out = int(rows["df"].sum())
            ctf_out = int(rows["ctf"].sum())
            if len(rows) == 1 and not len(tomb_rng):
                r = rows.iloc[0]
                buf = maps[int(r["ord"])][int(r["offset"]) : int(r["offset"]) + int(r["nbytes"])]
                buf = buf.tobytes()
            else:
                doc_parts, tf_parts, pos_parts = [], [], []
                for r in rows.itertuples(index=False):
                    raw = maps[r.ord][r.offset : r.offset + r.nbytes]
                    d_ids, d_tfs, _, d_pos = decode_postings(raw.tobytes())
                    doc_parts.append(d_ids)
                    tf_parts.append(d_tfs)
                    pos_parts.append(d_pos)
                docids = np.concatenate(doc_parts).astype(np.int64)
                tfs = np.concatenate(tf_parts).astype(np.int64)
                pos = np.concatenate(pos_parts).astype(np.int32)
                if len(tomb_rng):
                    dead = _tomb_mask(tomb_rng, docids)
                    if dead.any():
                        keep = ~dead
                        pos = pos[np.repeat(keep, tfs)]
                        docids, tfs = docids[keep], tfs[keep]
                        if len(docids) == 0:
                            continue  # term fully reclaimed — no entry
                        df_out = int(len(docids))
                        ctf_out = int(tfs.sum())
                if len(rows) == 1 and df_out == int(rows.iloc[0]["df"]):
                    # nothing reclaimed in this single-source list: keep the
                    # original bytes (identical content, no re-encode)
                    r = rows.iloc[0]
                    buf = maps[int(r["ord"])][
                        int(r["offset"]) : int(r["offset"]) + int(r["nbytes"])
                    ].tobytes()
                else:
                    po = np.zeros(len(tfs) + 1, dtype=np.int64)
                    np.cumsum(tfs, out=po[1:])
                    buf = encode_postings(docids, tfs, po, pos, block_size=block_size)
            fh.write(buf)
            fields_s.append(field)
            terms_s.append(term)
            dfs.append(df_out)
            ctfs.append(ctf_out)
            offsets.append(offset)
            nbytes_l.append(len(buf))
            offset += len(buf)

    pq.write_table(
        pa.table(
            {
                "field": fields_s,
                "term": terms_s,
                "df": dfs,
                "ctf": ctfs,
                "offset": offsets,
                "nbytes": nbytes_l,
            },
            schema=TERMS_SCHEMA,
        ),
        os.path.join(tmp, "terms.parquet"),
    )

    field_names = [c[4:] for c in dl_tab.column_names if c.startswith("len_")]
    n_full = int(sum(m["n_docs"] for m in in_mans))
    fields_man = {
        f: {
            "sum_doclen": int(sum(m["fields"][f]["sum_doclen"] for m in in_mans)),
            "doccount": int(sum(m["fields"][f]["doccount"] for m in in_mans)),
        }
        for f in field_names
    }
    if len(tomb_rng):
        # survivor (live) stats: subtract the tombstoned rows' doclens —
        # dl_tab rows are positional over [base, end) by the contiguity
        # invariant, so the dead rows are at local = tomb - base
        local = (tomb_rng - base).astype(np.int64)
        for f in field_names:
            col = dl_tab[f"len_{f}"].to_numpy()
            dead = col[local]
            fields_man[f] = {
                "sum_doclen": fields_man[f]["sum_doclen"] - int(dead.sum()),
                "doccount": fields_man[f]["doccount"] - int((dead > 0).sum()),
            }
    manifest = {
        "shard": out_sid,
        "docid_base": base,
        # n_docs stays the ADDRESSING count (doclens/fwd/docmap keep stub
        # rows for reclaimed docs); n_live is the scoring count
        "n_docs": n_full,
        "n_live": n_full - int(len(tomb_rng)),
        "fingerprint": fingerprint,
        "fields": fields_man,
        "postings_bytes": offset,
        "n_terms": len(terms_s),
        "compacted_from": [int(s) for s in sids],
        "wall_s": round(time.monotonic() - t0, 3),
    }
    with open(os.path.join(tmp, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1)

    os.makedirs(os.path.dirname(lay.docmap_path(out_dir, out_sid)), exist_ok=True)
    pq.write_table(docmap, lay.docmap_path(out_dir, out_sid))
    shutil.rmtree(out_sdir, ignore_errors=True)
    os.replace(tmp, out_sdir)
    return {"shard": out_sid, "skipped": False, "n_docs": manifest["n_docs"]}


def compact_index(
    index_dir: str,
    out_dir: str,
    *,
    num_shards: int | None = None,
    apply_deletes: bool = False,
) -> dict:
    """Compact ``index_dir`` (typically base + extend_index deltas) into
    ``out_dir`` with consolidated shards; logical content is unchanged —
    unless ``apply_deletes`` is set, in which case the index's tombstones
    (state/index_layout.py) are PHYSICALLY reclaimed: deleted docs' postings
    are dropped, df/ctf and collection stats are recomputed over survivors
    (global termstats re-reduced from the output shards' terms tables), and
    the compacted index carries no delete list. Post-reclaim scores equal a
    fresh rebuild over the surviving corpus (the `compact_reclaim_bm25`
    driver entry's SQL-hash oracle). Per-doc metadata rows (doclens / fwd /
    docmap) are kept as addressing stubs — postings are the bytes that
    matter at scale, and stubs avoid a corpus-wide docid renumber.

    ``out_dir`` must differ from ``index_dir`` (atomic-swap semantics: the
    caller flips its index pointer after success). The compacted index is a
    committed base — ``extend_index`` can append to it again.
    """
    if os.path.abspath(out_dir) == os.path.abspath(index_dir):
        raise ValueError("compact_index writes a NEW directory; out_dir == index_dir")
    t_start = time.monotonic()
    prev = lay.read_stats(index_dir)
    mans = _shard_manifests(index_dir)
    groups = _plan_groups(mans, num_shards)
    tomb = (
        lay.load_tombstones(index_dir) if apply_deletes else np.empty(0, np.int64)
    )
    tomb_digest = hashlib.sha1(tomb.tobytes()).hexdigest()[:16] if len(tomb) else ""
    key_src = json.dumps(
        [[(m["shard"], m["fingerprint"]) for m in g] for g in groups]
    ) + f";bs={prev['block_size']};tomb={tomb_digest}"
    compact_key = hashlib.sha1(key_src.encode()).hexdigest()
    try:
        out_stats = lay.read_stats(out_dir)
    except FileNotFoundError:
        out_stats = None
    if out_stats is not None and out_stats.get("compact_key") == compact_key:
        return {
            "n_docs": out_stats["n_docs"],
            "num_shards": out_stats["num_shards"],
            "merged": 0,
            "resumed": True,
            "wall_s": round(time.monotonic() - t_start, 3),
            "stats": out_stats,
        }

    block_size = prev["block_size"]
    include_forward = prev["include_forward"]
    plans = []
    for out_sid, g in enumerate(groups):
        fp = hashlib.sha1(
            (
                "|".join(f"{m['shard']}:{m['fingerprint']}" for m in g)
                + f";bs={block_size};tomb={tomb_digest}"
            ).encode()
        ).hexdigest()
        plans.append(
            {
                "group": out_sid,
                "sids": json.dumps([int(m["shard"]) for m in g]),
                "fingerprint": fp,
            }
        )

    def merge_one(g: pd.DataFrame) -> pd.DataFrame:
        row = g.iloc[0]
        res = _merge_group(
            index_dir,
            json.loads(row["sids"]),
            out_dir,
            int(row["group"]),
            row["fingerprint"],
            block_size,
            include_forward,
            tombstones=tomb if len(tomb) else None,
        )
        return pd.DataFrame([res])

    report = (
        ray.data.from_items(plans)
        .groupby("group")
        .map_groups(merge_one, batch_format="pandas")
        .to_pandas()
    )

    # A crashed earlier compaction with a DIFFERENT grouping may have left
    # shards beyond this plan's range; list_shards scans directories, so
    # stale survivors would double-count docs at query time — drop them.
    for sid in lay.list_shards(out_dir):
        if sid >= len(groups):
            shutil.rmtree(lay.shard_dir(out_dir, sid), ignore_errors=True)
            try:
                os.remove(lay.docmap_path(out_dir, sid))
            except FileNotFoundError:
                pass

    if len(tomb):
        # reclaim changed per-term df/ctf: re-reduce the global termstats
        # buckets from the OUTPUT shards' terms tables (one narrow shuffle,
        # same machinery as the build / extend)
        from .build_index import _reduce_termstats

        terms_files = [
            os.path.join(lay.shard_dir(out_dir, s), "terms.parquet")
            for s in range(len(groups))
        ]
        _reduce_termstats(
            unreserved(
                ray.data.read_parquet(terms_files, columns=["field", "term", "df", "ctf"])
            ),
            out_dir,
        )
    else:
        # Global termstats are a pure function of per-term (df, ctf) sums,
        # which merging preserves — copy the bucket files verbatim.
        src_ts, dst_ts = lay.termstats_dir(index_dir), lay.termstats_dir(out_dir)
        if os.path.isdir(dst_ts):
            shutil.rmtree(dst_ts)
        shutil.copytree(src_ts, dst_ts)

    stats = dict(prev)
    stats.pop("extended_meta", None)
    stats.update(
        {
            "num_shards": len(groups),
            "compact_key": compact_key,
            "config_key": prev.get("config_key", "") + f";compact={compact_key[:12]}",
        }
    )
    if len(tomb):
        # survivor collection stats from the output manifests
        out_mans = [lay.read_manifest(out_dir, s) for s in range(len(groups))]
        stats["n_docs"] = int(sum(m.get("n_live", m["n_docs"]) for m in out_mans))
        stats["fields"] = {
            f: {
                "sum_doclen": int(
                    sum(m["fields"][f]["sum_doclen"] for m in out_mans)
                ),
                "doccount": int(sum(m["fields"][f]["doccount"] for m in out_mans)),
            }
            for f in out_mans[0]["fields"]
        }
    lay.write_stats(out_dir, stats)
    return {
        "n_docs": stats["n_docs"],
        "num_shards": len(groups),
        "merged": int((~report["skipped"]).sum()),
        "resumed": False,
        "wall_s": round(time.monotonic() - t_start, 3),
        "stats": stats,
    }
