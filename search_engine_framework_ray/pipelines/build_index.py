"""Distributed inverted-index build (SURVEY.md §7.1 steps 3-7).

Ray-Data-first dataflow::

    read_parquet(url, html, lang)                 # column-pruned read
      └─ map_batches(ExtractStage, pyarrow)       # html → body/title/keywords/url terms
                                                  #  + anchor rows; html dropped here
      └─ map_batches(assign part)                 # url → range-partition id (broadcast
                                                  #  boundaries from a deterministic sample)
      └─ groupby(part).map_groups(build shard)    # ☁ the ONE big shuffle: co-locates a
                                                  #  docid range's docs + its inbound
                                                  #  anchors; SPIMI build, varbyte encode,
                                                  #  atomic shard dir + lineage manifest
      └─ (emitted termstats partials)             # one combined row per (shard, field, term)
      └─ groupby(bucket).map_groups(sum, write)   # ☁ small shuffle → hash-bucketed
                                                  #  global termstats files

Scale notes:
* docids are the global rank of ``url`` (dense, deterministic): per-partition
  counts → driver prefix sum → ``docid = offset[part] + local sorted rank``.
  Independent of task scheduling and of the partition boundaries themselves.
* the boundaries come from a hash-deterministic sample (``hash(url) % m == 0``)
  so two runs at different parallelism produce byte-identical indexes.
* resume: shards whose manifest matches the input fingerprint are skipped;
  their termstats partials are re-emitted from ``terms.parquet`` on disk.
* heavy-hitter terms (Zipf head / stopword-adjacent) need no salting in the
  global stats reduce: each shard build already combined a term to ONE
  partial row, so a term reaches its bucket as at most ``num_shards`` rows
  (``_reduce_termstats``).

Scheduling: the corpus and ``terms.parquet`` reads go through
``pipelines.unreserved``, which turns Ray Data's per-operator resource
reservation off on that dataset's own context. The reservation would give
each of the plan's map operators (extract, ``build_group``,
``reduce_bucket``) one task slot on 4 CPUs, although a sort barrier (the
two groupbys) sits between each of them and the next; with it off the
shard builds run side by side.
"""

from __future__ import annotations

import hashlib
import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from ..functions.analysis import DEFAULT_ANALYZER, AnalyzerConfig
from ..functions.extract import extract_fields
from ..sources.corpus import hash_det
from ..state import index_layout as lay
from ..state.shard import build_shard, read_manifest_terms
from ..state.index_layout import read_manifest, write_stats
from . import unreserved

TERMSTATS_BUCKETS = 64


class ExtractStage:
    """Stateless map_batches body: html → extracted fields + anchor rows.

    Output schema (union of doc rows and anchor rows, narrow strings only —
    the heavy ``html`` binary never crosses the shuffle):
    ``kind ('d'|'a'), url, src, body, title, keywords, anchor``.
    """

    def __init__(self, verify_golden: bool = False):
        self.verify_golden = verify_golden

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        htmls = batch["html"].to_pylist()
        golden = batch["text"].to_pylist() if self.verify_golden else None
        kind, url, src, body, title, kw, anchor = [], [], [], [], [], [], []
        for i, (u, h) in enumerate(zip(urls, htmls)):
            f = extract_fields(h)
            if golden is not None and f["body"] != golden[i]:
                raise ValueError(f"extraction not byte-identical for {u}")
            kind.append("d")
            url.append(u)
            src.append("")
            body.append(f["body"])
            title.append(f["title"])
            kw.append(f["keywords"])
            anchor.append("")
            for href, atext in f["links"]:
                if not atext:
                    continue
                kind.append("a")
                url.append(href)
                src.append(u)
                body.append("")
                title.append("")
                kw.append("")
                anchor.append(atext)
        return pa.table(
            {
                "kind": kind,
                "url": url,
                "src": src,
                "body": body,
                "title": title,
                "keywords": kw,
                "anchor": anchor,
            }
        )


def _deterministic_url_sample(url_ds: ray.data.Dataset, n_total: int, target: int = 100_000):
    """Hash-selected url sample — identical at any parallelism level.
    Returns (sorted sample, exhaustive) where exhaustive means the sample is
    EVERY url (small corpora) — the caller can then derive exact partition
    counts driver-side without another cluster pass."""
    mod = max(1, n_total // target)

    def pick(batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        keep = [u for u in urls if hash_det(u) % mod == 0]
        return pa.table({"url": pa.array(keep, type=pa.string())})

    if mod == 1:
        sample = url_ds
    else:
        sample = url_ds.map_batches(pick, batch_format="pyarrow")
    return sorted(r["url"] for r in sample.take_all()), mod == 1


def _assign_part(boundaries: list[str]):
    bnd = np.array(boundaries, dtype=object)

    def fn(batch: pa.Table) -> pa.Table:
        urls = np.array(batch["url"].to_pylist(), dtype=object)
        part = np.searchsorted(bnd, urls, side="right").astype(np.int64)
        return batch.append_column("part", pa.array(part))

    return fn


class PlainSource:
    """Adapter for indexing a plain text table (no HTML): maps
    ``(id_col, text_col[, title_col, keywords_col, url_field_col,
    inlink_col])`` onto the extract-stage output schema. ``url`` is a
    zero-padded render of the id so url order == id order (docid == id for
    dense 0-based ids).

    ``url_field_col`` / ``inlink_col`` override the text indexed under the
    ``url`` / ``inlink`` FIELDS (by default the url string itself / the
    joined inbound anchors) — a plain table has no anchors, so this is the
    only way for it to exercise the reference's four-field feature surface
    (LearnToRank.java:358-445 scores body/title/url/inlink separately)."""

    def __init__(
        self,
        id_col="doc_id",
        text_col="text",
        title_col=None,
        keywords_col=None,
        url_field_col=None,
        inlink_col=None,
    ):
        self.id_col, self.text_col = id_col, text_col
        self.title_col, self.keywords_col = title_col, keywords_col
        self.url_field_col, self.inlink_col = url_field_col, inlink_col

    def cols_key(self) -> str:
        return ",".join(
            str(c)
            for c in (
                self.id_col, self.text_col, self.title_col,
                self.keywords_col, self.url_field_col, self.inlink_col,
            )
        )

    def url_expr(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_pylist()
        urls = [f"doc{int(i):010d}" for i in ids]
        return batch.append_column("url", pa.array(urls, type=pa.string()))

    def to_doc_rows(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        ids = batch[self.id_col].to_pylist()
        empty = [""] * n
        cols = {
            "kind": ["d"] * n,
            "url": [f"doc{int(i):010d}" for i in ids],
            "src": empty,
            "body": batch[self.text_col].to_pylist(),
            "title": batch[self.title_col].to_pylist() if self.title_col else empty,
            "keywords": batch[self.keywords_col].to_pylist() if self.keywords_col else empty,
            "anchor": empty,
        }
        if self.url_field_col:
            cols["urltext"] = batch[self.url_field_col].to_pylist()
        if self.inlink_col:
            cols["inlinktext"] = batch[self.inlink_col].to_pylist()
        return pa.table(cols)

    @staticmethod
    def docid_from_url(url: str) -> int:
        return int(url[3:])


def _corpus_meta(corpus_paths) -> list[list]:
    """[(abspath, size, mtime)] of every input parquet file — the cheap
    input fingerprint for fast-path resume."""
    paths = [corpus_paths] if isinstance(corpus_paths, str) else list(corpus_paths)
    files: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            files.extend(
                os.path.join(p, f) for f in sorted(os.listdir(p)) if f.endswith(".parquet")
            )
        else:
            files.append(p)
    return [
        # nanosecond mtime: a same-second same-size rewrite must invalidate
        [os.path.abspath(f), os.path.getsize(f), os.stat(f).st_mtime_ns]
        for f in sorted(files)
    ]


def build_index(
    corpus_paths: str | list[str],
    index_dir: str,
    *,
    num_shards: int | None = None,
    analyzer: AnalyzerConfig = DEFAULT_ANALYZER,
    lang_filter: str | None = None,
    include_inlink: bool = True,
    include_forward: bool = True,
    block_size: int = 128,
    verify_golden: bool = False,
    plain_source: "PlainSource | None" = None,
) -> dict:
    """Build (or resume) the sharded index. Returns a build report."""
    t_start = time.monotonic()
    if plain_source is not None:
        include_inlink = False  # plain tables carry no anchors
        verify_golden = False

    # Fast-path resume: when the corpus files (path, size, mtime) and every
    # build parameter match the committed stats.json and all shard manifests
    # exist, the index is already this exact build — skip the whole pipeline.
    # (A genuine partial rebuild still validates per-shard CONTENT
    # fingerprints below, so this is only an early-out, never a correctness
    # shortcut.)
    input_meta = _corpus_meta(corpus_paths)
    config_key = (  # literal arg (None = auto) so the key is computable here
        f"{analyzer.key()};shards={num_shards};bs={block_size};"
        f"lang={lang_filter};inlink={int(include_inlink)};fwd={int(include_forward)};"
        f"plain={plain_source.cols_key() if plain_source is not None else '0'}"
    )
    if os.path.exists(lay.stats_path(index_dir)):
        prev = lay.read_stats(index_dir)
        if (
            prev.get("input_meta") == input_meta
            and prev.get("config_key") == config_key
            and len(lay.list_shards(index_dir)) == prev.get("num_shards")
        ):
            return {
                "n_docs": prev["n_docs"],
                "num_shards": prev["num_shards"],
                "n_term_buckets": prev.get("termstats_buckets", TERMSTATS_BUCKETS),
                "wall_s": round(time.monotonic() - t_start, 3),
                "resumed": True,
                "stats": prev,
            }
        if prev.get("extended_meta"):
            # an extended index holds delta shards this build knows nothing
            # about; a partial rebuild over them would corrupt the layout
            raise ValueError(
                "index_dir holds an extended index (extend_index deltas); "
                "rebuild into a fresh directory or keep extending"
            )

    read_cols = ["url", "lang"]

    # Pass 1 (url column only): boundaries + exact per-partition counts for
    # the global docid prefix sum.
    if plain_source is not None:
        url_ds = ray.data.read_parquet(corpus_paths, columns=[plain_source.id_col])
        n_total = url_ds.count()  # metadata-only on an untransformed read
        url_ds = url_ds.map_batches(plain_source.url_expr, batch_format="pyarrow")
    else:
        url_ds = ray.data.read_parquet(corpus_paths, columns=read_cols)
        if lang_filter:
            url_ds = url_ds.map_batches(
                lambda t, lf=lang_filter: t.filter(pa.compute.equal(t["lang"], lf)),
                batch_format="pyarrow",
            )
            n_total = url_ds.count()  # filter forces a scan
        else:
            n_total = url_ds.count()  # metadata-only
    url_ds = url_ds.select_columns(["url"])
    if n_total == 0:
        raise ValueError("empty corpus after lang filter")
    if num_shards is None:
        # UNCAPPED shard count: per-shard work must stay O(shard), never
        # O(corpus/constant) — the former 512-shard cap made shard size grow
        # linearly past ~10M docs, breaking the SPIMI memory bound at 100×.
        # Size by docs (~20k/shard) AND input bytes (~96 MiB raw parquet per
        # shard ≈ a few hundred MB of heap during the in-task SPIMI build),
        # whichever yields more shards; build_group memory is then bounded
        # regardless of corpus size, and a 1B-doc corpus simply gets ~50k
        # groupby partitions (fine for Ray's hash shuffle).
        total_bytes = sum(m[1] for m in input_meta)
        num_shards = max(
            1, -(-n_total // 20_000), -(-total_bytes // (96 << 20))
        )
    sample, exhaustive = _deterministic_url_sample(url_ds, n_total)
    cuts = [
        sample[int(len(sample) * k / num_shards)]
        for k in range(1, num_shards)
    ]
    if exhaustive:
        # the sorted sample is every url → exact per-partition counts via
        # searchsorted, no second cluster pass
        # _assign_part puts url == boundary into the NEXT partition
        # (searchsorted side="right" over boundaries) → edge = #(url < cut)
        edges = np.searchsorted(
            np.array(sample, dtype=object), np.array(cuts, dtype=object), side="left"
        )
        edges = np.concatenate([[0], edges, [len(sample)]])
        counts = {p: int(edges[p + 1] - edges[p]) for p in range(num_shards)}
    else:
        part_counts_df = (
            url_ds.map_batches(_assign_part(cuts), batch_format="pyarrow")
            .groupby("part")
            .count()
            .to_pandas()
        )
        counts = dict(zip(part_counts_df["part"], part_counts_df["count()"]))
    offsets: dict[int, int] = {}
    acc = 0
    for p in range(num_shards):
        offsets[p] = acc
        acc += int(counts.get(p, 0))

    # Pass 2: extract → partition → per-shard SPIMI build.
    if plain_source is not None:
        cols = [plain_source.id_col, plain_source.text_col]
        for c in (
            plain_source.title_col,
            plain_source.keywords_col,
            plain_source.url_field_col,
            plain_source.inlink_col,
        ):
            if c:
                cols.append(c)
        ds = unreserved(ray.data.read_parquet(corpus_paths, columns=cols))
        ds = ds.map_batches(plain_source.to_doc_rows, batch_format="pyarrow")
    else:
        doc_cols = ["url", "html", "lang"] + (["text"] if verify_golden else [])
        ds = unreserved(ray.data.read_parquet(corpus_paths, columns=doc_cols))
        if lang_filter:
            ds = ds.map_batches(
                lambda t, lf=lang_filter: t.filter(pa.compute.equal(t["lang"], lf)),
                batch_format="pyarrow",
            )
        ds = ds.map_batches(ExtractStage(verify_golden), batch_format="pyarrow")
    ds = ds.map_batches(_assign_part(cuts), batch_format="pyarrow")

    build_group = _make_build_group(
        index_dir,
        offsets,
        analyzer,
        block_size=block_size,
        include_inlink=include_inlink,
        include_forward=include_forward,
    )

    termstats = ds.groupby("part").map_groups(build_group, batch_format="pandas")
    bucket_report = _reduce_termstats(termstats, index_dir)

    n_docs, fields, built_shards = _collect_shard_stats(index_dir)
    stats = {
        "n_docs": n_docs,
        "fields": fields,
        "analyzer": analyzer.key(),
        "num_shards": num_shards,
        "block_size": block_size,
        "termstats_buckets": TERMSTATS_BUCKETS,
        "include_inlink": include_inlink,
        "include_forward": include_forward,
        "input_meta": input_meta,
        "config_key": config_key,
    }
    write_stats(index_dir, stats)
    return {
        "n_docs": n_docs,
        "num_shards": len(built_shards),
        "n_term_buckets": int(len(bucket_report)),
        "wall_s": round(time.monotonic() - t_start, 3),
        "stats": stats,
    }


def _make_build_group(
    index_dir: str,
    offsets: dict[int, int],
    analyzer: AnalyzerConfig,
    *,
    block_size: int,
    include_inlink: bool,
    include_forward: bool,
    shard_of=None,
):
    """Factory for the per-partition SPIMI group builder. ``shard_of`` maps
    the range-partition id to the on-disk shard number (identity for a fresh
    build; base-offset for a delta extend)."""
    analyzer_key = analyzer.key()
    if shard_of is None:
        shard_of = lambda p: p  # noqa: E731

    def build_group(g: pd.DataFrame) -> pd.DataFrame:
        part = int(g["part"].iloc[0])
        docs = g[g["kind"] == "d"].sort_values("url", kind="mergesort")
        docs = docs.drop_duplicates(subset="url", keep="first")
        urls = docs["url"].tolist()
        if not urls:
            return pd.DataFrame({"field": [], "term": [], "df": [], "ctf": []})
        # inlink: inbound anchor text grouped to this partition's target urls,
        # deterministic order (src url, then anchor text)
        inlink_map: dict[str, list[str]] = {}
        if include_inlink:
            anchors = g[g["kind"] == "a"].sort_values(
                ["url", "src", "anchor"], kind="mergesort"
            )
            urlset = set(urls)
            for u, a in zip(anchors["url"], anchors["anchor"]):
                if u in urlset:
                    inlink_map.setdefault(u, []).append(a)

        field_texts = {
            "body": docs["body"].tolist(),
            "title": docs["title"].tolist(),
            "keywords": docs["keywords"].tolist(),
            # plain tables may override the url/inlink FIELD text (see
            # PlainSource url_field_col/inlink_col); HTML rows carry neither
            # column and keep the url string / inbound-anchor semantics
            "url": docs["urltext"].tolist() if "urltext" in docs.columns else urls,
            "inlink": (
                docs["inlinktext"].tolist()
                if "inlinktext" in docs.columns
                else [" ".join(inlink_map.get(u, [])) for u in urls]
            ),
        }
        h = hashlib.sha256()
        # every indexed field participates: a corpus change that alters only
        # <title>/meta-keywords must invalidate the shard (ADVICE r1)
        for u, b, t, kw in zip(
            urls, field_texts["body"], field_texts["title"], field_texts["keywords"]
        ):
            h.update(u.encode())
            h.update(b.encode())
            h.update(b"\x1f")
            h.update(t.encode())
            h.update(b"\x1f")
            h.update(kw.encode())
        if "urltext" in docs.columns or "inlinktext" in docs.columns:
            for ut, il in zip(field_texts["url"], field_texts["inlink"]):
                h.update(b"\x1e")
                h.update(str(ut).encode())
                h.update(b"\x1f")
                h.update(str(il).encode())
        for u in sorted(inlink_map):
            h.update(u.encode())
            for a in inlink_map[u]:
                h.update(a.encode())
        fp = (
            h.hexdigest()
            + f";{analyzer_key};bs={block_size};base={offsets[part]}"
            + f";fwd={int(include_forward)}"
        )

        shard = shard_of(part)
        man = read_manifest(index_dir, shard)
        if man is not None and man.get("fingerprint") == fp:
            ts = read_manifest_terms(index_dir, shard)  # resume: reuse shard
        else:
            ts = build_shard(
                index_dir,
                shard,
                offsets[part],
                urls,
                field_texts,
                analyzer,
                fp,
                block_size=block_size,
                include_forward=include_forward,
            ).to_pandas()
        return ts

    return build_group


def _reduce_termstats(termstats, index_dir: str) -> pd.DataFrame:
    """Global (field, term) df/ctf from per-shard partials. The per-shard
    SPIMI build already combined each term to ONE partial row per shard (the
    classic combiner — the skew/heavy-hitter answer: a Zipf-head term
    contributes ≤ num_shards rows here, never its raw postings). So the
    global reduce needs only ONE shuffle: hash-bucket by term, then a
    vectorized pandas sum inside each bucket task. (The general two-stage
    salted reduce lives in stages/aggregate.py for inputs whose partials
    are per-batch.)"""

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = [hash_det(t) % TERMSTATS_BUCKETS for t in batch["term"].to_pylist()]
        return batch.append_column("bucket", pa.array(b, type=pa.int64()))

    tdir = lay.termstats_dir(index_dir)
    os.makedirs(tdir, exist_ok=True)

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        b = int(g["bucket"].iloc[0])
        out = (
            g.groupby(["field", "term"], as_index=False, sort=False)[["df", "ctf"]]
            .sum()
            .sort_values(["field", "term"], kind="mergesort")
        )
        tmp = os.path.join(tdir, f".bucket={b:04d}.parquet.tmp")
        pq.write_table(pa.Table.from_pandas(out, preserve_index=False), tmp)
        os.replace(tmp, os.path.join(tdir, f"bucket={b:04d}.parquet"))
        return pd.DataFrame({"bucket": [b], "n_terms": [len(out)]})

    return (
        termstats.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(reduce_bucket, batch_format="pandas")
        .to_pandas()
    )


def _collect_shard_stats(index_dir: str):
    """Collection stats summed from every shard manifest on disk
    (stats.json is the commit marker; manifests are the lineage record)."""
    n_docs = 0
    fields: dict[str, dict[str, int]] = {}
    built_shards = lay.list_shards(index_dir)
    for s in built_shards:
        man = read_manifest(index_dir, s)
        n_docs += man["n_docs"]
        for f, fs in man["fields"].items():
            agg = fields.setdefault(f, {"sum_doclen": 0, "doccount": 0})
            agg["sum_doclen"] += fs["sum_doclen"]
            agg["doccount"] += fs["doccount"]
    return n_docs, fields, built_shards


def extend_index(
    corpus_paths: str | list[str],
    index_dir: str,
    *,
    num_shards: int | None = None,
    lang_filter: str | None = None,
    analyzer: AnalyzerConfig = DEFAULT_ANALYZER,
    verify_golden: bool = False,
    plain_source: "PlainSource | None" = None,
) -> dict:
    """Incremental (delta) index append: add a new corpus to a COMMITTED
    index as fresh shards, without touching the existing ones.

    Scale rationale — at a 10¹²-doc corpus a daily crawl delta is ~0.1% of
    the index; a full rebuild is a non-starter. The sharded layout makes
    append natural:

    * new docs build into NEW shards (ids continue after the existing
      ones), docids continue after ``stats.n_docs`` — old postings are
      never rewritten;
    * global collection stats (doccount / sum_doclen per field) are
      re-summed from ALL shard manifests (they were always derived that
      way, so the update is exact);
    * global (field, term) df/ctf is RECOMPUTED from every shard's
      persisted ``terms.parquet`` (one partial row per term per shard) —
      O(vocab·shards) work, not O(corpus), and idempotent: re-running a
      crashed extend converges because shard fingerprints resume and the
      reduce is a pure function of the on-disk shards.

    Query-time scores over the extended index equal a from-scratch build
    over the concatenated corpus (BM25/Indri depend on global stats and
    per-doc postings, not shard boundaries) — that equality is the unit
    test's oracle. Analyzer and layout parameters are pinned by the
    existing ``stats.json``; a mismatched analyzer raises.

    Assumes delta ids/urls are disjoint from the base corpus (the standard
    append contract; duplicate urls would get two docids — run the dedup
    stage upstream if the crawl can re-fetch).

    Two documented divergences from a full rebuild:

    * docids continue in APPEND order: a full rebuild assigns global url
      rank, so if delta urls interleave with base urls the two builds give
      different docids (scores and per-url postings are unaffected — and
      for ``PlainSource`` tables, whose urls render the dense id, append
      order IS url order and the builds are byte-identical);
    * HTML inbound anchors crossing the base/delta boundary are not merged
      (that would rewrite committed base shards); anchors within the delta
      work normally. Equivalent to the standard "link graph refreshed on
      major rebuilds" contract.
    """
    t_start = time.monotonic()
    prev = lay.read_stats(index_dir)
    if analyzer.key() != prev["analyzer"]:
        raise ValueError(
            f"analyzer mismatch: index built with {prev['analyzer']!r}, "
            f"extend called with {analyzer.key()!r}"
        )
    block_size = prev["block_size"]
    include_forward = prev["include_forward"]
    include_inlink = prev["include_inlink"] and plain_source is None
    if plain_source is not None:
        verify_golden = False

    delta_meta = _corpus_meta(corpus_paths)
    extended = list(prev.get("extended_meta", []))
    if delta_meta in extended:
        return {
            "n_docs": prev["n_docs"],
            "num_shards": prev["num_shards"],
            "new_shards": 0,
            "wall_s": round(time.monotonic() - t_start, 3),
            "resumed": True,
            "stats": prev,
        }

    base_docs = prev["n_docs"]
    shard_base = (max(lay.list_shards(index_dir)) + 1) if lay.list_shards(index_dir) else 0

    # Pass 1 over the DELTA only: boundaries + per-partition counts (same
    # deterministic machinery as the fresh build, scoped to the new docs).
    if plain_source is not None:
        url_ds = ray.data.read_parquet(corpus_paths, columns=[plain_source.id_col])
        n_total = url_ds.count()
        url_ds = url_ds.map_batches(plain_source.url_expr, batch_format="pyarrow")
    else:
        url_ds = ray.data.read_parquet(corpus_paths, columns=["url", "lang"])
        if lang_filter:
            url_ds = url_ds.map_batches(
                lambda t, lf=lang_filter: t.filter(pa.compute.equal(t["lang"], lf)),
                batch_format="pyarrow",
            )
        n_total = url_ds.count()
    url_ds = url_ds.select_columns(["url"])
    if n_total == 0:
        raise ValueError("empty delta corpus after lang filter")
    if num_shards is None:
        total_bytes = sum(m[1] for m in delta_meta)
        num_shards = max(1, -(-n_total // 20_000), -(-total_bytes // (96 << 20)))
    sample, exhaustive = _deterministic_url_sample(url_ds, n_total)
    cuts = [sample[int(len(sample) * k / num_shards)] for k in range(1, num_shards)]
    if exhaustive:
        edges = np.searchsorted(
            np.array(sample, dtype=object), np.array(cuts, dtype=object), side="left"
        )
        edges = np.concatenate([[0], edges, [len(sample)]])
        counts = {p: int(edges[p + 1] - edges[p]) for p in range(num_shards)}
    else:
        part_counts_df = (
            url_ds.map_batches(_assign_part(cuts), batch_format="pyarrow")
            .groupby("part")
            .count()
            .to_pandas()
        )
        counts = dict(zip(part_counts_df["part"], part_counts_df["count()"]))
    offsets: dict[int, int] = {}
    acc = base_docs  # delta docids continue after the existing corpus
    for p in range(num_shards):
        offsets[p] = acc
        acc += int(counts.get(p, 0))

    # Pass 2: extract → partition → per-shard SPIMI build into NEW shards.
    if plain_source is not None:
        cols = [plain_source.id_col, plain_source.text_col]
        for c in (
            plain_source.title_col,
            plain_source.keywords_col,
            plain_source.url_field_col,
            plain_source.inlink_col,
        ):
            if c:
                cols.append(c)
        ds = unreserved(ray.data.read_parquet(corpus_paths, columns=cols))
        ds = ds.map_batches(plain_source.to_doc_rows, batch_format="pyarrow")
    else:
        doc_cols = ["url", "html", "lang"] + (["text"] if verify_golden else [])
        ds = unreserved(ray.data.read_parquet(corpus_paths, columns=doc_cols))
        if lang_filter:
            ds = ds.map_batches(
                lambda t, lf=lang_filter: t.filter(pa.compute.equal(t["lang"], lf)),
                batch_format="pyarrow",
            )
        ds = ds.map_batches(ExtractStage(verify_golden), batch_format="pyarrow")
    ds = ds.map_batches(_assign_part(cuts), batch_format="pyarrow")

    build_group = _make_build_group(
        index_dir,
        offsets,
        analyzer,
        block_size=block_size,
        include_inlink=include_inlink,
        include_forward=include_forward,
        shard_of=lambda p, base=shard_base: base + p,
    )
    # drive the delta build; its partials are NOT the global reduce input
    # (that must cover every shard), so only consume for effects
    ds.groupby("part").map_groups(build_group, batch_format="pandas").count()

    # Idempotent global termstats: re-reduce from EVERY shard's persisted
    # per-shard combiner output.
    term_paths = [
        os.path.join(lay.shard_dir(index_dir, s), "terms.parquet")
        for s in lay.list_shards(index_dir)
    ]
    all_terms = unreserved(
        ray.data.read_parquet(term_paths, columns=["field", "term", "df", "ctf"])
    )
    bucket_report = _reduce_termstats(all_terms, index_dir)

    n_docs, fields, built_shards = _collect_shard_stats(index_dir)
    extended.append(delta_meta)
    stats = dict(prev)
    stats.update(
        {
            "n_docs": n_docs,
            "fields": fields,
            "num_shards": len(built_shards),
            "extended_meta": extended,
            # any config_key computed by build_index() can never match an
            # extended index — its fast path falls through to the explicit
            # extended-index guard instead of claiming a resume
            "config_key": prev["config_key"] + f";ext={len(extended)}",
        }
    )
    write_stats(index_dir, stats)
    return {
        "n_docs": n_docs,
        "num_shards": len(built_shards),
        "new_shards": num_shards,
        "n_term_buckets": int(len(bucket_report)),
        "wall_s": round(time.monotonic() - t_start, 3),
        "stats": stats,
    }
