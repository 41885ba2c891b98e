"""Distributed query execution over mmap'd index shards.

One execution path: :class:`QueryService` — raw Ray actors, each holding a
fixed group of shards loaded once, one RPC per query batch (the distributed
analog of the reference's static ``READER``; the one place we drop below
the Dataset API, as SURVEY.md §0 allows for a shared long-lived index).
The one-shot functions :func:`run_queries`, :func:`run_il_queries` and
:func:`score_documents` here, and ``bm25f_topk`` (``query/bm25f.py``) and
``passage_bm25_topk`` (``query/passage.py``) through
``_ServiceWorker.map_shards``, plan on the driver, start a service for the
call and shut it down before returning; callers with many calls over one
index keep one service open instead.

Shape (SURVEY.md §3.1): driver parses queries and resolves **global**
term stats from the build-time ``termstats`` store; queries whose scored
leaves are composite (#NEAR/#WINDOW/#SYN under #SCORE) get a cross-shard
(df, ctf) pre-pass; every shard then scores with global stats, returns its
local top-k (docid tie-break == url tie-break since docid is the global url
rank), and the driver's merge of k·S tiny rows is exact.
"""

from __future__ import annotations

import os
from collections import OrderedDict

import numpy as np
import pandas as pd

from ..functions.analysis import config_from_key
from ..state.index_layout import list_shards, load_tombstones, read_stats
from ..state.shard import ShardReader
from .ast import Term, iter_score_nodes
from .kernels import Evaluator, _member_mask
from .models import ModelParams


class ShardView:
    """Index-view adapter: ShardReader postings/doclens + GLOBAL collection
    stats (stats.json) so shard-local scores are globally comparable."""

    def __init__(self, reader: ShardReader, stats: dict):
        self.reader = reader
        self.n_docs = int(stats["n_docs"])
        self._fields = stats["fields"]

    def get_postings(self, field, term):
        d, t, po, pf, _, _ = self.reader.get_postings(field, term)
        return d, t, po, pf

    def doclen(self, field, docids):
        return self.reader.doclen(field, docids)

    def sum_doclen(self, field):
        return int(self._fields.get(field, {}).get("sum_doclen", 0))

    def doccount(self, field):
        return int(self._fields.get(field, {}).get("doccount", 0))


class _ShardCache:
    def __init__(self, index_dir: str):
        self.index_dir = index_dir
        self.stats = read_stats(index_dir)
        # delete list (state/index_layout.py write_tombstones), loaded once
        # per worker like every other index artifact; sorted int64
        self.tombstones = load_tombstones(index_dir)
        self._readers: dict[int, ShardReader] = {}
        # worker-held composite inverted-list cache (see Evaluator.il_cache):
        # the stats prepass populates it, the scoring pass reuses it — one
        # positional evaluation per (query, shard) instead of two
        self.il_cache: dict = {}

    def view(self, shard: int) -> ShardView:
        r = self._readers.get(shard)
        if r is None:
            r = self._readers[shard] = ShardReader(self.index_dir, shard)
        return ShardView(r, self.stats)


# ---------------------------------------------------------------------------
# evaluation core (run by the service workers)
# ---------------------------------------------------------------------------


def stats_prepass_rows(cache: _ShardCache, queries: dict, pairs) -> pd.DataFrame:
    """Per (qid, shard): local (df, ctf) of every composite scored leaf
    (the reference reads them off the evaluated list, QryopSlScore.java:95,136
    — distributed they must be summed across shards before scoring)."""
    out = {"qid": [], "score_id": [], "df": [], "ctf": []}
    for qid, shard in pairs:
        qtree, params = queries[qid][0], queries[qid][1]
        ev = Evaluator(
            cache.view(int(shard)), params,
            il_cache=cache.il_cache, il_cache_key=int(shard),
        )
        for sn in iter_score_nodes(qtree):
            if isinstance(sn.child, Term):
                continue
            try:
                inv = ev.eval_il_cached(sn.child)
            except ValueError:
                # semantically invalid subtree (e.g. mixed-field #NEAR) —
                # per-query isolation: this query yields nothing rather than
                # killing the whole distributed batch (the reference
                # fatalErrors the process here, QryEval.fatalError)
                continue
            out["qid"].append(qid)
            out["score_id"].append(sn.score_id)
            out["df"].append(inv.df)
            out["ctf"].append(inv.ctf)
    return pd.DataFrame(out)


_EMPTY_I64 = np.empty(0, dtype=np.int64)


def exec_rows(
    cache: _ShardCache, queries: dict, pairs, k: int, allowed: dict | None = None
) -> pd.DataFrame:
    """Per (qid, shard): evaluate the full tree, emit shard-local top-k.
    Flat BM25 #SUM queries take the block-max pruned path (rank-identical,
    see query/blockmax.py); everything else evaluates exhaustively.
    ``allowed`` (shard → sorted docid array) is a query-time INCLUSION
    filter (Lucene filter-query / liveDocs-complement semantics): scores
    keep global collection stats, non-members drop before the top-k cut,
    and a shard absent from the dict matches nothing."""
    from .blockmax import try_blockmax_bm25

    out = {"qid": [], "docid": [], "url": [], "score": []}
    tomb = cache.tombstones
    for qid, shard in pairs:
        qtree, params, score_stats = queries[qid]
        view = cache.view(int(shard))
        aset = None if allowed is None else allowed.get(int(shard), _EMPTY_I64)
        # tombstoned index: the block-max pruned path doesn't know deletes —
        # evaluate exhaustively and filter before the top-k cut (scores keep
        # the PRE-delete collection stats, Lucene liveDocs semantics; a
        # compaction reclaims both the postings and the stats). The same
        # applies to an inclusion filter.
        bm = (
            None
            if len(tomb) or aset is not None
            else try_blockmax_bm25(view, qtree, params, score_stats, k)
        )
        if bm is not None:
            docids, scores = bm
            if len(docids) == 0:
                continue
            urls = view.reader.url_of(docids)
            out["qid"].extend([qid] * len(docids))
            out["docid"].extend(int(d) for d in docids)
            out["url"].extend(urls)
            out["score"].extend(float(s) for s in scores)
            continue
        ev = Evaluator(
            view, params, score_stats,
            il_cache=cache.il_cache, il_cache_key=int(shard),
        )
        try:
            res = ev.evaluate(qtree)
        except ValueError:
            continue  # invalid query → [] (per-query isolation; see prepass)
        if len(res.docids) == 0:
            continue
        res_docids, res_scores = res.docids, res.scores
        if aset is not None:
            keep = _member_mask(aset, res_docids)
            res_docids, res_scores = res_docids[keep], res_scores[keep]
            if len(res_docids) == 0:
                continue
        if len(tomb):
            keep = ~_member_mask(tomb, res_docids)
            res_docids, res_scores = res_docids[keep], res_scores[keep]
            if len(res_docids) == 0:
                continue
        if params.is_ranked:
            order = np.lexsort((res_docids, -res_scores))[:k]
        else:
            order = np.argsort(res_docids)[:k]
        docids = res_docids[order]
        urls = view.reader.url_of(docids)
        out["qid"].extend([qid] * len(docids))
        out["docid"].extend(int(d) for d in docids)
        out["url"].extend(urls)
        out["score"].extend(float(s) for s in res_scores[order])
    return pd.DataFrame(out)


def il_rows(cache: _ShardCache, queries: dict, pairs) -> pd.DataFrame:
    """Per (qid, shard): evaluate a raw inverted-list query (Il root) →
    per-doc tf rows (the reference's 'output inverted list' path)."""
    out = {"qid": [], "docid": [], "url": [], "tf": []}
    for qid, shard in pairs:
        tree, params = queries[qid]
        view = cache.view(int(shard))
        try:
            inv = Evaluator(view, params).eval_il(tree)
        except ValueError:
            continue  # per-query isolation (see exec_rows)
        docids, tfs = inv.docids, inv.tfs
        if len(cache.tombstones):
            keep = ~_member_mask(cache.tombstones, docids)
            docids, tfs = docids[keep], tfs[keep]
        if not len(docids):
            continue
        urls = view.reader.url_of(docids)
        out["qid"].extend([qid] * len(docids))
        out["docid"].extend(int(d) for d in docids)
        out["url"].extend(urls)
        out["tf"].extend(int(t) for t in tfs)
    return pd.DataFrame(
        {
            "qid": pd.Series(out["qid"], dtype="object"),
            "docid": pd.Series(out["docid"], dtype="int64"),
            "url": pd.Series(out["url"], dtype="object"),
            "tf": pd.Series(out["tf"], dtype="int64"),
        }
    )


def score_docs_rows(cache: _ShardCache, queries: dict, pairs) -> pd.DataFrame:
    """Per (qid, shard): evaluate and emit scores for a REQUESTED docid set
    only — no top-k truncation. The LeToR feature extractor needs this: the
    reference keeps the full ScoreList per ranking and probes judged docs
    against it (LearnToRank.java:209-256, buildMap :598-606)."""
    out = {"qid": [], "docid": [], "score": []}
    for qid, shard in pairs:
        qtree, params, stats, want = queries[qid]
        view = cache.view(int(shard))
        lo = view.reader.docid_base
        hi = lo + view.reader.n_docs
        w = np.asarray(want, dtype=np.int64)
        w = w[(w >= lo) & (w < hi)]
        if not len(w):
            continue
        ev = Evaluator(
            view, params, stats,
            il_cache=cache.il_cache, il_cache_key=int(shard),
        )
        try:
            res = ev.evaluate(qtree)
        except ValueError:
            continue  # invalid query → no rows (per-query isolation)
        mask = np.isin(res.docids, w)
        out["qid"].extend([qid] * int(mask.sum()))
        out["docid"].extend(int(d) for d in res.docids[mask])
        out["score"].extend(float(s) for s in res.scores[mask])
    return pd.DataFrame(
        {
            "qid": pd.Series(out["qid"], dtype="object"),
            "docid": pd.Series(out["docid"], dtype="int64"),
            "score": pd.Series(out["score"], dtype="float64"),
        }
    )

# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------


# bucket-file LRU: planning happens per query batch on the driver; repeated
# queries re-read the same handful of termstats buckets, so memoize each
# parsed bucket keyed by (path, mtime) — invalidated automatically on rebuild
_BUCKET_CACHE: "OrderedDict[tuple[str, float], dict]" = OrderedDict()
_BUCKET_CACHE_MAX = 256


def _bucket_stats(path: str) -> tuple:
    """One termstats bucket → ``(sorted composite keys, df, ctf)`` arrays.
    Arrow-native build (binary join + C sort, ~4 ms on a 34k-row bucket)
    instead of a Python ``(field, term) → (df, ctf)`` dict (~70 ms of
    to_pylist + tuple-key hashing) — the dict build was the measured
    novel-term query cold cost (250 ms/query on a 2M-doc index, 3 buckets
    per query). Keys join field and term with NUL; UTF-8 byte order equals
    code-point order, so arrow's sort agrees with numpy's searchsorted
    comparisons on the Python-str view."""
    import pyarrow as _pa
    import pyarrow.compute as _pc
    import pyarrow.parquet as _pq

    key = (path, os.path.getmtime(path))
    hit = _BUCKET_CACHE.get(key)
    if hit is not None:
        _BUCKET_CACHE.move_to_end(key)
        return hit
    tab = _pq.read_table(path)
    k = _pc.binary_join_element_wise(
        tab["field"].cast(_pa.string()), tab["term"].cast(_pa.string()), "\x00"
    )
    order = _pc.sort_indices(k)
    out = (
        k.take(order).to_numpy(zero_copy_only=False),
        tab["df"].take(order).to_numpy(),
        tab["ctf"].take(order).to_numpy(),
    )
    _BUCKET_CACHE[key] = out
    while len(_BUCKET_CACHE) > _BUCKET_CACHE_MAX:
        _BUCKET_CACHE.popitem(last=False)
    return out


def load_term_stats(index_dir: str, terms: set[tuple[str, str]]) -> dict:
    """Global (df, ctf) for the given (field, term) pairs from the
    hash-bucketed termstats store — reads (and memoizes) only the needed
    buckets (cheap at any vocabulary size)."""
    from ..sources.corpus import hash_det
    from ..state.index_layout import termstats_dir

    stats = read_stats(index_dir)
    nb = int(stats.get("termstats_buckets", 64))
    buckets = {hash_det(term) % nb for _, term in terms}
    out: dict[tuple[str, str], tuple[int, int]] = {}
    import bisect

    for b in buckets:
        path = os.path.join(termstats_dir(index_dir), f"bucket={b:04d}.parquet")
        if not os.path.exists(path):
            continue
        karr, dfv, ctfv = _bucket_stats(path)
        if not len(karr):
            continue
        for key in terms:
            wkey = key[0] + "\x00" + key[1]
            i = bisect.bisect_left(karr, wkey)
            if i < len(karr) and karr[i] == wkey:
                out[key] = (int(dfv[i]), int(ctfv[i]))
    return out


def resolve_analyzer(index_dir: str):
    return config_from_key(read_stats(index_dir)["analyzer"])


def plan_queries(index_dir: str, queries, params: ModelParams):
    """Parse + resolve Term-leaf global stats → (trees, score_stats,
    composite_qids)."""
    from .parser import parse_query

    from .ast import WEIGHTED_TYPES

    def _weights_valid(node) -> bool:
        # the reference fatalErrors on a weight/arg mismatch at evaluate time
        # (QryopSlWand.java:57-58); we reject at plan time so one bad query
        # maps to [] instead of killing the whole distributed batch
        if isinstance(node, WEIGHTED_TYPES):
            if len(node.args) != len(node.weights):
                return False
            if sum(node.weights) == 0:  # '#WAND(0 a 0 b)' would divide by 0
                return False
        return all(_weights_valid(a) for a in getattr(node, "args", []))

    analyzer = resolve_analyzer(index_dir)
    trees: dict[str, object] = {}
    for qid, qtext in queries:
        t = parse_query(qtext, params.model, analyzer)
        if t is not None and _weights_valid(t):
            trees[qid] = t

    need_terms: set[tuple[str, str]] = set()
    composite_qids = []
    for qid, t in trees.items():
        has_composite = False
        for sn in iter_score_nodes(t):
            if isinstance(sn.child, Term):
                need_terms.add((sn.child.fieldname, sn.child.term))
            else:
                has_composite = True
        if has_composite:
            composite_qids.append(qid)
    term_stats = load_term_stats(index_dir, need_terms)

    score_stats: dict[str, dict[int, tuple[int, int]]] = {q: {} for q in trees}
    for qid, t in trees.items():
        for sn in iter_score_nodes(t):
            if isinstance(sn.child, Term):
                score_stats[qid][sn.score_id] = term_stats.get(
                    (sn.child.fieldname, sn.child.term), (0, 0)
                )
    return trees, score_stats, composite_qids


def apply_prepass(score_stats: dict, pre: pd.DataFrame) -> None:
    if len(pre):
        agg = pre.groupby(["qid", "score_id"], as_index=False)[["df", "ctf"]].sum()
        for r in agg.itertuples():
            score_stats[r.qid][int(r.score_id)] = (int(r.df), int(r.ctf))


def merge_results(
    rows: pd.DataFrame, queries, params: ModelParams, k: int
) -> dict[str, list[tuple[str, float, int]]]:
    """Final per-query merge: ranked → (score desc, docid asc) == (score desc,
    url asc); unranked → docid asc (QryEval.java:323-412)."""
    results: dict[str, list[tuple[str, float, int]]] = {qid: [] for qid, _ in queries}
    if len(rows):
        for qid, g in rows.groupby("qid"):
            if params.is_ranked:
                g = g.sort_values(
                    ["score", "docid"], ascending=[False, True], kind="mergesort"
                )
            else:
                g = g.sort_values("docid", kind="mergesort")
            g = g.head(k)
            results[str(qid)] = list(
                zip(g["url"], g["score"].astype(float), g["docid"].astype(int))
            )
    return results


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------


def _collect_term_keys(node) -> list[str]:
    """Every ``field:term`` leaf under ``node`` — the probe set for Bloom
    fan-out routing. Iterative walk over args/child (any operator shape)."""
    out: list[str] = []
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, Term):
            out.append(f"{n.fieldname}:{n.term}")
            continue
        child = getattr(n, "child", None)
        if child is not None:
            stack.append(child)
        stack.extend(getattr(n, "args", None) or [])
    return out


# (queries, shard_tasks_full, shard_tasks_routed) of the last query batch
# a QueryService ran — BASELINE/bench instrumentation for the fan-out drop
LAST_ROUTE_STATS: dict[str, int] = {}


def _bloom_route_map(index_dir: str, shards: list[int], trees: dict):
    """qid → shard sublist via the per-shard term Bloom sidecars
    (state/bloom.py). A shard whose filter rejects EVERY term of a query
    cannot produce a candidate for it (no false negatives), so the routed
    fan-out is provably identical to querying every shard. Returns None
    (route nothing) when any sidecar is unavailable."""
    from ..state.bloom import key_hashes, load_shard_bloom, probe_hashed
    from ..state.index_layout import shard_dir

    try:
        blooms = {s: load_shard_bloom(shard_dir(index_dir, s)) for s in shards}
    except (OSError, ValueError):
        return None
    # md5 pair computed ONCE per distinct key (bits-independent), reused
    # across every shard probe — routing cost is O(keys + shards·keys bit
    # tests), not O(shards·keys md5 calls)
    hcache: dict[str, tuple[int, int]] = {}
    route = {}
    for qid, tree in trees.items():
        keys = _collect_term_keys(tree)
        hs = [hcache.setdefault(key, key_hashes(key)) for key in keys]
        route[qid] = (
            [s for s in shards if any(probe_hashed(blooms[s], h) for h in hs)]
            if hs
            else list(shards)
        )
    return route


# ---------------------------------------------------------------------------
# the query service
# ---------------------------------------------------------------------------


class _ServiceWorker:
    """One worker serving a fixed group of shards (loaded once)."""

    def __init__(self, index_dir: str, shards: list[int]):
        self.cache = _ShardCache(index_dir)
        self.shards = shards
        for s in shards:  # eager load: mmap + term dict once
            self.cache.view(s)

    def ping(self) -> bool:
        return True

    def warmup(self) -> int:
        """Prefault every shard's postings mmap (one byte per 4 KiB page
        forces the read) so first-query latency matches steady state —
        the cold round otherwise pays the page-in cost of every posting
        list it touches (measured 8-20× p50 on a freshly-opened 2M-doc
        index). Term dict / doclens / docmap are already eager-loaded in
        ``__init__``. Returns bytes made resident."""
        total = 0
        for s in self.shards:
            p = self.cache.view(s).reader.postings
            if p.nbytes:
                int(np.asarray(p[::4096], dtype=np.int64).sum())  # touch
                total += int(p.nbytes)
        return total

    def _pairs(self, queries: dict, routes: "dict | None") -> list:
        """(qid, shard) work pairs, optionally Bloom-routed: ``routes``
        maps qid → shard subset proven sufficient by the term sidecars
        (a skipped shard is a true negative, so results are unchanged)."""
        return [
            (q, s)
            for q in queries
            for s in self.shards
            if routes is None or s in routes.get(q, self.shards)
        ]

    def prepass(self, queries: dict, routes: "dict | None" = None) -> pd.DataFrame:
        return stats_prepass_rows(self.cache, queries, self._pairs(queries, routes))

    def execute(
        self, queries: dict, k: int, routes: "dict | None" = None, filter_ef=None
    ) -> pd.DataFrame:
        """``filter_ef`` (shard → Elias-Fano docid set, functions/ef.py;
        ~2 bytes/member crosses the wire instead of int64s) is decoded once
        per call, for this worker's shards only."""
        allowed = None
        if filter_ef is not None:
            from ..functions.ef import ef_decode

            allowed = {s: ef_decode(filter_ef[s])[0] for s in self.shards if s in filter_ef}
        return exec_rows(self.cache, queries, self._pairs(queries, routes), k, allowed)

    def il(self, queries: dict) -> pd.DataFrame:
        return il_rows(self.cache, queries, self._pairs(queries, None))

    def score(self, queries: dict) -> pd.DataFrame:
        return score_docs_rows(self.cache, queries, self._pairs(queries, None))

    def map_shards(self, fn, *args) -> pd.DataFrame:
        """``fn(cache, shards, *args)`` over this worker's shard group — the
        hook for per-shard passes defined outside this module
        (``query/bm25f.py``, ``query/passage.py``)."""
        return fn(self.cache, self.shards, *args)


class QueryService:
    """Query serving over an index: ``num_actors`` raw Ray actors, shards
    assigned round-robin, index state loaded exactly once per actor (the
    distributed analog of the reference's static ``READER``). Each worker
    pins one CPU; ``num_actors=None`` starts ``min(8, shards, CPUs − 1)``
    workers, leaving a CPU of the cluster for the tasks that run beside
    the service. A context manager: ``with`` shuts the workers down."""

    def __init__(
        self, index_dir: str, num_actors: int | None = None, route: bool = True
    ):
        import ray

        shards = list_shards(index_dir)
        if not shards:
            raise ValueError(f"no shards in {index_dir}")
        if num_actors is None:
            num_actors = min(8, int(ray.cluster_resources().get("CPU", 1)) - 1)
        n = max(1, min(num_actors, len(shards)))
        groups = [shards[i::n] for i in range(n)]
        worker_cls = ray.remote(num_cpus=1)(_ServiceWorker)
        self.workers = [worker_cls.remote(index_dir, g) for g in groups]
        self.groups = groups
        self.shards = shards
        self.index_dir = index_dir
        self.route = route
        try:
            ray.get([w.ping.remote() for w in self.workers])  # block until loaded
        except BaseException:
            self.shutdown()
            raise

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def _gather(self, method: str, *args, workers=None) -> pd.DataFrame:
        """Call ``method`` on every worker (or on ``workers``) and
        concatenate the row frames."""
        import ray

        ws = self.workers if workers is None else workers
        outs = ray.get([getattr(w, method).remote(*args) for w in ws])
        return pd.concat(outs, ignore_index=True) if outs else pd.DataFrame()

    def warmup(self) -> int:
        """Prefault all postings mmaps across the workers (in parallel) so
        the first real query runs at steady-state latency. Optional — state
        is correct without it; this trades one sequential scan of each
        shard's postings.bin for a flat latency profile. Returns total
        bytes made resident."""
        import ray

        nbytes = int(sum(ray.get([w.warmup.remote() for w in self.workers])))
        # absorb first-RPC costs (worker-side imports, method setup) so the
        # first REAL query doesn't pay them either
        ray.get([w.execute.remote({}, 1) for w in self.workers])
        # driver side: pre-load every termstats bucket — novel-term plans
        # otherwise pay a disk-cold ~40 ms parquet read per bucket (≤64
        # small files, one sweep caches them all)
        from ..state.index_layout import termstats_dir

        tdir = termstats_dir(self.index_dir)
        if os.path.isdir(tdir):
            for name in sorted(os.listdir(tdir)):
                if name.startswith("bucket=") and name.endswith(".parquet"):
                    path = os.path.join(tdir, name)
                    _bucket_stats(path)
                    nbytes += os.path.getsize(path)
        return nbytes

    def run(
        self, queries: list[tuple[str, str]], params: ModelParams, k: int = 100
    ) -> dict[str, list[tuple[str, float, int]]]:
        """Same contract as :func:`run_queries`, over this service."""
        return self._run(plan_queries(self.index_dir, queries, params), queries, params, k)

    def _run(self, plan, queries, params: ModelParams, k: int, filter_ef=None):
        trees, score_stats, composite_qids = plan
        if not trees:
            return {qid: [] for qid, _ in queries}
        # qid → shards via the term-Bloom sidecars; None = every shard
        routes = _bloom_route_map(self.index_dir, self.shards, trees) if self.route else None
        LAST_ROUTE_STATS.clear()
        LAST_ROUTE_STATS.update(
            {
                "queries": len(trees),
                "shard_tasks_full": len(self.shards) * len(trees),
                "shard_tasks_routed": sum(
                    len(self.shards) if routes is None else len(routes[q]) for q in trees
                ),
            }
        )
        # only the workers holding a routed shard get an RPC; none at all
        # when every query routes nowhere (≡ the full fan-out's zero rows)
        live = [
            w
            for w, g in zip(self.workers, self.groups)
            if routes is None or any(s in r for s in g for r in routes.values())
        ]
        if composite_qids:
            payload = {q: (trees[q], params) for q in composite_qids}
            apply_prepass(score_stats, self._gather("prepass", payload, routes, workers=live))
        payload = {q: (trees[q], params, score_stats[q]) for q in trees}
        rows = self._gather("execute", payload, k, routes, filter_ef, workers=live)
        return merge_results(rows, queries, params, k)

    def score_documents(
        self,
        queries: list[tuple[str, str]],
        params: ModelParams,
        want: dict[str, list[int]],
    ) -> pd.DataFrame:
        """Same contract as the one-shot :func:`score_documents`, over this
        service."""
        return self._score(plan_queries(self.index_dir, queries, params), params, want)

    def _score(self, plan, params: ModelParams, want: dict) -> pd.DataFrame:
        trees, score_stats, composite_qids = plan
        if composite_qids:
            payload = {q: (trees[q], params) for q in composite_qids}
            apply_prepass(score_stats, self._gather("prepass", payload))
        payload = {
            q: (trees[q], params, score_stats[q], sorted(want[q]))
            for q in trees
            if want.get(q)
        }
        if not payload:
            return pd.DataFrame({"qid": [], "docid": [], "score": []})
        return self._gather("score", payload)

    def shutdown(self):
        import ray

        for w in self.workers:
            ray.kill(w)
        self.workers = []


# ---------------------------------------------------------------------------
# one-shot calls: plan on the driver, run on a service started for the call
# ---------------------------------------------------------------------------


def run_queries(
    index_dir: str,
    queries: list[tuple[str, str]],
    params: ModelParams,
    *,
    k: int = 100,
    filter_ef: "dict[int, bytes] | None" = None,
    route: bool = True,
) -> dict[str, list[tuple[str, float, int]]]:
    """Run ``[(qid, qtext)]`` against the index; returns
    ``qid → [(url, score, docid)]`` top-k in final rank order.
    Queries that fail to parse or match nothing map to ``[]``; when no
    query is valid, no worker starts.
    ``filter_ef`` (shard → Elias-Fano bytes from query/filtered.py)
    restricts the ranking to an allowed docid set at query time; global
    collection stats are unchanged (Lucene filter-query semantics).
    ``route`` (default ON) skips shards whose term-Bloom sidecar proves
    they hold none of a query's terms — result-identical by construction
    (VERDICT r3 #9), with the fan-out drop recorded in
    :data:`LAST_ROUTE_STATS`."""
    plan = plan_queries(index_dir, queries, params)
    if not plan[0]:
        return {qid: [] for qid, _ in queries}
    with QueryService(index_dir, route=route) as svc:
        return svc._run(plan, queries, params, k, filter_ef)


def run_il_queries(
    index_dir: str,
    queries: list[tuple[str, str]],
    *,
    ranked: bool = True,
    k: int = 100,
) -> dict[str, list[tuple[str, float, int]]]:
    """Il-root result emission (QryEval.java:295-314, sortResult:323-345,
    postingComparator{Rk,Urk}): when the query root is an inverted-list op,
    the reference emits the InvList itself — ranked models score each doc
    by tf sorted (tf desc, extid asc); unranked models score 1.0 sorted
    extid asc; output capped at min(k, 100) exactly as the reference's
    ``Math.min(100, …)`` bound. Returns ``qid → [(url, score, docid)]``."""
    from .parser import parse_il_query

    params = ModelParams(model="RankedBoolean" if ranked else "UnrankedBoolean")
    analyzer = resolve_analyzer(index_dir)
    trees = {}
    for qid, qtext in queries:
        t = parse_il_query(qtext, analyzer)
        if t is not None:
            trees[qid] = (t, params)
    results: dict[str, list[tuple[str, float, int]]] = {qid: [] for qid, _ in queries}
    if not trees:
        return results
    with QueryService(index_dir) as svc:
        rows = svc._gather("il", trees)
    bound = min(k, 100)  # the reference's hard 100-row cap
    for qid, g in rows.groupby("qid"):
        if ranked:
            g = g.sort_values(["tf", "url"], ascending=[False, True], kind="mergesort")
            scores = g["tf"].astype(float)
        else:
            g = g.sort_values("url", kind="mergesort")
            scores = pd.Series(1.0, index=g.index)
        g = g.head(bound)
        results[str(qid)] = list(
            zip(g["url"], scores.loc[g.index], g["docid"].astype(int))
        )
    return results


def score_documents(
    index_dir: str,
    queries: list[tuple[str, str]],
    params: ModelParams,
    want: dict[str, list[int]],
) -> pd.DataFrame:
    """→ (qid, docid, score) for each requested docid that MATCHES its query
    (non-matching docs are absent, mirroring the reference's score-map probe
    returning 0.0/absent). Queries that fail to parse contribute no rows;
    when no query is valid, no worker starts."""
    plan = plan_queries(index_dir, queries, params)
    if not plan[0]:
        return pd.DataFrame({"qid": [], "docid": [], "score": []})
    with QueryService(index_dir) as svc:
        return svc._score(plan, params, want)
