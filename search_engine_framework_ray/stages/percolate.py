"""Percolation / reverse search — the alerting pattern (public:
Elasticsearch "percolator", saved-search notification systems): N
REGISTERED structured queries are matched against a STREAM of documents,
emitting (query, doc) hits — search turned inside out.

Engine shape: the parsed query trees are tiny; :func:`percolate` parses
them once, when it is called (a bad query raises there, before any batch
runs), and ships them inside the stage instance, never per batch. Every doc batch
builds a batch-local inverted-index view (term → docid-ascending postings
with gap-preserving positions — the exact layout ``state/shard.py``
serves) and runs the REAL query evaluator's inverted-list algebra
(``query/kernels.py`` Evaluator — TERM / #SYN / #NEAR/n / #WINDOW/n)
against it, so percolation semantics can never diverge from index-side
search semantics: same analyzer, same cursor algebra, same code.

Scale: embarrassingly parallel streaming — no shuffle, no state beyond
the parsed queries; per-batch work is O(tokens + matches). This is the
operator a 100-TB pipeline runs on INGEST (route new crawl docs to
standing alerts/filters) where building an index first would be wasted
work. Score-layer ops (#AND/#OR/#SUM rankings) belong to the indexed
path; percolation is membership, and a Score node raises loudly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
from ray.data import Dataset

from ..functions.analysis import (
    DEFAULT_ANALYZER,
    AnalyzerConfig,
    analyze_positions,
    tokenize_raw,
)
from ..query.ast import Near, Node, Syn, Term, Window
from ..query.kernels import Evaluator
from ..query.models import ModelParams
from ..query.parser import parse_il_query

_IL_NODES = (Term, Syn, Near, Window)


class _BatchView:
    """Index-view duck type (query/kernels.py:7-15) over ONE document
    batch: postings built in docid-ascending order, positions gap-
    preserving (stopword slots counted, not emitted) — byte-compatible
    with what the Evaluator reads from a real shard."""

    def __init__(
        self,
        doc_ids: np.ndarray,
        texts: list[str],
        field: str,
        cfg: AnalyzerConfig,
    ):
        self._field = field
        order = np.argsort(doc_ids, kind="stable")
        post: dict[str, list[tuple[int, list[int]]]] = {}
        dls: dict[int, int] = {}
        total = 0
        for j in order:
            did = int(doc_ids[j])
            terms, poss = analyze_positions(texts[j] or "", cfg)
            dls[did] = len(tokenize_raw(texts[j] or ""))
            total += dls[did]
            per: dict[str, list[int]] = {}
            for t, p in zip(terms, poss):
                per.setdefault(t, []).append(p)
            for t, pl in per.items():
                post.setdefault(t, []).append((did, pl))
        self._postings = {}
        for t, entries in post.items():
            d = np.fromiter((e[0] for e in entries), dtype=np.int64)
            tf = np.fromiter((len(e[1]) for e in entries), dtype=np.int32)
            po = np.zeros(len(entries) + 1, dtype=np.int64)
            np.cumsum(tf, out=po[1:])
            pf = np.concatenate([e[1] for e in entries]).astype(np.int32)
            self._postings[t] = (d, tf, po, pf)
        self._dls = dls
        self.n_docs = len(doc_ids)
        self._sum_dl = total

    def get_postings(self, field: str, term: str):
        if field != self._field or term not in self._postings:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int32),
                np.zeros(1, dtype=np.int64),
                np.empty(0, dtype=np.int32),
            )
        return self._postings[term]

    def doclen(self, field: str, docids) -> np.ndarray:
        return np.fromiter(
            (self._dls.get(int(d), 0) for d in docids), dtype=np.int32
        )

    def sum_doclen(self, field: str) -> int:
        return self._sum_dl

    def doccount(self, field: str) -> int:
        return self.n_docs


class PercolateStage:
    """``map_batches`` callable: registered Il queries → (qid, doc_id, tf)
    hits per batch. ``tf`` is the evaluated inverted list's term frequency
    (match count for positional ops — the same value the Il-root path
    emits)."""

    def __init__(
        self,
        queries: list[tuple[str, str]],
        *,
        field: str = "body",
        analyzer: AnalyzerConfig = DEFAULT_ANALYZER,
        id_col: str = "doc_id",
        text_col: str = "text",
    ):
        self.cfg = analyzer
        self.field = field
        self.id_col = id_col
        self.text_col = text_col
        self.params = ModelParams(model="RankedBoolean")
        self.parsed: list[tuple[str, Node]] = []
        for qid, qtext in queries:
            tree = parse_il_query(qtext, analyzer)
            if tree is None or not isinstance(tree, _IL_NODES):
                raise ValueError(
                    f"percolation requires an inverted-list query "
                    f"(TERM/#SYN/#NEAR/#WINDOW); got {qid}: {qtext!r}"
                )
            self.parsed.append((qid, tree))

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch[self.id_col].to_numpy(np.int64)
        texts = batch[self.text_col].fillna("").tolist()
        view = _BatchView(ids, texts, self.field, self.cfg)
        ev = Evaluator(view, self.params)
        qs, ds, tfs = [], [], []
        for qid, tree in self.parsed:
            inv = ev.eval_il(tree)
            qs.extend([qid] * len(inv.docids))
            ds.append(inv.docids)
            tfs.append(inv.tfs.astype(np.int64))
        return pd.DataFrame(
            {
                "qid": pd.Series(qs, dtype="object"),
                "doc_id": np.concatenate(ds) if ds else np.empty(0, np.int64),
                "tf": np.concatenate(tfs) if tfs else np.empty(0, np.int64),
            }
        )


def percolate(
    ds: Dataset,
    queries: list[tuple[str, str]],
    **kw,
) -> Dataset:
    """Match every registered query against every document → Dataset
    ``(qid, doc_id, tf)``. See :class:`PercolateStage`."""
    return ds.map_batches(PercolateStage(queries, **kw), batch_format="pandas")
