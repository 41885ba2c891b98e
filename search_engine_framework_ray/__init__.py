"""search_engine_framework_ray — a Ray-Data-native full-text indexing + retrieval engine.

A from-scratch rebuild of the capabilities of the reference engine
(``Jiacli/search-engine-framework``, a single-threaded Java/Lucene query
evaluator — see ``SURVEY.md``) as a distributed system on Ray Data:

* **Index build**: ``ray.data.read_parquet`` over Common-Crawl-style web pages
  ``(url, warc_ts, html, text, lang)`` → HTML extraction → analysis
  (tokenize / possessive strip / lowercase / stop / Porter stem) →
  per-docid-range SPIMI posting segments with docid-delta + varbyte
  compression, skip blocks and per-block max-tf → sharded on-disk index with
  per-partition lineage manifests (resumable).
* **Query engine**: the reference's structured query language
  (``#AND #OR #SUM #WAND #WSUM #SYN #NEAR/n #WINDOW/n``, field-qualified
  terms) and its four retrieval models (UnrankedBoolean, RankedBoolean,
  BM25, Indri) evaluated rank-identically by query-service actors holding
  mmap'd index shards, with a final per-query top-k heap merge.
* **Corpus utilities** a 100 TB training-data pipeline needs: exact and
  near-duplicate detection (MinHash-LSH, SimHash, n-gram Jaccard,
  embedding cosine), ANN similarity search, language id, quality scoring,
  token counting, document fingerprinting, event-time windowed aggregation,
  and stubbed multimodal decode stages.

Nothing here calls ``ray.init``; callers own the Ray session.
"""

__version__ = "0.1.0"
