"""Structured query engine: parser → AST → per-shard DAAT kernels → models →
distributed executor (QueryService shard workers + heap merge) and
single-process oracle."""
