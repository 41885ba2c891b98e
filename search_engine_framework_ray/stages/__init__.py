"""Reusable Ray Data stage callables (map_batches bodies, callable classes,
aggregation helpers)."""
