"""Per-layer measurement for the traced run.

Two sources, neither of which changes the package:

* ``Probe`` wraps named module-level functions for the duration of a
  ``with`` block and records (name, start, end, result) for every call. The
  engine looks these functions up through its module globals, so the
  wrappers see the calls the engine itself makes.
* ``tasks()`` reads Ray's task timeline (``ray.timeline()``): one
  (category, start, end) per finished task or actor-method call, in epoch
  seconds, the clock ``time.time()`` also reads.
"""

from __future__ import annotations

import os
import shutil
import statistics
import threading
import time
from contextlib import contextmanager

# Ray's own bookkeeping tasks; never attributed to a layer
_BOOKKEEPING = ("_StatsActor", "AutoscalingRequester", "ActorLocationTracker")
# tasks of Ray Data's sort-based shuffle (both groupbys of a build use it)
_SORT_TASKS = ("map", "reduce", "_sample_block")
_READ_TASKS = ("ReadParquet", "Project", "_sample_fragment", "SplitBlocks")
BUILD_PHASES = ("extract", "part_shuffle", "shard_build", "termstats_reduce")
KERNEL_UNITS = {
    "extract.cpu_ms_per_doc": "ms/doc",
    "analysis.cpu_us_per_token": "us/token",
    "shard.build_cpu_ms_per_doc": "ms/doc",
    "shard.index_bytes_per_posting": "bytes/posting",
}


class Probe:
    """Records every call of the wrapped functions while active. Calls made
    from threads other than the one that entered the block are ignored."""

    def __init__(self):
        self.calls: list[tuple[str, float, float, object]] = []
        self._owner: int | None = None

    @contextmanager
    def wrap(self, targets: list[tuple[object, str]]):
        saved = [(mod, name, getattr(mod, name)) for mod, name in targets]
        self._owner = threading.get_ident()
        for mod, name, fn in saved:
            setattr(mod, name, self._timed(name, fn))
        try:
            yield self
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)
            self._owner = None

    def _timed(self, name: str, fn):
        def timed(*args, **kwargs):
            t0 = time.time()
            out = fn(*args, **kwargs)
            if threading.get_ident() == self._owner:
                self.calls.append((name, t0, time.time(), out))
            return out

        return timed

    def between(self, name: str, t0: float, t1: float) -> list[tuple[float, float, object]]:
        return [(a, b, out) for n, a, b, out in self.calls if n == name and t0 <= a and b <= t1]


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs)


def tasks() -> list[tuple[str, float, float]]:
    """(name, start, end) of every task in the session's timeline."""
    import ray

    out = []
    for e in ray.timeline():
        cat = e.get("cat", "")
        if e.get("ph") == "X" and cat.startswith("task::"):
            start = e["ts"] / 1e6
            out.append((cat[len("task::"):], start, start + e["dur"] / 1e6))
    return out


def union_s(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def _clip(evs, t0: float, t1: float):
    return [(n, max(a, t0), min(b, t1)) for n, a, b in evs if b > t0 and a < t1]


def build_layers(
    evs, *, call: tuple[float, float], url_end: float, commit_start: float,
    n_shards: int, n_cpus: int,
) -> dict[str, float]:
    """Phase split of one ``build_index``/``extend_index`` call.

    ``url_pass`` runs from the call to the end of the url sample pass and
    ``commit`` from the final stats collection to the return (both timed on
    the main process); the four pipeline phases are classified from task names.
    The two shuffles are told apart by time: sort tasks that start before
    the first shard-build task belong to the part shuffle."""
    t0, t1 = call
    evs = [e for e in _clip(evs, t0, t1) if not e[0].startswith(_BOOKKEEPING)]
    first_build = min((a for n, a, _ in evs if "build_group" in n), default=t1)
    phases: dict[str, list[tuple[float, float]]] = {p: [] for p in BUILD_PHASES}
    for n, a, b in evs:
        if "build_group" in n:
            phase = "shard_build"
        elif "reduce_bucket" in n or "add_bucket" in n:
            phase = "termstats_reduce"
        elif "ExtractStage" in n:
            phase = "extract"
        elif n in _SORT_TASKS or n.startswith(_READ_TASKS):
            if a < url_end:
                continue  # the url pass, timed in the main process
            if a >= first_build:
                phase = "termstats_reduce"
            else:
                phase = "part_shuffle" if n in _SORT_TASKS else "extract"
        else:
            continue
        phases[phase].append((a, b))
    wall = t1 - t0
    out = {"url_pass_s": url_end - t0, "commit_s": t1 - commit_start}
    spans = [(t0, url_end), (commit_start, t1)]
    for p, iv in phases.items():
        out[f"{p}.busy_s"] = sum(b - a for a, b in iv)
        span = (min(a for a, _ in iv), max(b for _, b in iv)) if iv else (t0, t0)
        out[f"{p}.span_s"] = span[1] - span[0]
        spans.append(span)
    out["idle_s"] = wall - union_s([(a, b) for _, a, b in evs])
    out["uncovered_s"] = wall - union_s(spans)
    out["cpu_util"] = sum(b - a for _, a, b in evs) / (wall * n_cpus)
    out["shard_build.tasks_per_shard"] = len(phases["shard_build"]) / n_shards
    return out


def serve_layers(
    evs, probe: Probe, queries: list[tuple[str, float, float]], n_shards: int
) -> dict[str, float]:
    """Critical-path split of sequential ``QueryService.run`` calls, given
    ``(class, start, end)`` for each. Execute time comes from the workers'
    ``execute`` method events inside the query's window; the RPC share is
    what the named layers leave of the latency."""
    execs = [(a, b) for n, a, b in evs if n.endswith("_ServiceWorker.execute")]
    acc: dict[str, list[float]] = {k: [] for k in ("plan", "route", "frac", "exec", "busy", "merge", "lat")}
    prepass: list[float] = []
    for _, t0, t1 in queries:
        plan = probe.between("plan_queries", t0, t1)
        route = probe.between("_bloom_route_map", t0, t1)
        pre = probe.between("apply_prepass", t0, t1)
        merge = probe.between("merge_results", t0, t1)
        if not (plan and route and merge):
            continue
        acc["plan"].append(plan[0][1] - plan[0][0])
        acc["route"].append(route[0][1] - route[0][0])
        rmap = route[0][2]
        acc["frac"].append(statistics.mean(len(v) for v in rmap.values()) / n_shards if rmap else 1.0)
        if pre:
            prepass.append(pre[0][0] - route[0][1])
        durs = [b - a for a, b in execs if route[0][1] <= a < merge[0][0]]
        acc["exec"].append(max(durs, default=0.0))
        acc["busy"].append(sum(durs))
        acc["merge"].append(merge[0][1] - merge[0][0])
        acc["lat"].append(t1 - t0)
    m = {k: statistics.mean(v) if v else 0.0 for k, v in acc.items()}
    share = len(prepass) / max(1, len(acc["lat"]))
    pre_ms = 1e3 * statistics.mean(prepass) if prepass else 0.0
    named = m["plan"] + m["route"] + share * pre_ms / 1e3 + m["exec"] + m["merge"]
    return {
        "executor.plan_ms": 1e3 * m["plan"],
        "bloom.route_ms": 1e3 * m["route"],
        "bloom.shard_fraction": m["frac"],
        "service.prepass_ms": pre_ms,
        "service.two_round_share": share,
        "service.execute_ms": 1e3 * m["exec"],
        "service.execute_busy_ms": 1e3 * m["busy"],
        "executor.merge_ms": 1e3 * m["merge"],
        "service.rpc_ms": 1e3 * (m["lat"] - named),
    }


def batch_layers(evs, call: tuple[float, float], route_stats: dict) -> dict[str, float]:
    """One ``run_queries`` call: pool start-up until the first execute task,
    and the busy time of the prepass and execute actor pools."""
    evs = _clip(evs, *call)
    exec_ = [(a, b) for n, a, b in evs if "QueryExecActor" in n and n.endswith(".submit")]
    pre = [(a, b) for n, a, b in evs if "StatsPrePassActor" in n and n.endswith(".submit")]
    return {
        "batch.pool_start_s": min((a for a, _ in exec_), default=call[1]) - call[0],
        "batch.prepass_busy_s": sum(b - a for a, b in pre),
        "batch.exec_busy_s": sum(b - a for a, b in exec_),
        "batch.shard_task_ratio": route_stats["shard_tasks_routed"] / max(1, route_stats["shard_tasks_full"]),
    }


def kernel_costs(rows: list[dict], scratch: str, repeats: int = 3) -> dict[str, float]:
    """In-process CPU cost of the build kernels on ``rows`` (no Ray):
    extraction, analysis and one SPIMI shard build; medians of ``repeats``."""
    from search_engine_framework_ray.functions.analysis import DEFAULT_ANALYZER, analyze_positions
    from search_engine_framework_ray.functions.extract import extract_fields
    from search_engine_framework_ray.state.shard import build_shard

    rows = sorted(rows, key=lambda r: r["url"])
    got: dict[str, list[float]] = {k: [] for k in ("extract", "analysis", "shard", "bytes")}
    for i in range(repeats):
        c = time.process_time()
        fields = [extract_fields(r["html"]) for r in rows]
        got["extract"].append(1e3 * (time.process_time() - c) / len(rows))
        c = time.process_time()
        n_tok = sum(len(analyze_positions(f["body"])[0]) for f in fields)
        got["analysis"].append(1e6 * (time.process_time() - c) / n_tok)
        texts = {
            "body": [f["body"] for f in fields],
            "title": [f["title"] for f in fields],
            "keywords": [f["keywords"] for f in fields],
            "url": [r["url"] for r in rows],
            "inlink": ["" for _ in rows],
        }
        index_dir = os.path.join(scratch, f"kernel{i}")
        c = time.process_time()
        terms = build_shard(index_dir, 0, 0, [r["url"] for r in rows], texts, DEFAULT_ANALYZER, "bench")
        got["shard"].append(1e3 * (time.process_time() - c) / len(rows))
        got["bytes"].append(dir_bytes(index_dir) / sum(terms.column("df").to_pylist()))
        shutil.rmtree(index_dir)
    med = {k: statistics.median(v) for k, v in got.items()}
    return {
        "extract.cpu_ms_per_doc": med["extract"],
        "analysis.cpu_us_per_token": med["analysis"],
        "shard.build_cpu_ms_per_doc": med["shard"],
        "shard.index_bytes_per_posting": med["bytes"],
    }
