"""Benchmark entry point: run one workload, print one JSON result line.

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 44 --trace 0

Every workload drives the same operations through the engine's public
calls, in this order, and differs only in its inputs (crawl size and query
mix):

1. ``build_index`` calls, each over the base crawl into a fresh directory;
2. ``extend_index`` calls, each adding the delta crawl to a fresh copy of the
   base index, then ``run_queries`` calls (the per-call actor-pool batch
   path) over the extended index;
3. a warmed ``QueryService`` over the base index, serving rounds of the query
   mix in a closed loop, alternately at one client and at one client per CPU
   of the affinity mask.

``--seconds`` is the time these phases measure: the build and refresh phases
make a fixed number of calls, and serving measures for the rest of it (at
least ``ROUNDS`` pairs of rounds). Set-up, checks and shutdown come on top
(about 16 s). Every metric is a median over calls or rounds.

Outputs are checked against ``query/oracle.OracleIndex`` and golden counts
(see checks.py). ``--trace 1`` makes the same run with per-layer probes and
prints the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OP_TIMEOUT_S = 90.0
# calls per run of each slow operation: fixed, so that every run's medians
# rest on the same calls (the first call of a kind can run slower). Four
# builds, not three: build rates vary by ±15 % from call to call within a
# run, and a median of three spread past a quarter of the median between
# runs of the same code
BUILDS, EXTENDS, BATCHES = 4, 3, 3
# serving measures for what the calls leave of --seconds, in pairs of rounds
# (one client, then one client per CPU), at least ROUNDS pairs; alternating
# spreads both kinds of round over the whole serving time, and a median of
# three rounds outlasts a burst of host load that slows one of them
ROUNDS = 3
# queries of a round at one client per CPU: the first half of the serving
# round (a seeded sample of its mix), so that three pairs fit in a run
MANY_QUERIES = 50
ORACLE_SAMPLE = 12  # queries per oracle check
DF_SAMPLE = 40  # terms per termstats check
K = 10


@dataclass(frozen=True)
class Workload:
    n_docs: int  # base + delta
    n_files: int  # the last file is the delta crawl
    mix: dict  # queries per serving round, by class
    composite_forms: tuple  # inputs.COMPOSITE_FORMS a composite query takes


# The flat : composite proportion of each mix comes from a query mix the
# repository already measures (cited in README.md); the weighted, field and
# repeat shares have no such source and are unverified choices.
WORKLOADS = {
    # the 1M-doc sustained-throughput mix of BASELINE.md (3-term BM25 + 20 %
    # #NEAR/3) over a larger crawl: the build layers carry the run and few
    # queries take the serving prepass round
    "build-crawl": Workload(
        1100, 11, {"flat": 56, "composite": 14, "weighted": 5, "field": 5, "repeat": 20}, ("near3",)
    ),
    # bench.py's 10-query set (6 flat, 4 composite: #NEAR/1, #SYN, #WINDOW/4,
    # #NEAR/3) over a smaller crawl, with weighted Indri and field queries
    # added: the serving layers carry the run
    "serve-mixed": Workload(
        900, 9, {"flat": 36, "composite": 24, "weighted": 10, "field": 10, "repeat": 20},
        ("near1", "syn", "window4", "near3"),
    ),
}
N_BATCH = 30  # distinct queries per run_queries call


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class Report:
    """Counts operations, holds metrics and prints the one result line."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, dict] = {}
        self._lock = threading.Lock()
        self._printed = False

    def count(self, attempted: int = 0, failed: int = 0) -> None:
        with self._lock:
            self.attempted += attempted
            self.failed += failed

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def emit(self) -> None:
        with self._lock:
            if self._printed:
                return
            self._printed = True
            for e in self.errors[:20]:
                log(e)
            line = {
                "correct": not self.errors,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": self.metrics,
            }
            sys.stdout.write(json.dumps(line) + "\n")
            sys.stdout.flush()


# ---------------------------------------------------------------------------
# process hygiene
# ---------------------------------------------------------------------------


def _proc_table() -> dict[int, tuple[int, int]]:
    """pid → (ppid, rss pages) for every readable process."""
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                rest = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        out[int(d)] = (int(rest[1]), int(rest[21]))
    return out


def descendants(table=None) -> set[int]:
    table = table if table is not None else _proc_table()
    kids: dict[int, list[int]] = {}
    for pid, (ppid, _) in table.items():
        kids.setdefault(ppid, []).append(pid)
    out, stack = set(), [os.getpid()]
    while stack:
        for c in kids.get(stack.pop(), []):
            out.add(c)
            stack.append(c)
    return out


def tree_rss_mb() -> float:
    table = _proc_table()
    pages = sum(table[p][1] for p in descendants(table) | {os.getpid()} if p in table)
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    try:  # a zombie of ours is reaped here; anyone else's reads as alive
        return os.waitpid(pid, os.WNOHANG) == (0, 0)
    except ChildProcessError:
        try:
            with open(f"/proc/{pid}/stat") as f:
                return f.read().rsplit(")", 1)[1].split()[0] != "Z"
        except OSError:
            return False


def stop_all(pids: set[int], grace_s: float = 10.0) -> None:
    """Wait for ``pids`` to exit, SIGKILL the ones left after ``grace_s``,
    and wait until every one has ended."""
    deadline = time.monotonic() + grace_s
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.1)
    for p in pids:
        if _alive(p):
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
    while any(_alive(p) for p in pids):
        time.sleep(0.05)


class Watchdog:
    """Per-operation timeout. A stuck operation counts as failed: the report
    is printed, every process of the run is killed and the run exits."""

    def __init__(self, report: Report, cleanup):
        self.report, self.cleanup = report, cleanup
        self.active: dict[int, tuple[str, float]] = {}  # thread → (label, deadline)
        threading.Thread(target=self._loop, daemon=True).start()

    def arm(self, label: str) -> None:
        self.active[threading.get_ident()] = (label, time.monotonic() + OP_TIMEOUT_S)

    def disarm(self) -> None:
        self.active.pop(threading.get_ident(), None)

    def _loop(self) -> None:
        while True:
            time.sleep(0.5)
            late = [lab for lab, dl in list(self.active.values()) if time.monotonic() > dl]
            if late:
                self.report.count(failed=1)
                self.report.errors.append(f"{late[0]}: no result within {OP_TIMEOUT_S:.0f} s")
                self.report.emit()
                pids = descendants()
                for p in pids:
                    try:
                        os.kill(p, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                stop_all(pids, 0)
                self.cleanup()
                os._exit(0)


class RssSampler:
    """Peak summed RSS of this process and all its descendants (the main process,
    the Ray daemons and the Ray workers), sampled while active."""

    def __init__(self, period_s: float = 0.25):
        self.period_s = period_s
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _loop(self):
        while True:
            self.peak_mb = max(self.peak_mb, tree_rss_mb())
            if self._stop.wait(self.period_s):
                return


def cpu_times() -> list[int]:
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


class Run:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.wl = WORKLOADS[name]
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.report = Report()
        self.watchdog = Watchdog(self.report, self.remove_dirs)
        self.dir = os.path.join(ROOT, ".perfbench", f"{name}-{seed}")
        self.ray_tmp = None
        self.n_cpus = cpu_count()
        self.setup_s = 0.0

    def remove_dirs(self) -> None:
        for d in (self.dir, self.ray_tmp):
            if d:
                shutil.rmtree(d, ignore_errors=True)

    # -- operations ---------------------------------------------------------

    def op(self, label: str, fn, *args, **kwargs):
        """One counted operation under the per-operation timeout."""
        self.report.count(attempted=1)
        self.watchdog.arm(label)
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # a failed operation is counted and reported, never fatal
            self.report.count(failed=1)
            self.report.errors.append(f"{label}: {type(e).__name__}: {e}")
            return None
        finally:
            self.watchdog.disarm()

    def fail(self, errs: list[str]) -> None:
        self.report.errors.extend(errs)

    def repeat(self, label: str, body, n: int, budget_s: float = 0.0) -> bool:
        """Run ``body(i)`` ``n`` times, then on while one more (at the mean
        time so far) fits in ``budget_s``. False at the first failed
        operation."""
        t0, i, ok = time.monotonic(), 0, True

        def fits():
            spent = time.monotonic() - t0
            return spent + spent / i <= budget_s

        while ok and (i < n or fits()):
            ok = body(i) is not False
            i += ok
        log(f"{label}: {i} rounds in {time.monotonic() - t0:.1f} s")
        return ok

    # -- phases ---------------------------------------------------------------

    def calls_phase(self):
        """The build calls, then the extend calls, then the batch calls. Not
        interleaved: a build or extend that directly follows a
        ``run_queries`` call runs at about half speed, which would mix that
        effect into the build and extend figures."""
        from search_engine_framework_ray.pipelines.build_index import build_index, extend_index
        from search_engine_framework_ray.query import executor
        from search_engine_framework_ray.query.models import ModelParams

        from checks import check_body_df, check_n_docs, check_sorted

        inp = self.inputs
        n_base, n_delta = len(inp.base_rows), len(inp.delta_rows)
        n_all = n_base + n_delta
        rates, ext_rates, qps = [], [], []
        self.builds, self.extends, self.batches = [], [], []
        base_terms, all_terms = self.df_terms(inp.base_df), self.df_terms(inp.all_df)

        def build(i):
            out = os.path.join(self.dir, f"build{i}")
            t0 = time.time()
            r = self.op("build_index", build_index, inp.base_paths, out, num_shards=self.n_cpus)
            t1 = time.time()
            gc.collect()
            if r is None:
                return False
            if r.get("resumed"):
                self.report.count(failed=1)
                self.fail(["build_index reported resumed in a fresh directory"])
                return False
            rates.append(n_base / (t1 - t0))
            self.builds.append((t0, t1, r["num_shards"]))
            self.fail(check_n_docs(out, n_base) + check_body_df(out, inp.base_df, base_terms))
            if i == 0:
                self.index_bytes = layers.dir_bytes(out)
            else:
                shutil.rmtree(self.base_index)
            self.base_index = out
            return True

        def extend(i):
            ext = os.path.join(self.dir, f"ext{i}")
            shutil.copytree(self.base_index, ext)
            t0 = time.time()
            r = self.op("extend_index", extend_index, inp.delta_paths, ext)
            t1 = time.time()
            gc.collect()
            if r is None:
                return False
            if r.get("resumed"):
                self.report.count(failed=1)
                self.fail(["extend_index reported resumed on a fresh copy"])
                return False
            ext_rates.append(n_delta / (t1 - t0))
            self.extends.append((t0, t1, r["new_shards"]))
            self.fail(check_n_docs(ext, n_all) + check_body_df(ext, inp.all_df, all_terms))
            if i > 0:
                shutil.rmtree(self.ext_index)
            self.ext_index = ext
            return True

        def batch(i):
            qs = inp.batch_queries
            self.report.count(attempted=len(qs) - 1)  # one operation per query
            t0 = time.time()
            got = self.op("run_queries", executor.run_queries, self.ext_index, qs, ModelParams("BM25"), k=K)
            t1 = time.time()
            gc.collect()
            if got is None:
                self.report.count(failed=len(qs) - 1)
                return False
            qps.append(len(qs) / (t1 - t0))
            self.batches.append((t0, t1, dict(executor.LAST_ROUTE_STATS)))
            for qid, _ in qs:
                self.fail(check_sorted(qid, got[qid], by_url=False))
            self.batch_results = got
            return True

        t0 = time.monotonic()
        with RssSampler() as rss:
            ok = all(build(i) is not False for i in range(BUILDS))
        ok = ok and all(extend(i) is not False for i in range(EXTENDS))
        if not (ok and all(batch(i) is not False for i in range(BATCHES))):
            return False
        log(f"calls in {time.monotonic() - t0:.1f} s; build_index docs/s: {[round(r, 1) for r in rates]}; "
            f"extend_index docs/s: {[round(r, 1) for r in ext_rates]}; run_queries qps: {[round(q, 2) for q in qps]}")
        self.report.metric("build_docs_per_s", statistics.median(rates), "docs/s")
        self.report.metric("index_bytes_per_text_byte", self.index_bytes / inp.stats["base_text_bytes"], "ratio")
        self.report.metric("build_peak_rss_mb", rss.peak_mb, "MB")
        self.report.metric("extend_docs_per_s", statistics.median(ext_rates), "docs/s")
        self.report.metric("batch_qps", statistics.median(qps), "queries/s")
        return True

    def serve_phase(self):
        from search_engine_framework_ray.query.executor import QueryService
        from search_engine_framework_ray.query.models import ModelParams

        from checks import check_sorted

        rnd = self.inputs.serve_round
        params = {m: ModelParams(m) for m in ("BM25", "Indri")}
        t0 = time.monotonic()
        svc = self.op("QueryService start", QueryService, self.base_index, num_actors=self.n_cpus)
        if svc is None:
            return False
        if self.op("QueryService warmup", svc.warmup) is None:
            svc.shutdown()
            return False
        self.setup_s += time.monotonic() - t0
        self.n_shards = len(svc.shards)
        self.serve_results: dict[str, list] = {}
        self.one_client: list[tuple[str, float, float]] = []
        p50s, p90s, qps = [], [], []

        def query(qid, cls, model, text):
            a = time.time()
            got = self.op(f"query {qid}", svc.run, [(qid, text)], params[model], k=K)
            b = time.time()
            if got is None:
                return None
            self.fail(check_sorted(qid, got[qid]))
            return a, b, got[qid]

        def one_client_round(_):
            lat = []
            for qid, cls, model, text in rnd:
                r = query(qid, cls, model, text)
                if r is None:
                    return False
                self.one_client.append((cls, r[0], r[1]))
                self.serve_results.setdefault(qid, r[2])
                lat.append(1e3 * (r[1] - r[0]))
            # 100 queries a round: ten lie beyond the 90th percentile
            q = statistics.quantiles(lat, n=10, method="inclusive")
            p50s.append(statistics.median(lat))
            p90s.append(q[8])
            return True

        def many_round(_):
            queue, lock, ok = list(rnd[:MANY_QUERIES]), threading.Lock(), [True]

            def client():
                while True:
                    with lock:
                        if not queue or not ok[0]:
                            return
                        item = queue.pop()
                    if query(*item) is None:
                        ok[0] = False
                        return

            threads = [threading.Thread(target=client) for _ in range(self.n_cpus)]
            t1 = time.time()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            qps.append(MANY_QUERIES / (time.time() - t1))
            return ok[0]

        try:
            budget = max(0.0, self.seconds - (time.monotonic() - self.t_phases))
            ok = self.repeat(
                f"serve, 1 and {self.n_cpus} clients", lambda i: one_client_round(i) and many_round(i),
                ROUNDS, budget,
            )
        finally:
            svc.shutdown()
        if not ok:
            return False
        log(f"serve p50 ms: {[round(x, 2) for x in p50s]}; qps: {[round(x, 1) for x in qps]}")
        self.report.metric("query_p50_ms", statistics.median(p50s), "ms")
        self.report.metric("query_p90_ms", statistics.median(p90s), "ms")
        self.report.metric("query_qps", statistics.median(qps), "queries/s")
        return True

    # -- checks ---------------------------------------------------------------

    def df_terms(self, df) -> list[str]:
        import numpy as np

        terms = sorted(df)
        rng = np.random.default_rng([self.seed, 11])
        return [terms[int(i)] for i in rng.choice(len(terms), size=min(DF_SAMPLE, len(terms)), replace=False)]

    def oracle_checks(self):
        import numpy as np
        from search_engine_framework_ray.query.oracle import OracleIndex

        from checks import check_exact, check_tie_tolerant, oracle_topk

        inp = self.inputs
        rng = np.random.default_rng([self.seed, 13])
        # serving path over the fresh base build: exact rank and score identity
        oracle = OracleIndex(inp.base_rows)
        served = [q for q in inp.serve_round if q[0] in self.serve_results]
        for i in rng.choice(len(served), size=min(ORACLE_SAMPLE, len(served)), replace=False):
            qid, _, model, text = served[int(i)]
            self.fail(check_exact(qid, self.serve_results[qid], oracle_topk(oracle, text, model, K)))
        # batch path over the extended index: body-field queries, against an
        # oracle over base + delta (cross-crawl anchors are a documented
        # divergence of extend_index, and delta docids follow append order)
        oracle = OracleIndex(inp.base_rows + inp.delta_rows)
        qs = inp.batch_queries
        for i in rng.choice(len(qs), size=min(ORACLE_SAMPLE, len(qs)), replace=False):
            qid, text = qs[int(i)]
            want = oracle_topk(oracle, text, "BM25", 10 * K)
            self.fail(check_tie_tolerant(qid, self.batch_results[qid], want, K))

    # -- traced-run layer metrics ------------------------------------------------

    def layer_metrics(self, probe):
        time.sleep(1.5)  # let the workers flush their last task events
        evs = layers.tasks()
        m = self.report.metric

        def median_of(dicts, prefix, units):
            for key in dicts[0]:
                m(f"{prefix}.{key}", statistics.median(d[key] for d in dicts), units(key))

        def unit(key):
            if key.endswith("_s"):
                return "s"
            return "tasks/shard" if key.endswith("tasks_per_shard") else "ratio"

        for prefix, calls in (("build_index", self.builds), ("extend_index", self.extends)):
            per = []
            for t0, t1, n_shards in calls:
                url = probe.between("_deterministic_url_sample", t0, t1)
                commit = probe.between("_collect_shard_stats", t0, t1)
                per.append(layers.build_layers(
                    evs, call=(t0, t1), url_end=url[0][1], commit_start=commit[-1][0],
                    n_shards=n_shards, n_cpus=self.n_cpus,
                ))
            median_of(per, prefix, unit)

        for k, v in layers.kernel_costs(self.kernel_rows, os.path.join(self.dir, "kernels")).items():
            m(k, v, layers.KERNEL_UNITS[k])

        for k, v in layers.serve_layers(evs, probe, self.one_client, self.n_shards).items():
            m(k, v, "ratio" if k.endswith(("fraction", "share")) else "ms")
        by_cls: dict[str, list[float]] = {}
        for cls, a, b in self.one_client:
            by_cls.setdefault(cls, []).append(1e3 * (b - a))
        for cls in ("flat", "weighted", "composite", "field"):
            m(f"serve.p50_ms.{cls}", statistics.median(by_cls[cls]), "ms")

        per = [layers.batch_layers(evs, (t0, t1), rs) for t0, t1, rs in self.batches]
        for key in per[0]:
            m(key, statistics.median(d[key] for d in per), "s" if key.endswith("_s") else "ratio")

    # -- entry ----------------------------------------------------------------

    def main(self) -> int:
        t0 = time.monotonic()
        from inputs import make_inputs  # fails here, before any file is written, without the package

        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        # Ray workers import the package from the checkout, whatever the cwd
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [ROOT, os.environ.get("PYTHONPATH")]))
        # Ray nices its workers to 15 by default, so any main-process or daemon
        # activity preempts them; jobs submitted with `ray job submit` run
        # their workers at 0, and so does this benchmark
        os.environ["RAY_worker_niceness"] = "0"
        if self.trace:
            os.environ["RAY_task_events_report_interval_ms"] = "100"
        import ray
        import ray.data

        # the run's own Ray session directory, removed at the end. Ray's socket
        # paths (<dir>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store)
        # must fit in 107 bytes, so it is .perfbench/ray-XXXXXXXX while that
        # takes at most 41 bytes, else one in the system temp dir
        base = os.path.join(ROOT, ".perfbench")
        self.ray_tmp = tempfile.mkdtemp(prefix="ray-", dir=base if len(base) <= 28 else None)
        # the inputs are made while Ray starts: neither uses the other
        wl = self.wl
        maker = ThreadPoolExecutor(1)
        made = maker.submit(
            make_inputs, self.dir, self.seed, n_docs=wl.n_docs, n_files=wl.n_files, mix=wl.mix,
            composite_forms=wl.composite_forms, n_batch=N_BATCH,
        )
        maker.shutdown(wait=False)
        ray.init(
            address="local", num_cpus=self.n_cpus, include_dashboard=False,
            logging_level="ERROR", log_to_driver=False, _temp_dir=self.ray_tmp,
            object_store_memory=512 * 2**20,
        )
        pids = descendants()
        log(f"ray session up after {time.monotonic() - t0:.1f} s")
        try:
            ray.data.DataContext.get_current().enable_progress_bars = False
            self.inputs = made.result()
            log(f"inputs {json.dumps(self.inputs.stats)}")
            # the first Ray Data execution of a session starts Ray Data's own
            # actors; pay that here so the first build is not an outlier
            ray.data.read_parquet(self.inputs.base_paths[:2], columns=["url"]).groupby("url").count().materialize()
            gc.collect()
            self.setup_s = time.monotonic() - t0
            import numpy as np

            rng = np.random.default_rng([self.seed, 17])
            idx = rng.choice(len(self.inputs.base_rows), size=100, replace=False)
            self.kernel_rows = [self.inputs.base_rows[int(i)] for i in idx]
            c0 = cpu_times()
            self.run_phases()
            d = [b - a for a, b in zip(c0, cpu_times())]
            log(f"cpu time stolen by the host during the phases: {d[7] / max(1, sum(d)):.1%}")
        finally:
            pids |= descendants()
            t1 = time.monotonic()
            ray.shutdown()
            stop_all(pids)
            log(f"ray session stopped in {time.monotonic() - t1:.1f} s")
            self.remove_dirs()
        if not self.trace:
            self.report.metric("setup_s", self.setup_s, "s")
        self.report.emit()
        log(f"run ended after {time.monotonic() - t0:.1f} s")
        return 0

    def run_phases(self):
        from search_engine_framework_ray.pipelines import build_index as bi
        from search_engine_framework_ray.query import executor as ex

        self.t_phases = time.monotonic()
        probe = layers.Probe() if self.trace else None
        targets = [
            (bi, "_deterministic_url_sample"), (bi, "_collect_shard_stats"),
            (ex, "plan_queries"), (ex, "_bloom_route_map"),
            (ex, "apply_prepass"), (ex, "merge_results"),
        ]
        with probe.wrap(targets) if probe else contextlib.nullcontext():
            ok = self.calls_phase() and self.serve_phase()
        if not ok:
            return
        t0 = time.monotonic()
        self.oracle_checks()
        log(f"oracle checks {time.monotonic() - t0:.1f} s")
        if self.trace:
            log(f"end-to-end figures of the traced run: {json.dumps(self.report.metrics)}")
            self.report.metrics.clear()
            self.layer_metrics(probe)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.path[:0] = [ROOT, HERE]
    return Run(args.workload, args.seed, args.seconds, bool(args.trace)).main()


if __name__ == "__main__":
    sys.exit(main())
