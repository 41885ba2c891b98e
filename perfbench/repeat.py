"""Run one workload repeatedly, one seed per run, and print the median and
quartiles of every metric, and the spread (quartile distance / median).

    python3 perfbench/repeat.py --workload serve-mixed --runs 10 [--seconds 44] [--trace 0]

Each run is a fresh process (``run.py``), started from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    shares = set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0 or not out.stdout.strip():
            print(f"seed {seed}: exit {out.returncode}, no result", file=sys.stderr)
            return 1
        res = json.loads(out.stdout.strip().splitlines()[-1])
        shares.add((res["failed"], res["attempted"]))
        vals = " ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items())
        notes = [ln.split(": ", 1)[1] for ln in out.stderr.splitlines() if ln.startswith("perfbench: ")]
        steal = next((n for n in notes if "stolen" in n), "")
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} {vals} [{steal}]", file=sys.stderr)
        # the per-call and per-round figures behind the medians
        for n in notes:
            if n.startswith(("calls in", "serve p50", "run ended")):
                print(f"  {n}", file=sys.stderr)
        # a traced run logs its end-to-end figures too: against untraced runs
        # they give the tracing overhead
        for n in notes:
            if n.startswith("end-to-end figures of the traced run"):
                e2e = json.loads(n.split(": ", 1)[1])
                print("  end-to-end figures of this traced run: "
                      + " ".join(f"{k}={m['value']:.4g}" for k, m in e2e.items()), file=sys.stderr)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"{'metric':44} {'unit':>11} {'q1':>11} {'median':>11} {'q3':>11} {'spread':>7}")
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:44} {units[name]:>11} {q1:11.4g} {med:11.4g} {q3:11.4g} {spread:7.3f}")
    print(f"(failed, attempted) per run: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
