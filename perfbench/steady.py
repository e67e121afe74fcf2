#!/usr/bin/env python3
"""Steadiness check: repeats one workload in fresh processes and prints,
for every metric, the median, the quartiles and the spread (interquartile
distance as a share of the median) beside the metric's bound.

    python3 perfbench/steady.py --workload study [--runs 10] [--first-seed 1]
        [--trace 0]

Run from the repository root. Seeds run first-seed, first-seed + 1, ...
Exits 1 when a spread (other than setup_s's) exceeds its bound or when the
share of failed operations differs between runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", default="0", choices=["0", "1"])
    a = p.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    values, shares = {}, set()
    for seed in range(a.first_seed, a.first_seed + a.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", a.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", a.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            print("seed %d: exit %d" % (seed, out.returncode))
            return 1
        print(lines[0])
        result = json.loads(lines[-1])
        shares.add((result["failed"], result["attempted"]))
        print("seed %d: correct=%s attempted=%d failed=%d" %
              (seed, result["correct"], result["attempted"], result["failed"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    ok = len({f / n for f, n in shares}) == 1
    print("\n%-24s %14s %14s %14s %8s %6s" % ("metric", "q1", "median", "q3", "spread", "bound"))
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if spread <= bound / 3 else ("within" if spread <= bound else "OVER")
            if spread > bound and name != "setup_s":
                ok = False
        print("%-24s %14.6g %14.6g %14.6g %7.2f%% %6s %s" %
              (name, q1, med, q3, 100 * spread, "-" if bound is None else bound, flag))
    print("failed/attempted shares: %s" % sorted(shares))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
