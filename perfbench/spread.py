#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S] [--trace 0|1]

Runs perfbench/run.py once per seed and prints, for every metric, the
median over the runs and the distance between the first and third
quartile as a share of the median, next to the bound BENCHMARK.json
fixes for it. Run from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", args.trace],
            capture_output=True, text=True,
        )
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            print("seed %d: run failed (exit %d)" % (seed, out.returncode))
            return 1
        result = json.loads(out.stdout.splitlines()[-1])
        if not result["correct"]:
            failures = [l.strip() for l in out.stdout.splitlines() if l.strip().startswith("failed")]
            print("seed %d: outputs incorrect: %s" % (seed, "; ".join(failures)))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join("%s=%.4g" % (k, m["value"]) for k, m in result["metrics"].items())),
              flush=True)

    print("%-36s %14s %10s %8s" % ("metric", "median", "spread", "bound"))
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        bound = bounds.get(name)
        print("%-36s %14.6g %10.4f %8s" % (name, med, spread, "-" if bound is None else bound))
    return 0


if __name__ == "__main__":
    sys.exit(main())
