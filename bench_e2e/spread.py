#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, to set and check bounds.

Runs each workload once per seed (run_seconds from BENCHMARK.json) and
prints, per metric, the median over the runs and the interquartile
range (statistics.quantiles, n=4) as a share of the median, next to the
metric's bound and a third of it. Run from the repository root:

    python3 bench_e2e/spread.py --seeds 10
    python3 bench_e2e/spread.py --seeds 5 --workloads fanout_paced

Writes every run's result to .bench_out/spread.json as well.
"""

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the driver in this directory)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    binary = run.build()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {}
    worst = 0.0
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            code, out = run.run_bench(binary, workload, seed,
                                      spec["run_seconds"], 0)
            res = run.last_json(out)
            if code != 0 or res is None or not res["correct"]:
                print("%s seed %d: failed run" % (workload, seed))
                return 1
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (n, v[-1]) for n, v in values.items())), flush=True)
        results[workload] = values
        print("%-18s %-18s %12s %8s %8s %8s" % (
            "workload", "metric", "median", "spread", "bound/3", "bound"))
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print("%-18s %-18s %12.6g %7.2f%% %7.2f%% %7.2f%% %s" % (
                workload, name, med, 100 * spread, 100 * bounds[name] / 3,
                100 * bounds[name],
                "ok" if spread < bounds[name] / 3 else
                ("within bound" if spread <= bounds[name] else "WIDE")))
    os.makedirs(os.path.join(run.ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(run.ROOT, ".bench_out", "spread.json"), "w") as f:
        json.dump(results, f, indent=1)
    print("largest spread / bound (setup_s excluded): %.2f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
