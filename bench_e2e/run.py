#!/usr/bin/env python3
"""End-to-end serving benchmark driver (see README.md in this directory).

Run from the repository root:

    python3 bench_e2e/run.py --workload aq_noise_tuple --seed 1 \
        --seconds 20 --trace 0
    python3 bench_e2e/run.py --self-test

Builds the benchmark (CMake package in this directory, Release) into
.bench_build (or $CARGO_TARGET_DIR when set), runs one workload, and
passes the benchmark's report through. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Build logs go to standard error. Exits non-zero, without a result, when
the sources are missing or the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("bench_e2e: no icewafl sources at %s/src; nothing to build" % ROOT)
        sys.exit(2)
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "bench_e2e", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("bench_e2e: build step failed: %s" % " ".join(cmd))
            sys.exit(proc.returncode or 2)
    return os.path.join(out, "bench_e2e")


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 and proc.stdout.strip() else "unknown"


def run_bench(binary, workload, seed, seconds, trace, size="full", extra=()):
    """Runs one workload; returns (exit code, stdout text)."""
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size,
           "--root", ROOT, "--commit", commit()]
    if trace:
        cmd += ["--trace-out", os.path.join(
            out_dir, "trace_%s_seed%s.json" % (workload, seed))]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("bench_e2e: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 2, ""
    return proc.returncode, proc.stdout


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def self_test(binary):
    """Tiny runs of every workload: every metric named in BENCHMARK.json is
    reported with its unit, no tuple fails, a corrupted reference digest is
    reported as a failure, and a second seed changes the inputs."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def check(cond, what):
        if not cond:
            problems.append(what)
        log("self-test: %-4s %s" % ("ok" if cond else "FAIL", what))

    def run(workload, seed, trace, extra=()):
        code, out = run_bench(binary, workload, seed, 1, trace, "tiny", extra)
        return code, out, last_json(out)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            tag = "%s trace=%d" % (workload, trace)
            code, out, res = run(workload, 1, trace)
            check(code == 0 and res is not None, tag + ": exits 0 with a result")
            if res is None:
                continue
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  tag + ": correct, 0 of %d tuples failed" % res["attempted"])
            units = {k: v.get("unit") for k, v in res["metrics"].items()}
            check(units == wanted[trace], tag + ": every metric with its unit")
            report = out.splitlines()
            check(all(any(l.split()[:1] == [n] for l in report)
                      for n in wanted[trace]),
                  tag + ": every metric printed by name in the report")
            failed = [l.split()[1] for l in report
                      if l.split()[:1] == ["tuples_failed_frac"]]
            check(bool(failed) and all(float(v) == 0 for v in failed),
                  tag + ": tuples_failed_frac is 0")
            if trace:
                check(any(l.startswith("bottleneck: ") for l in report),
                      tag + ": names the bottleneck stage")
                check(not any("FAIL" in l for l in report),
                      tag + ": busy + wait tiles every stage's lifetime")

    code, _, res = run("aq_noise_tuple", 1, 0, ["--corrupt-reference"])
    check(code == 0 and res is not None and not res["correct"]
          and res["failed"] == res["attempted"] > 0,
          "a corrupted reference digest is reported as failure")

    digests = []
    for seed in (1, 2):
        code, out, res = run("wear_clean_batch", seed, 0)
        check(code == 0 and res is not None and res["correct"],
              "wear_clean_batch seed=%d: correct" % seed)
        digests += [l.split("digest ")[1].split(",")[0]
                    for l in out.splitlines() if l.startswith("# reference:")]
    check(len(digests) == 2 and digests[0] != digests[1],
          "a second seed generates different inputs")

    log("self-test: %s" % ("OK" if not problems else
                           "%d problem(s): %s" % (len(problems), "; ".join(problems))))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    binary = build()
    if args.self_test:
        return self_test(binary)
    if not args.workload:
        parser.error("--workload is required")
    code, out = run_bench(binary, args.workload, args.seed, args.seconds,
                          args.trace, args.size)
    if code != 0 or last_json(out) is None:
        sys.stderr.write(out)
        log("bench_e2e: run failed (exit %d)" % code)
        return code or 2
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
