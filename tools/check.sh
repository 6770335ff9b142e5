#!/usr/bin/env bash
# Hygiene gates beyond the plain test suite.
#
#   tools/check.sh            # asan + tsan (the sanitizer gate)
#   tools/check.sh asan       # Address+UndefinedBehavior only
#   tools/check.sh tsan       # Thread sanitizer only
#   tools/check.sh tidy       # clang-tidy over src/, tools/, and tests/
#   tools/check.sh tsafety    # Clang -Wthread-safety over the full tree
#                             # (compile-time lock checking against the
#                             # annotations in src/util/sync.h), plus a
#                             # configure-time self-test proving the
#                             # analysis rejects a seeded GUARDED_BY
#                             # violation; skips when clang is absent
#   tools/check.sh lint       # icewafl_cli lint over configs/*.json,
#                             # plus grep gates: no std::regex or
#                             # <regex> under src/ (patterns compile
#                             # with the linear-time util/regex.h), and
#                             # no std::thread under src/ outside
#                             # stream/runtime.cc and net/ (one executor)
#   tools/check.sh obs        # end-to-end observability smoke: run a
#                             # scenario with --metrics-out/--trace-out
#                             # and validate both exports parse
#   tools/check.sh bench      # hot-path hygiene: grep-gate the per-tuple
#                             # pollute/validate sources against
#                             # Schema::IndexOf, then build Release and
#                             # smoke-run bench_micro_polluters (tiny
#                             # iteration budget) so its built-in
#                             # assertions break the build on regression;
#                             # its BENCH_*.json reports go to build-rel/
#   tools/check.sh net        # pollution-as-a-service smoke: serve a
#                             # scenario on an ephemeral loopback port,
#                             # tail it, and require the received CSV to
#                             # be byte-identical to the offline run;
#                             # then a two-named-session server tailed
#                             # with --session, each stream compared to
#                             # its per-session offline run, plus a
#                             # bench_net_server fan-out smoke emitting
#                             # build/BENCH_net.json
#   tools/check.sh admin      # live control-plane smoke: serve with
#                             # --admin-port 0, drive the admin channel
#                             # with icewafl_cli admin (list/get/swap/
#                             # set_rate/metrics), byte-compare a
#                             # post-swap tail to the offline run of the
#                             # swapped-in scenario, swap mid-stream
#                             # under an active tail, require
#                             # lint-rejected swaps to exit 1 with
#                             # Diagnostics on stderr, and byte-compare
#                             # set_rate 20000 tails at --parallelism 1
#                             # and 2 to their offline runs
#   tools/check.sh e2e        # end-to-end serving smoke: bench_e2e's
#                             # --self-test builds the benchmark and
#                             # serves tiny rounds of every stock
#                             # workload (plain and traced) through a
#                             # real server to decoding clients; each
#                             # must decode the offline digest and
#                             # report every BENCHMARK.json metric
#
# Reports (BENCH_*.json) land in the build directories, never in
# tracked files, so running a gate leaves `git diff` clean.
#
# The sanitizer presets compile with -Werror, so this script is also the
# warning gate. (-Wmaybe-uninitialized is excluded there: with
# sanitizers enabled GCC 12 reports false positives inside libstdc++'s
# std::variant holding a std::string, which stream/value.h's Value is,
# and inside the std::function members of the standard matcher that
# tests use as a differential oracle — see GCC PR105562.) The tsan pass
# is what keeps the pipelined runtime
# (stream/channel.h, stream/runtime.cc) and the server data-race free. The tidy and tsafety modes degrade to a skip (exit 0
# with a notice) when the clang tooling is not installed, so they can
# sit in the same CI matrix as the sanitizers without making clang a
# hard dependency. The tsafety preset promotes only the thread-safety
# diagnostic groups to errors (-Werror=thread-safety) rather than a
# blanket -Werror: the gate is about lock discipline, not about chasing
# clang/gcc differences in -Wall warnings.

set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)

run_preset() {
  local preset="$1"
  echo "=== ${preset}: configure ==="
  cmake --preset "${preset}"
  echo "=== ${preset}: build ==="
  cmake --build --preset "${preset}" -j "${jobs}"
  echo "=== ${preset}: test ==="
  ctest --preset "${preset}" -j "${jobs}"
  echo "=== ${preset}: OK ==="
}

run_tidy() {
  local tidy=""
  for candidate in clang-tidy clang-tidy-18 clang-tidy-17 clang-tidy-16; do
    if command -v "${candidate}" >/dev/null 2>&1; then
      tidy="${candidate}"
      break
    fi
  done
  if [ -z "${tidy}" ]; then
    echo "=== tidy: SKIPPED (clang-tidy not installed) ==="
    return 0
  fi
  echo "=== tidy: configure (compile_commands.json) ==="
  cmake --preset default -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  echo "=== tidy: ${tidy} over src/, tools/, and tests/ ==="
  # Checks come from the top-level .clang-tidy; -quiet keeps the output
  # to actual findings.
  local files
  files=$(find src tools tests -name '*.cc' -o -name '*.h' | sort)
  local status=0
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -clang-tidy-binary "${tidy}" -p build -quiet ${files} ||
      status=$?
  else
    # shellcheck disable=SC2086  # intentional word splitting of the list
    "${tidy}" -p build --quiet ${files} || status=$?
  fi
  if [ "${status}" -ne 0 ]; then
    echo "=== tidy: FAILED ==="
    return "${status}"
  fi
  echo "=== tidy: OK ==="
}

run_tsafety() {
  local cxx=""
  for candidate in clang++ clang++-19 clang++-18 clang++-17 clang++-16; do
    if command -v "${candidate}" >/dev/null 2>&1; then
      cxx="${candidate}"
      break
    fi
  done
  if [ -z "${cxx}" ]; then
    echo "=== tsafety: SKIPPED (clang not installed) ==="
    return 0
  fi
  echo "=== tsafety: configure (${cxx}; negative self-test runs here) ==="
  # The configure step itself is a gate: ICEWAFL_TSAFETY_NEGATIVE_CHECK
  # try_compiles a correctly locked control (must pass) and a seeded
  # GUARDED_BY violation (must fail) before anything else builds.
  cmake --preset tsafety -DCMAKE_CXX_COMPILER="${cxx}"
  echo "=== tsafety: build full tree (-Werror=thread-safety) ==="
  cmake --build --preset tsafety -j "${jobs}"
  echo "=== tsafety: OK ==="
}

run_lint() {
  echo "=== lint: no std::regex under src/ ==="
  # libstdc++'s std::regex backtracks recursively: exponential time on
  # some patterns and a stack overflow on long inputs. Every pattern
  # goes through util/regex.h instead (DESIGN.md section 15).
  if grep -rnE 'std::regex|<regex>' src/; then
    echo "lint: std::regex crept back into src/ — use icewafl::Regex"
    return 1
  fi
  echo "=== lint: no std::thread under src/ outside the runtime and net/ ==="
  # PipelineRuntime is the one executor (DESIGN.md section 5); the
  # server's reactor, worker pool and admin channel in net/ are the only
  # other threads.
  if grep -rnE 'std::(j)?thread\b|std::async\b' src/ \
      --exclude=runtime.cc --exclude-dir=net; then
    echo "lint: threads started outside stream/runtime.cc and net/ —" \
         "run the work on PipelineRuntime instead"
    return 1
  fi
  echo "=== lint: build icewafl_cli ==="
  cmake --preset default >/dev/null
  cmake --build --preset default -j "${jobs}" --target icewafl_cli
  local cli=build/tools/icewafl_cli
  echo "=== lint: configs/*.json ==="
  local status=0
  for config in configs/random_temporal.json configs/software_update.json \
                configs/network_delay.json; do
    echo "--- ${config}"
    "${cli}" lint "${config}" --schema configs/wearable_schema.json ||
      status=$?
  done
  echo "--- configs/software_update.json + wearable_suite.json"
  "${cli}" lint configs/software_update.json \
    --schema configs/wearable_schema.json \
    --suite configs/wearable_suite.json || status=$?
  echo "--- configs/software_update_clean.json (IW70x cleaner surface)"
  "${cli}" lint configs/software_update_clean.json \
    --schema configs/wearable_schema.json || status=$?
  if [ "${status}" -ne 0 ]; then
    echo "=== lint: FAILED ==="
    return "${status}"
  fi
  echo "=== lint: OK ==="
}

run_obs() {
  echo "=== obs: build icewafl_cli ==="
  cmake --preset default >/dev/null
  cmake --build --preset default -j "${jobs}" --target icewafl_cli
  local cli=build/tools/icewafl_cli
  local outdir
  outdir=$(mktemp -d)
  trap 'rm -rf "${outdir}"' RETURN
  echo "=== obs: run software_update with exports ==="
  "${cli}" run --scenario software_update --parallelism 2 \
    --metrics-out "${outdir}/metrics.prom" --trace-out "${outdir}/trace.json"
  echo "=== obs: validate Prometheus exposition ==="
  # Every non-comment line must be `name{labels} value` or `name value`,
  # and the series instrumented by the runtime must be present.
  if grep -vE '^(#|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$)' \
      "${outdir}/metrics.prom" | grep -q .; then
    echo "obs: malformed exposition line(s):"
    grep -vE '^(#|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$)' \
      "${outdir}/metrics.prom"
    return 1
  fi
  for metric in icewafl_stage_tuples_in_total icewafl_polluter_applied_total \
                icewafl_dq_expectations_total icewafl_runtime_wall_seconds; do
    if ! grep -q "^${metric}" "${outdir}/metrics.prom"; then
      echo "obs: missing metric family ${metric}"
      return 1
    fi
  done
  echo "=== obs: validate Chrome trace JSON ==="
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${outdir}/trace.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert events, "no trace events"
for e in events:
    assert e["ph"] in ("X", "i"), e
    assert "ts" in e and "tid" in e and "name" in e, e
print(f"obs: {len(events)} trace events OK")
EOF
  else
    grep -q '"traceEvents"' "${outdir}/trace.json"
  fi
  echo "=== obs: determinism (instrumented == uninstrumented) ==="
  "${cli}" run --scenario software_update --output "${outdir}/plain.csv" \
    >/dev/null
  "${cli}" run --scenario software_update --output "${outdir}/obs.csv" \
    --metrics-out "${outdir}/m2.prom" --trace-out "${outdir}/t2.json" \
    >/dev/null
  cmp "${outdir}/plain.csv" "${outdir}/obs.csv"
  echo "=== obs: OK ==="
}

run_bench() {
  echo "=== bench: hot-path grep gate (no Schema::IndexOf) ==="
  # Two-phase bind/run lifecycle (DESIGN.md section 8): attribute names
  # resolve to column indices once at Bind time, so the per-tuple
  # pollute/validate sources must never call Schema::IndexOf.
  # keyed_polluter_operator.cc is deliberately absent from the list: it
  # re-resolves the key column only when the tuple schema changes, never
  # per tuple. stream/bind.h hosts the one sanctioned call site.
  local hot_files=(
    src/core/condition.h src/core/condition.cc
    src/core/error_function.h src/core/error_function.cc
    src/core/errors_numeric.h src/core/errors_numeric.cc
    src/core/errors_value.h src/core/errors_value.cc
    src/core/errors_temporal.h src/core/errors_temporal.cc
    src/core/derived_error.h src/core/derived_error.cc
    src/core/polluter.h src/core/polluter.cc
    src/core/composite_polluter.h src/core/composite_polluter.cc
    src/core/pipeline.h src/core/pipeline.cc
    src/dq/expectation.h src/dq/expectation.cc
    src/dq/suite.h src/dq/suite.cc
    src/forecast/encodings.h
  )
  if grep -n "IndexOf" "${hot_files[@]}"; then
    echo "bench: Schema::IndexOf crept back onto a pollute/validate hot" \
         "path — resolve names in Bind() instead (DESIGN.md section 8)"
    return 1
  fi
  echo "=== bench: Release build ==="
  cmake -S . -B build-rel -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-rel -j "${jobs}" --target bench_micro_polluters \
    --target bench_net_wire --target bench_runtime_pipeline \
    --target bench_clean
  echo "=== bench: smoke run ==="
  # The tiny time budget keeps this a compile-and-assert smoke, not a
  # measurement; the binaries' built-in ratio assertions (keyed
  # overhead, batch-frame encode floor) still run at full strength, and
  # bench_net_wire emits build-rel/BENCH_wire.json.
  local reports=build-rel
  ./build-rel/bench/bench_micro_polluters --benchmark_min_time=0.01
  ./build-rel/bench/bench_net_wire --benchmark_min_time=0.01 \
    --out "${reports}/BENCH_wire.json"
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${reports}/BENCH_wire.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    wire = json.load(f)
for key in ("tuple_encode_seconds", "batch_encode_seconds",
            "tuple_decode_seconds", "batch_decode_seconds",
            "tuple_wire_bytes", "batch_wire_bytes"):
    assert wire[key] > 0, key
assert wire["encode_speedup"] >= 1.0, wire["encode_speedup"]
# Decoding frame views into one reused Tuple keeps a tuple frame about
# as cheap to read as to write (about 1x); 2.5x leaves room for timing
# noise on a shared host.
ratio = wire["tuple_decode_seconds"] / wire["tuple_encode_seconds"]
assert ratio <= 2.5, f"tuple decode {ratio:.2f}x encode (limit 2.5x)"
print(f"bench: BENCH_wire.json OK "
      f"(batch encode {wire['encode_speedup']:.2f}x, "
      f"tuple decode/encode {ratio:.2f}x)")
EOF
  else
    grep -q '"encode_speedup"' "${reports}/BENCH_wire.json"
  fi
  echo "=== bench: bench_runtime_pipeline → BENCH_runtime.json ==="
  # Tiny stream: a schema/emission smoke, not a measurement. The real
  # numbers come from the default full-size run.
  ./build-rel/bench/bench_runtime_pipeline --tuples 20000 --reps 2 \
    --out "${reports}/BENCH_runtime.json" >/dev/null
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${reports}/BENCH_runtime.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
assert report["bench"] == "runtime_pipeline", report
assert report["tuples"] == 20000, report["tuples"]
assert "materializing" not in report, report.keys()
runs = report["runs"]
assert [r["parallelism"] for r in runs] == [1, 2, 4], runs
for r in runs:
    assert r["seconds"] > 0 and r["speedup"] > 0, r
    assert r["peak_buffered_tuples"] > 0, r
for variant in ("uninstrumented", "instrumented"):
    lat = report["wall_seconds_p4"][variant]
    assert 0 < lat["p25"] <= lat["p50"] <= lat["p75"], lat
overhead = report["instrumentation_overhead_pct"]
assert overhead["p25"] <= overhead["p50"] <= overhead["p75"], overhead
print(f"bench: BENCH_runtime.json OK "
      f"(P=4 speedup over P=1 {report['speedup_p4']:.2f}x, "
      f"instrumentation {overhead['p50']:+.1f}%)")
EOF
  else
    grep -q '"speedup_p4"' "${reports}/BENCH_runtime.json"
  fi
  echo "=== bench: bench_clean → BENCH_clean.json ==="
  # Tiny stream again: the binary's built-in assertion (every rule
  # family fires and measures) runs at full strength regardless of
  # stream size.
  ./build-rel/bench/bench_clean --tuples 50000 \
    --out "${reports}/BENCH_clean.json" >/dev/null
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${reports}/BENCH_clean.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
assert report["bench"] == "clean", report
assert report["tuples"] == 50000, report["tuples"]
families = report["families"]
expected = {"range", "not_null", "regex", "type", "cross_field",
            "rate_of_change", "stuck_at"}
assert set(families) == expected, set(families)
for name, entry in families.items():
    assert entry["seconds"] > 0 and entry["fired"] > 0, name
assert report["stateful_overhead"] > 0, report["stateful_overhead"]
assert "parallel" not in report, report.keys()
print(f"bench: BENCH_clean.json OK "
      f"(stateful overhead {report['stateful_overhead']:.2f}x)")
EOF
  else
    grep -q '"stateful_overhead"' "${reports}/BENCH_clean.json"
  fi
  echo "=== bench: OK ==="
}

run_net() {
  echo "=== net: build icewafl_cli ==="
  cmake --preset default >/dev/null
  cmake --build --preset default -j "${jobs}" --target icewafl_cli
  local cli=build/tools/icewafl_cli
  local outdir
  outdir=$(mktemp -d)
  trap 'rm -rf "${outdir}"' RETURN
  echo "=== net: offline reference run ==="
  "${cli}" run --scenario random_temporal --output "${outdir}/offline.csv" \
    >/dev/null
  echo "=== net: serve on an ephemeral loopback port ==="
  "${cli}" serve --scenario random_temporal --port 0 --max-sessions 2 \
    --metrics-out "${outdir}/serve.prom" >"${outdir}/serve.log" 2>&1 &
  local server_pid=$!
  # The server prints "serving scenario ... on 127.0.0.1:PORT (...)"
  # once it is listening; wait for that line and extract the port.
  local port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/^serving scenario .* on [^ ]*:\([0-9]*\) .*/\1/p' \
      "${outdir}/serve.log")
    [ -n "${port}" ] && break
    if ! kill -0 "${server_pid}" 2>/dev/null; then
      echo "net: server exited before listening:"
      cat "${outdir}/serve.log"
      return 1
    fi
    sleep 0.1
  done
  if [ -z "${port}" ]; then
    echo "net: server never reported its port:"
    cat "${outdir}/serve.log"
    kill "${server_pid}" 2>/dev/null || true
    return 1
  fi
  echo "=== net: session 1 — full tail must equal the offline run ==="
  "${cli}" tail --connect "127.0.0.1:${port}" --csv-out "${outdir}/tail.csv"
  cmp "${outdir}/offline.csv" "${outdir}/tail.csv"
  echo "net: full-stream digest match ($(wc -c <"${outdir}/tail.csv")B)"
  echo "=== net: session 2 — tail --limit 1000 is an exact prefix ==="
  "${cli}" tail --connect "127.0.0.1:${port}" --limit 1000 \
    --csv-out "${outdir}/tail1000.csv"
  head -n 1001 "${outdir}/offline.csv" >"${outdir}/offline1000.csv"
  cmp "${outdir}/offline1000.csv" "${outdir}/tail1000.csv"
  echo "=== net: server drains after --max-sessions 2 ==="
  if ! wait "${server_pid}"; then
    echo "net: server exited non-zero:"
    cat "${outdir}/serve.log"
    return 1
  fi
  echo "=== net: serve metrics present in Prometheus export ==="
  for metric in icewafl_server_sessions_total \
                icewafl_server_tuples_sent_total \
                icewafl_server_clients_accepted_total; do
    if ! grep -q "^${metric}" "${outdir}/serve.prom"; then
      echo "net: missing metric family ${metric}"
      return 1
    fi
  done

  echo "=== net: two named sessions on one server ==="
  cat >"${outdir}/two_sessions.json" <<'EOF'
{
  "sessions": [
    {"name": "alpha", "scenario": "random_temporal", "seed": 42,
     "max_runs": 1},
    {"name": "beta", "scenario": "network_delay", "seed": 7, "max_runs": 1}
  ],
  "port": 0,
  "workers": 2
}
EOF
  "${cli}" lint "${outdir}/two_sessions.json"
  "${cli}" run --scenario random_temporal --seed 42 \
    --output "${outdir}/alpha_offline.csv" >/dev/null
  "${cli}" run --scenario network_delay --seed 7 \
    --output "${outdir}/beta_offline.csv" >/dev/null
  "${cli}" serve --config "${outdir}/two_sessions.json" \
    >"${outdir}/serve2.log" 2>&1 &
  server_pid=$!
  port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/^serving scenario .* on [^ ]*:\([0-9]*\) .*/\1/p' \
      "${outdir}/serve2.log")
    [ -n "${port}" ] && break
    if ! kill -0 "${server_pid}" 2>/dev/null; then
      echo "net: two-session server exited before listening:"
      cat "${outdir}/serve2.log"
      return 1
    fi
    sleep 0.1
  done
  if [ -z "${port}" ]; then
    echo "net: two-session server never reported its port:"
    cat "${outdir}/serve2.log"
    kill "${server_pid}" 2>/dev/null || true
    return 1
  fi
  "${cli}" tail --connect "127.0.0.1:${port}" --session alpha \
    --csv-out "${outdir}/alpha_tail.csv" &
  local alpha_pid=$!
  "${cli}" tail --connect "127.0.0.1:${port}" --session beta \
    --csv-out "${outdir}/beta_tail.csv"
  wait "${alpha_pid}"
  if ! wait "${server_pid}"; then
    echo "net: two-session server exited non-zero:"
    cat "${outdir}/serve2.log"
    return 1
  fi
  cmp "${outdir}/alpha_offline.csv" "${outdir}/alpha_tail.csv"
  cmp "${outdir}/beta_offline.csv" "${outdir}/beta_tail.csv"
  echo "net: per-session digest match (alpha, beta)"

  echo "=== net: bench_net_server → build/BENCH_net.json ==="
  cmake --build --preset default -j "${jobs}" --target bench_net_server
  ./build/bench/bench_net_server --sessions 2 --subscribers 2 \
    --tuples 5000 --out build/BENCH_net.json >/dev/null
  if command -v python3 >/dev/null 2>&1; then
    python3 - build/BENCH_net.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
for key in ("fanout_tuples_per_sec", "bytes_per_sec", "wall_seconds",
            "tuples_fanned_out"):
    assert report[key] > 0, key
latency = report["send_latency_seconds"]
assert latency["p50"] <= latency["p90"] <= latency["p99"], latency
print(f"net: BENCH_net.json OK "
      f"({report['fanout_tuples_per_sec']:.0f} tuples/s fan-out)")
EOF
  else
    grep -q '"fanout_tuples_per_sec"' build/BENCH_net.json
  fi
  echo "=== net: OK ==="
}

# Scrapes "<banner> ... on HOST:PORT" from a serve log, polling until
# the server prints it (or dies). Echoes the port, empty on timeout.
scrape_port() {
  local log="$1" banner="$2" pid="$3" port=""
  for _ in $(seq 1 100); do
    port=$(sed -n "s/^${banner} .*:\([0-9]*\).*/\1/p" "${log}" | head -n 1)
    [ -n "${port}" ] && break
    kill -0 "${pid}" 2>/dev/null || break
    sleep 0.1
  done
  echo "${port}"
}

run_admin() {
  echo "=== admin: build icewafl_cli ==="
  cmake --preset default >/dev/null
  cmake --build --preset default -j "${jobs}" --target icewafl_cli
  local cli=build/tools/icewafl_cli
  local outdir
  outdir=$(mktemp -d)
  trap 'rm -rf "${outdir}"' RETURN

  echo "=== admin: serve random_temporal with the admin channel ==="
  "${cli}" serve --scenario random_temporal --seed 7 --port 0 \
    --admin-port 0 --max-sessions 1 >"${outdir}/serve.log" 2>&1 &
  local server_pid=$!
  local port admin_port
  port=$(scrape_port "${outdir}/serve.log" "serving scenario" \
    "${server_pid}")
  admin_port=$(scrape_port "${outdir}/serve.log" "admin channel on" \
    "${server_pid}")
  if [ -z "${port}" ] || [ -z "${admin_port}" ]; then
    echo "admin: server never printed both banners:"
    cat "${outdir}/serve.log"
    kill "${server_pid}" 2>/dev/null || true
    return 1
  fi
  local connect="--connect 127.0.0.1:${admin_port}"

  echo "=== admin: list_sessions / get_config ==="
  # shellcheck disable=SC2086
  "${cli}" admin list_sessions ${connect} | grep -q random_temporal
  # shellcheck disable=SC2086
  "${cli}" admin get_config ${connect} --session random_temporal |
    grep -q '"plan_version": 1'

  echo "=== admin: lint-rejected swap exits 1 with Diagnostics ==="
  cat >"${outdir}/bad_pipeline.json" <<'EOF'
{
  "name": "broken",
  "polluters": [
    {"type": "standard", "label": "bad", "attributes": ["Nope"],
     "condition": {"type": "always"}, "error": {"type": "missing_value"}}
  ]
}
EOF
  local swap_status=0
  # shellcheck disable=SC2086
  "${cli}" admin swap_pipeline ${connect} --session random_temporal \
    --pipeline "${outdir}/bad_pipeline.json" \
    >"${outdir}/swap.out" 2>"${outdir}/swap.err" || swap_status=$?
  if [ "${swap_status}" -ne 1 ]; then
    echo "admin: lint-rejected swap exited ${swap_status}, want 1"
    return 1
  fi
  grep -q IW101 "${outdir}/swap.err"

  echo "=== admin: swap to software_update, then byte-compare a tail ==="
  # shellcheck disable=SC2086
  "${cli}" admin swap_pipeline ${connect} --session random_temporal \
    --scenario software_update | grep -q '"plan_version": 2'
  # The waiting session adopts the newest plan at its next run, with the
  # session's own seed (7): the tail must equal the offline run.
  "${cli}" run --scenario software_update --seed 7 \
    --output "${outdir}/offline.csv" >/dev/null
  "${cli}" tail --connect "127.0.0.1:${port}" \
    --csv-out "${outdir}/tail.csv"
  cmp "${outdir}/offline.csv" "${outdir}/tail.csv"
  echo "admin: post-swap digest match ($(wc -c <"${outdir}/tail.csv")B)"
  if ! wait "${server_pid}"; then
    echo "admin: server exited non-zero:"
    cat "${outdir}/serve.log"
    return 1
  fi

  echo "=== admin: mid-stream swap under an active tail ==="
  "${cli}" serve --scenario random_temporal --port 0 --admin-port 0 \
    --max-sessions 1 --metrics-out "${outdir}/serve2.prom" \
    >"${outdir}/serve2.log" 2>&1 &
  server_pid=$!
  port=$(scrape_port "${outdir}/serve2.log" "serving scenario" \
    "${server_pid}")
  admin_port=$(scrape_port "${outdir}/serve2.log" "admin channel on" \
    "${server_pid}")
  connect="--connect 127.0.0.1:${admin_port}"
  # Pace the stream so the swap lands mid-run, then tail through it.
  # shellcheck disable=SC2086
  "${cli}" admin set_rate ${connect} --session random_temporal \
    --rate 2000 >/dev/null
  "${cli}" tail --connect "127.0.0.1:${port}" \
    --csv-out "${outdir}/tail2.csv" &
  local tail_pid=$!
  sleep 0.3
  # shellcheck disable=SC2086
  "${cli}" admin swap_pipeline ${connect} --session random_temporal \
    --scenario software_update >/dev/null
  # The subscriber must ride through the swap on one connection.
  if ! wait "${tail_pid}"; then
    echo "admin: tail disconnected across the swap"
    return 1
  fi
  [ "$(wc -l <"${outdir}/tail2.csv")" -gt 1 ]
  if ! wait "${server_pid}"; then
    echo "admin: mid-stream server exited non-zero:"
    cat "${outdir}/serve2.log"
    return 1
  fi
  echo "=== admin: swap metrics in the Prometheus export ==="
  grep -q 'icewafl_server_plan_swaps_total{session="random_temporal"} 2' \
    "${outdir}/serve2.prom"
  grep -q 'icewafl_server_plan_version{session="random_temporal"} 3' \
    "${outdir}/serve2.prom"

  # Paced serving batches by the pace at parallelism 1 (40 rows at
  # 20000 rows/s) and keeps 256 above it; either way the bytes must be
  # the offline run's.
  local parallelism
  for parallelism in 1 2; do
    echo "=== admin: set_rate 20000 at --parallelism ${parallelism}," \
      "byte-compare the paced tail ==="
    "${cli}" serve --scenario random_temporal --seed 7 --port 0 \
      --admin-port 0 --max-sessions 1 --parallelism "${parallelism}" \
      >"${outdir}/serve_p${parallelism}.log" 2>&1 &
    server_pid=$!
    port=$(scrape_port "${outdir}/serve_p${parallelism}.log" \
      "serving scenario" "${server_pid}")
    admin_port=$(scrape_port "${outdir}/serve_p${parallelism}.log" \
      "admin channel on" "${server_pid}")
    if [ -z "${port}" ] || [ -z "${admin_port}" ]; then
      echo "admin: paced server never printed both banners:"
      cat "${outdir}/serve_p${parallelism}.log"
      kill "${server_pid}" 2>/dev/null || true
      return 1
    fi
    "${cli}" admin set_rate --connect "127.0.0.1:${admin_port}" \
      --session random_temporal --rate 20000 | grep -q '"plan_version": 2'
    "${cli}" run --scenario random_temporal --seed 7 \
      --parallelism "${parallelism}" \
      --output "${outdir}/offline_p${parallelism}.csv" >/dev/null
    "${cli}" tail --connect "127.0.0.1:${port}" \
      --csv-out "${outdir}/paced_p${parallelism}.csv"
    cmp "${outdir}/offline_p${parallelism}.csv" \
      "${outdir}/paced_p${parallelism}.csv"
    if ! wait "${server_pid}"; then
      echo "admin: paced server exited non-zero:"
      cat "${outdir}/serve_p${parallelism}.log"
      return 1
    fi
  done
  echo "=== admin: OK ==="
}

run_e2e() {
  echo "=== e2e: bench_e2e self-test (every stock workload, served) ==="
  python3 bench_e2e/run.py --self-test
  echo "=== e2e: OK ==="
}

modes=("$@")
if [ "${#modes[@]}" -eq 0 ]; then
  modes=(asan tsan)
fi

for mode in "${modes[@]}"; do
  case "${mode}" in
    asan | tsan) run_preset "${mode}" ;;
    tidy) run_tidy ;;
    tsafety) run_tsafety ;;
    lint) run_lint ;;
    obs) run_obs ;;
    bench) run_bench ;;
    net) run_net ;;
    admin) run_admin ;;
    e2e) run_e2e ;;
    *)
      echo "unknown mode '${mode}' (expected asan, tsan, tidy, tsafety, lint, obs, bench, net, admin, or e2e)" >&2
      exit 2
      ;;
  esac
done
