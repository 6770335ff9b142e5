// Pipelined runtime scaling and instrumentation overhead. The runtime
// runs source, workers, and sink concurrently over bounded channels, so
// (a) peak buffering is O(channel capacity x batch size x parallelism)
// regardless of stream length and (b) source-side work (parsing /
// generation / IO) overlaps with pollution.
//
// The harness streams a synthetic wearable-style stream from a
// GeneratorSource (generation cost models a real ingest stage) through
// identical pollution chains at parallelism 1, 2 and 4 and reports
// throughput, the speedup over parallelism 1, and the runtime's peak
// channel buffering next to the stream length. It then measures the
// cost of a live MetricRegistry (DESIGN.md section 7) as the median
// per-pair ratio of instrumented to plain P=4 wall time over `--reps`
// back-to-back pairs, with its interquartile range. Alongside the
// human-readable table it emits a machine-readable JSON report
// (BENCH_runtime.json, validated by tools/check.sh bench).
//
// Usage: bench_runtime_pipeline [--tuples N] [--reps R] [--out PATH]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/errors_numeric.h"
#include "core/polluter_operator.h"
#include "obs/metrics.h"
#include "stream/runtime.h"
#include "stream/sink.h"
#include "stream/source.h"
#include "util/json.h"

namespace {

using namespace icewafl;  // NOLINT

uint64_t kTuples = 300000;  // --tuples
constexpr int kPipelineLength = 12;
constexpr uint64_t kSeed = 0x1CE3AF1ULL;

int64_t IntFlag(int argc, char** argv, const char* name, int64_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atoll(argv[i + 1]);
  }
  return fallback;
}

std::string StringFlag(int argc, char** argv, const char* name,
                       const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

SchemaPtr WearableSchema() {
  return Schema::Make({{"ts", ValueType::kInt64},
                       {"heart_rate", ValueType::kDouble},
                       {"steps", ValueType::kInt64},
                       {"calories", ValueType::kDouble}},
                      "ts")
      .ValueOrDie();
}

/// Synthetic wearable-style tuple: diurnal heart-rate curve plus
/// activity bursts. The transcendental math models the per-tuple cost of
/// a real ingest stage (parsing, unit conversion).
Tuple MakeTuple(const SchemaPtr& schema, uint64_t i) {
  const double phase = static_cast<double>(i % 86400) / 86400.0;
  const double hr = 62.0 + 24.0 * std::sin(phase * 6.283185307179586) +
                    8.0 * std::cos(phase * 43.982297150257104);
  const auto steps =
      static_cast<int64_t>(40.0 + 35.0 * std::sin(phase * 12.566370614359172));
  const double calories = 0.04 * hr + 0.02 * static_cast<double>(steps);
  return Tuple(schema, {Value(static_cast<int64_t>(1456790400 + i * 60)),
                        Value(hr), Value(steps < 0 ? int64_t{0} : steps),
                        Value(calories)});
}

PollutionPipeline MakePipeline() {
  PollutionPipeline pipeline("bench");
  for (int i = 0; i < kPipelineLength; ++i) {
    pipeline.Add(std::make_unique<StandardPolluter>(
        "noise_" + std::to_string(i),
        std::make_unique<GaussianNoiseError>(0.75),
        std::make_unique<RandomCondition>(0.2),
        std::vector<std::string>{"heart_rate"}));
  }
  return pipeline;
}

PipelineRuntime::ChainFactory MakeFactory(
    obs::MetricRegistry* metrics = nullptr) {
  return [metrics](int worker) {
    OperatorChain chain;
    auto polluter = std::make_unique<PolluterOperator>(
        MakePipeline(), kSeed + static_cast<uint64_t>(worker));
    polluter->BindMetrics(metrics);
    chain.push_back(std::move(polluter));
    return chain;
  };
}

struct RunResult {
  double seconds = 0.0;
  uint64_t tuples = 0;
  uint64_t checksum = 0;
  uint64_t peak_buffered = 0;
  uint64_t blocked_pushes = 0;
};

double Mtps(const RunResult& r) {
  // Sub-tick runs would divide by zero; report 0 rather than inf/nan.
  if (r.seconds <= 0.0) return 0.0;
  return static_cast<double>(r.tuples) / r.seconds / 1e6;
}

RunResult RunPipelined(int parallelism,
                       obs::MetricRegistry* metrics = nullptr) {
  SchemaPtr schema = WearableSchema();
  GeneratorSource source(schema, [&](uint64_t i) -> std::optional<Tuple> {
    if (i >= kTuples) return std::nullopt;
    return MakeTuple(schema, i);
  });
  CountingSink sink;
  RuntimeOptions options;
  options.parallelism = parallelism;
  options.metrics = metrics;
  PipelineRuntime runtime(options);
  auto factory = MakeFactory(metrics);
  const auto start = std::chrono::steady_clock::now();
  Status st = runtime.Run(&source, factory, &sink);
  const auto end = std::chrono::steady_clock::now();
  if (!st.ok()) {
    std::fprintf(stderr, "run failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  RunResult r;
  r.seconds = std::chrono::duration<double>(end - start).count();
  r.tuples = sink.count();
  r.checksum = sink.checksum();
  r.peak_buffered = runtime.stats().peak_buffered_tuples;
  r.blocked_pushes = runtime.stats().blocked_pushes;
  return r;
}

/// Quartiles of a sample, linearly interpolated.
struct Quartiles {
  double p25 = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;

  explicit Quartiles(std::vector<double> samples) {
    if (samples.empty()) return;
    std::sort(samples.begin(), samples.end());
    auto at = [&](double q) {
      const double pos = q * static_cast<double>(samples.size() - 1);
      const size_t lo = static_cast<size_t>(pos);
      const size_t hi = std::min(lo + 1, samples.size() - 1);
      return samples[lo] + (pos - static_cast<double>(lo)) *
                               (samples[hi] - samples[lo]);
    };
    p25 = at(0.25);
    p50 = at(0.5);
    p75 = at(0.75);
  }

  Json ToJson() const {
    Json q = Json::MakeObject();
    q.Set("p25", Json(p25));
    q.Set("p50", Json(p50));
    q.Set("p75", Json(p75));
    return q;
  }
};

}  // namespace

int main(int argc, char** argv) {
  kTuples = static_cast<uint64_t>(
      IntFlag(argc, argv, "--tuples", static_cast<int64_t>(kTuples)));
  const int reps = static_cast<int>(IntFlag(argc, argv, "--reps", 7));
  const std::string out =
      StringFlag(argc, argv, "--out", "BENCH_runtime.json");

  std::printf("Pipelined runtime scaling (baseline: parallelism 1)\n");
  std::printf("stream: %llu synthetic wearable tuples, pipeline length %d\n\n",
              static_cast<unsigned long long>(kTuples), kPipelineLength);

  // Warm-up (page in code and allocator arenas).
  (void)RunPipelined(1);

  std::printf("%4s %10s %10s %9s %14s %9s\n", "P", "seconds", "Mtuples/s",
              "speedup", "peak_buffered", "blocked");
  double base_seconds = 0.0;
  uint64_t base_tuples = 0;
  double speedup_p4 = 0.0;
  Json runs = Json::MakeArray();
  for (int p : {1, 2, 4}) {
    const RunResult r = RunPipelined(p);
    if (p == 1) {
      base_seconds = r.seconds;
      base_tuples = r.tuples;
    }
    const double speedup = r.seconds > 0.0 ? base_seconds / r.seconds : 0.0;
    if (p == 4) speedup_p4 = speedup;
    std::printf("%4d %10.3f %10.2f %8.2fx %14llu %9llu\n", p, r.seconds,
                Mtps(r), speedup,
                static_cast<unsigned long long>(r.peak_buffered),
                static_cast<unsigned long long>(r.blocked_pushes));
    if (r.tuples != base_tuples) {
      std::fprintf(stderr, "tuple count mismatch: %llu vs %llu\n",
                   static_cast<unsigned long long>(r.tuples),
                   static_cast<unsigned long long>(base_tuples));
      return 1;
    }
    Json run = Json::MakeObject();
    run.Set("parallelism", Json(static_cast<int64_t>(p)));
    run.Set("seconds", Json(r.seconds));
    run.Set("mtuples_per_sec", Json(Mtps(r)));
    run.Set("speedup", Json(speedup));
    run.Set("peak_buffered_tuples",
            Json(static_cast<int64_t>(r.peak_buffered)));
    run.Set("blocked_pushes", Json(static_cast<int64_t>(r.blocked_pushes)));
    runs.Append(std::move(run));
  }
  std::printf("\nP=4 speedup over P=1: %.2fx\n", speedup_p4);

  // Instrumentation overhead: plain and instrumented P=4 runs back to
  // back, in alternating order so drift does not favour either side.
  // The median of the per-pair ratios resolves a few percent where a
  // ratio of means over separate batches of runs does not. Reported,
  // not gated: the DESIGN.md section 7 budget is 5 %.
  std::vector<double> plain;
  std::vector<double> instrumented;
  std::vector<double> overhead_pct;
  for (int i = 0; i < reps; ++i) {
    double plain_s = 0.0;
    double inst_s = 0.0;
    for (int leg = 0; leg < 2; ++leg) {
      if ((leg == 0) == (i % 2 == 0)) {
        plain_s = RunPipelined(4).seconds;
      } else {
        obs::MetricRegistry registry;
        inst_s = RunPipelined(4, &registry).seconds;
      }
    }
    plain.push_back(plain_s);
    instrumented.push_back(inst_s);
    overhead_pct.push_back(plain_s > 0.0 ? (inst_s / plain_s - 1.0) * 100.0
                                         : 0.0);
  }
  const Quartiles plain_q(plain);
  const Quartiles inst_q(instrumented);
  const Quartiles overhead(overhead_pct);
  std::printf("\nP=4 wall seconds over %d plain/instrumented pairs:\n", reps);
  std::printf("%-24s %10s %10s %10s\n", "variant", "p25", "p50", "p75");
  std::printf("%-24s %10.4f %10.4f %10.4f\n", "uninstrumented", plain_q.p25,
              plain_q.p50, plain_q.p75);
  std::printf("%-24s %10.4f %10.4f %10.4f\n", "instrumented", inst_q.p25,
              inst_q.p50, inst_q.p75);
  std::printf("instrumentation overhead, median per-pair ratio: %+.1f%% "
              "(IQR %+.1f%% .. %+.1f%%)\n",
              overhead.p50, overhead.p25, overhead.p75);
  Json wall = Json::MakeObject();
  wall.Set("uninstrumented", plain_q.ToJson());
  wall.Set("instrumented", inst_q.ToJson());

  Json report = Json::MakeObject();
  report.Set("bench", Json(std::string("runtime_pipeline")));
  report.Set("tuples", Json(static_cast<int64_t>(kTuples)));
  report.Set("pipeline_length", Json(static_cast<int64_t>(kPipelineLength)));
  report.Set("reps", Json(static_cast<int64_t>(reps)));
  report.Set("runs", std::move(runs));
  report.Set("speedup_p4", Json(speedup_p4));
  report.Set("wall_seconds_p4", std::move(wall));
  report.Set("instrumentation_overhead_pct", overhead.ToJson());

  const std::string text = report.DumpPretty() + "\n";
  std::FILE* file = std::fopen(out.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fwrite(text.data(), 1, text.size(), file);
  std::fclose(file);
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}
