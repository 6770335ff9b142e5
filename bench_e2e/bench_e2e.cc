// End-to-end serving benchmark (README.md). One process serves one
// workload: a stock scenario stream goes through a plan-driven
// net::PollutionServer session running scenarios::ServePlanToSink and is
// read back by in-process net::StreamClient subscribers over loopback.
// The server and runtime run on their shipped defaults.
//
// Usage:
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|tiny] [--root DIR] [--commit REV]
//             [--trace-out PATH] [--corrupt-reference]
//
// A run digests the offline reference once (in a child process), sets up
// the server, serves one warm-up round, then serves rounds until S
// seconds have passed, replacing the server with a fresh set-up at an
// even pace so that setup_s is the median of 11 set-ups spread over the
// run. With --trace 1 every second round runs the traced session
// function instead. The human-readable report comes first; the last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics (end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1).

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_e2e.h"
#include "clean/config.h"
#include "data/airquality.h"
#include "data/wearable.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "scenarios/scenarios.h"
#include "util/json.h"

namespace icewafl {
namespace bench {
namespace {

constexpr char kSession[] = "bench";
/// Set-ups per run; setup_s is their median. They are spread over the
/// run (see Bench::Run) so they see the same machine as the rounds.
constexpr size_t kSetups = 11;
/// A round that has not finished by then is aborted and counted failed.
constexpr auto kRoundDeadline = std::chrono::seconds(60);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string root = ".";
  std::string commit = "unknown";
  std::string trace_out;
  bool corrupt_reference = false;
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct Workload {
  std::string name;
  bool airquality = false;
  /// Air-quality hours, or the factor applied to every WearableOptions
  /// count (so the error density stays the paper stream's).
  int scale = 1;
  std::string pipeline;
  bool cleaner = false;
  double rate = 0.0;
  /// One entry per subscriber: true negotiates kCapBatchFrames.
  std::vector<bool> batch_frames;
};

Result<Workload> FindWorkload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  if (name == "aq_noise_tuple") {
    w.airquality = true;
    w.scale = tiny ? 2000 : 2 * 35064;
    w.pipeline = "TemporalNoisePipeline(AirQualityNumericAttributes(), 0.5)";
    w.batch_frames = {false};
  } else if (name == "wear_clean_batch") {
    w.scale = tiny ? 2 : 50;
    w.pipeline = "SoftwareUpdatePipeline() + software_update_clean.json";
    w.cleaner = true;
    w.batch_frames = {true};
  } else if (name == "fanout_paced") {
    w.scale = tiny ? 1 : 20;
    w.pipeline = "RandomTemporalErrorsPipeline()";
    w.rate = 20000.0;
    w.batch_frames = {false, false, true, true};
  } else {
    return Status::InvalidArgument(
        "unknown workload '" + name +
        "' (aq_noise_tuple, wear_clean_batch, fanout_paced)");
  }
  return w;
}

Result<TupleVector> Generate(const Workload& w, uint64_t seed) {
  if (w.airquality) {
    data::AirQualityOptions options;
    options.hours = static_cast<size_t>(w.scale);
    options.seed = seed;
    return data::GenerateAirQuality(options);
  }
  data::WearableOptions options;
  options.seed = seed;
  options.total_tuples *= w.scale;
  options.pre_update_tuples *= w.scale;
  options.not_worn_tuples *= w.scale;
  options.active_tuples *= w.scale;
  options.exercise_tuples *= w.scale;
  options.anomalous_tuples *= w.scale;
  return data::GenerateWearable(options);
}

PollutionPipeline PipelineFor(const Workload& w) {
  if (w.airquality) {
    return scenarios::TemporalNoisePipeline(
        scenarios::AirQualityNumericAttributes(), 0.5);
  }
  if (w.cleaner) return scenarios::SoftwareUpdatePipeline();
  return scenarios::RandomTemporalErrorsPipeline();
}

// ---------------------------------------------------------------------
// Session function and set-up
// ---------------------------------------------------------------------

/// State shared between the main thread and the session function, which
/// runs on a server worker thread.
struct SessionState {
  std::mutex mu;
  std::condition_variable cv;
  bool traced = false;
  obs::TraceRecorder* recorder = nullptr;
  uint64_t runs_done = 0;
  Status status;
  Clock::time_point run_start{};
  TracedRun traced_run;
};

net::PollutionServer::SessionFn MakeSessionFn(SessionState* state) {
  return [state](const PlanContext& ctx, Sink* sink) {
    bool traced = false;
    obs::TraceRecorder* recorder = nullptr;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      traced = state->traced;
      recorder = state->recorder;
    }
    TracedRun run;
    const Clock::time_point run_start = Clock::now();
    Status st = traced ? RunTracedSession(ctx, sink, run_start, recorder, &run)
                       : scenarios::ServePlanToSink(ctx, sink);
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->run_start = run_start;
      state->status = st;
      if (traced) state->traced_run = std::move(run);
      ++state->runs_done;
    }
    state->cv.notify_all();
    return st;
  };
}

struct SetupTimes {
  double generate_s = 0.0;
  double bind_s = 0.0;
  double compile_s = 0.0;
  double start_s = 0.0;
  double total_s = 0.0;
};

struct Served {
  std::shared_ptr<PlanSnapshot> plan;
  std::unique_ptr<net::PollutionServer> server;
};

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot read " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Dataset generation, plan build and bind, and cleaner compile: the
/// part of set-up the offline reference shares.
Status BuildPlan(const Workload& w, const Args& args,
                 std::shared_ptr<PlanSnapshot>* plan, SetupTimes* times) {
  const Clock::time_point t0 = Clock::now();
  ICEWAFL_ASSIGN_OR_RETURN(TupleVector rows, Generate(w, args.seed));
  if (rows.empty()) return Status::Internal("generator produced no rows");
  const Clock::time_point t1 = Clock::now();
  SchemaPtr schema =
      w.airquality ? data::AirQualitySchema() : data::WearableSchema();
  ICEWAFL_ASSIGN_OR_RETURN(Timestamp stream_start, rows.front().GetTimestamp());
  ICEWAFL_ASSIGN_OR_RETURN(Timestamp stream_end, rows.back().GetTimestamp());
  PollutionPipeline pipeline = PipelineFor(w);
  Json config = pipeline.ToJson();
  ICEWAFL_ASSIGN_OR_RETURN(
      *plan, MakePlanSnapshot(
                 w.name, std::move(config), schema,
                 std::make_shared<const TupleVector>(std::move(rows)),
                 std::move(pipeline), args.seed, /*parallelism=*/1,
                 stream_start, stream_end, w.rate));
  const Clock::time_point t2 = Clock::now();
  if (w.cleaner) {
    ICEWAFL_ASSIGN_OR_RETURN(
        std::string text,
        ReadFile(args.root + "/configs/software_update_clean.json"));
    ICEWAFL_ASSIGN_OR_RETURN(Json doc, Json::Parse(text));
    ICEWAFL_RETURN_NOT_OK(clean::RulesFromJson(doc, schema).status());
    (*plan)->cleaner = std::move(doc);
  }
  const Clock::time_point t3 = Clock::now();
  times->generate_s = Seconds(t1 - t0);
  times->bind_s = Seconds(t2 - t1);
  times->compile_s = Seconds(t3 - t2);
  return Status::OK();
}

/// One full set-up: BuildPlan, then server construction, AddSession and
/// Start.
Status SetUp(const Workload& w, const Args& args, SessionState* state,
             obs::MetricRegistry* metrics, Served* served, SetupTimes* times) {
  const Clock::time_point t0 = Clock::now();
  ICEWAFL_RETURN_NOT_OK(BuildPlan(w, args, &served->plan, times));
  const Clock::time_point t1 = Clock::now();
  net::ServerOptions options;
  options.metrics = metrics;
  served->server = std::make_unique<net::PollutionServer>(options);
  net::SessionOptions session;
  session.min_subscribers = static_cast<int>(w.batch_frames.size());
  session.max_runs = 0;
  session.plan = served->plan;
  ICEWAFL_RETURN_NOT_OK(served->server->AddSession(
      kSession, served->plan->schema, MakeSessionFn(state), session));
  ICEWAFL_RETURN_NOT_OK(served->server->Start());
  const Clock::time_point t2 = Clock::now();
  times->start_s = Seconds(t2 - t1);
  times->total_s = Seconds(t2 - t0);
  return Status::OK();
}

struct Reference {
  uint64_t digest = 0;
  uint64_t tuples = 0;
};

/// Digest of scenarios::RunPlanSegmentOffline over the whole stream,
/// computed in a child process so that the materialized reference does
/// not count toward the benchmark's peak_rss_mb. Must run before the
/// process starts any thread.
Status ComputeReference(const Workload& w, const Args& args, Reference* ref) {
  int fds[2];
  if (pipe(fds) != 0) return Status::IOError("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) return Status::IOError("fork failed");
  if (pid == 0) {
    close(fds[0]);
    std::shared_ptr<PlanSnapshot> plan;
    SetupTimes times;
    Reference child;
    Status st = BuildPlan(w, args, &plan, &times);
    if (st.ok()) {
      Result<TupleVector> offline =
          scenarios::RunPlanSegmentOffline(*plan, 0, plan->clean->size());
      st = offline.status();
      if (st.ok()) {
        child.digest = DigestOf(offline.ValueOrDie());
        child.tuples = offline.ValueOrDie().size();
      }
    }
    if (!st.ok()) {
      std::fprintf(stderr, "offline reference failed: %s\n",
                   st.ToString().c_str());
      _exit(1);
    }
    const bool written =
        write(fds[1], &child, sizeof(child)) == static_cast<ssize_t>(sizeof(child));
    _exit(written ? 0 : 1);
  }
  close(fds[1]);
  ssize_t got = 0;
  char* dst = reinterpret_cast<char*>(ref);
  while (got < static_cast<ssize_t>(sizeof(*ref))) {
    const ssize_t n = read(fds[0], dst + got, sizeof(*ref) - got);
    if (n <= 0) break;
    got += n;
  }
  close(fds[0]);
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  if (got != static_cast<ssize_t>(sizeof(*ref)) || !WIFEXITED(wstatus) ||
      WEXITSTATUS(wstatus) != 0) {
    return Status::Internal("offline reference process failed");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]); 0 for no values.
template <typename T>
double Quantile(std::vector<T> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(values[lo]) * (1.0 - frac) +
         static_cast<double>(values[hi]) * frac;
}

template <typename T>
double Median(const std::vector<T>& values) {
  return Quantile(values, 0.5);
}

/// Quantile of the observations a histogram gained between two bucket
/// snapshots (same interpolation as obs::Histogram::Quantile).
double DeltaQuantile(const std::vector<double>& bounds,
                     const std::vector<uint64_t>& before,
                     const std::vector<uint64_t>& after, double q) {
  std::vector<uint64_t> counts(after.size(), 0);
  uint64_t total = 0;
  for (size_t i = 0; i < after.size(); ++i) {
    counts[i] = after[i] - (i < before.size() ? before[i] : 0);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (static_cast<double>(cumulative) < rank) continue;
    if (i >= bounds.size()) return bounds.empty() ? 0.0 : bounds.back();
    const double upper = bounds[i];
    const double lower = i == 0 ? 0.0 : bounds[i - 1];
    if (counts[i] == 0) return upper;
    const double prior = static_cast<double>(cumulative - counts[i]);
    const double frac = (rank - prior) / static_cast<double>(counts[i]);
    return lower + (upper - lower) * std::clamp(frac, 0.0, 1.0);
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

/// Totals over the plain or the traced rounds of a run.
struct RunTotals {
  uint64_t delivered = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double tuples_per_s() const {
    return wall_s > 0 ? static_cast<double>(delivered) / wall_s : 0.0;
  }
  double cpu_us_per_tuple() const {
    return delivered > 0 ? cpu_s * 1e6 / static_cast<double>(delivered) : 0.0;
  }
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Log-bucketed latency histogram: 0.1% relative resolution from 1 us
/// to beyond an hour, so a run's pooled percentiles need no per-sample
/// storage. Ages below 1 us (or negative) land in the first bucket.
class LatencyHistogram {
 public:
  void Add(double ms) {
    size_t i = 0;
    if (ms > kFloorMs) {
      i = std::min(kBuckets - 1,
                   1 + static_cast<size_t>(std::log(ms / kFloorMs) / kLogGrowth));
    }
    ++buckets_[i];
    ++count_;
  }
  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
  }
  uint64_t count() const { return count_; }
  /// Geometric middle of the bucket holding the q-quantile; 0 if empty.
  double Quantile(double q) const {
    if (count_ == 0) return 0.0;
    const uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_ - 1));
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen > rank) {
        return i == 0 ? kFloorMs
                      : kFloorMs * std::exp((static_cast<double>(i) - 0.5) *
                                            kLogGrowth);
      }
    }
    return 0.0;
  }

 private:
  static constexpr double kFloorMs = 1e-3;
  static constexpr size_t kBuckets = 24000;
  static inline const double kLogGrowth = std::log(1.001);
  std::vector<uint64_t> buckets_ = std::vector<uint64_t>(kBuckets, 0);
  uint64_t count_ = 0;
};

// ---------------------------------------------------------------------
// Subscribers and rounds
// ---------------------------------------------------------------------

struct SubscriberResult {
  Status status;
  uint64_t tuples = 0;
  uint64_t reported = 0;
  uint64_t digest = 0;
  std::vector<uint64_t> ids;
  std::vector<int64_t> decode_ns;
  Clock::time_point subscribe{};
  Clock::time_point end{};
  double cpu_s = 0.0;
};

/// One subscriber: subscribe, decode to the End frame, hash every
/// decoded tuple and stamp its decode time.
void Subscribe(uint16_t port, bool batch_frames, size_t expected,
               obs::TraceRecorder* recorder, int index,
               SubscriberResult* out) {
  out->ids.reserve(expected);
  out->decode_ns.reserve(expected);
  const double cpu_start = ThreadCpuSeconds();
  out->subscribe = Clock::now();
  auto connected = net::StreamClient::Connect(
      "127.0.0.1", port, kSession, batch_frames ? net::kCapBatchFrames : 0);
  if (!connected.ok()) {
    out->status = connected.status();
    out->end = Clock::now();
    out->cpu_s = ThreadCpuSeconds() - cpu_start;
    return;
  }
  std::unique_ptr<net::StreamClient> client =
      std::move(connected).ValueOrDie();
  Digest digest;
  Tuple tuple;
  const size_t span_rows = SpanRows();
  uint64_t span_batch = UINT64_MAX;
  Clock::time_point span_start{};
  Clock::time_point last{};
  while (true) {
    Result<bool> more = client->Next(&tuple);
    if (!more.ok()) {
      out->status = more.status();
      break;
    }
    if (!more.ValueOrDie()) break;
    const Clock::time_point now = Clock::now();
    digest.Add(tuple);
    out->ids.push_back(tuple.id());
    out->decode_ns.push_back(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            now.time_since_epoch())
            .count());
    if (recorder != nullptr && tuple.id() / span_rows != span_batch) {
      if (span_batch != UINT64_MAX) {
        RecordSpan(recorder, BatchName(span_batch * span_rows),
                   "net.client", kClientTrack + index, span_start, last);
      }
      span_batch = tuple.id() / span_rows;
      span_start = now;
    }
    last = now;
  }
  if (recorder != nullptr && span_batch != UINT64_MAX) {
    RecordSpan(recorder, BatchName(span_batch * span_rows), "net.client",
               kClientTrack + index, span_start, last);
  }
  out->end = Clock::now();
  out->tuples = out->ids.size();
  out->reported = client->reported_total();
  out->digest = digest.value();
  out->cpu_s = ThreadCpuSeconds() - cpu_start;
}

/// Per-layer figures of one traced round (name -> value).
using LayerValues = std::map<std::string, double>;

struct RoundResult {
  bool traced = false;
  bool ok = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t delivered = 0;  ///< tuples decoded intact, over subscribers
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double tuples_per_s = 0.0;
  double cpu_us_per_tuple = 0.0;
  double age_p50_ms = 0.0;
  double age_p99_ms = 0.0;
  /// Traced rounds: per-stage times for the busy + wait check.
  std::vector<std::pair<std::string, StageTimes>> stages;
  LayerValues layers;
};

RunTotals Totals(const std::vector<RoundResult>& rounds, bool traced) {
  RunTotals totals;
  for (const RoundResult& x : rounds) {
    if (x.traced != traced) continue;
    totals.delivered += x.delivered;
    totals.wall_s += x.wall_s;
    totals.cpu_s += x.cpu_s;
  }
  return totals;
}

class Bench {
 public:
  Bench(Args args, Workload workload)
      : args_(std::move(args)), w_(std::move(workload)) {}

  /// Runs set-up, the reference, the rounds, and prints the report.
  /// Returns the process exit code.
  int Run();

 private:
  /// Stops the current server, if any, and sets up a fresh one.
  Status Resetup(SetupTimes* times);
  RoundResult ServeRound(bool traced);
  void FillLayers(const std::vector<SubscriberResult>& subs,
                  const ChannelStats& queue_before,
                  const std::vector<uint64_t>& hist_before,
                  uint64_t bytes_before, RoundResult* round);
  void PrintReport(const std::vector<RoundResult>& rounds,
                   const std::vector<SetupTimes>& setups, double ref_s);

  Args args_;
  Workload w_;
  SessionState state_;
  obs::MetricRegistry registry_;
  Served served_;
  Reference reference_;
  std::unique_ptr<obs::TraceRecorder> last_recorder_;
  /// Ages of every tuple of every plain (untraced) measured round.
  LatencyHistogram plain_ages_;
  uint64_t warmup_attempted_ = 0;
  uint64_t warmup_failed_ = 0;
};

RoundResult Bench::ServeRound(bool traced) {
  RoundResult round;
  round.traced = traced;
  const size_t subscribers = w_.batch_frames.size();
  std::unique_ptr<obs::TraceRecorder> recorder;
  if (traced) recorder = std::make_unique<obs::TraceRecorder>();
  uint64_t runs_before = 0;
  {
    std::lock_guard<std::mutex> lock(state_.mu);
    state_.traced = traced;
    state_.recorder = recorder.get();
    runs_before = state_.runs_done;
  }
  obs::Histogram* send_latency = nullptr;
  obs::Counter* bytes_sent = nullptr;
  if (traced) {
    send_latency = registry_.GetHistogram(
        "icewafl_server_send_latency_seconds", {{"session", kSession}}, {});
    bytes_sent = registry_.GetCounter("icewafl_server_bytes_sent_total");
  }
  const ChannelStats queue_before = served_.server->frame_queue_stats();
  const std::vector<uint64_t> hist_before =
      send_latency != nullptr ? send_latency->BucketCounts()
                              : std::vector<uint64_t>{};
  const uint64_t bytes_before = bytes_sent != nullptr ? bytes_sent->value() : 0;

  std::vector<SubscriberResult> subs(subscribers);
  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t done = 0;
  const double cpu_before = ProcessCpuSeconds();
  std::vector<std::thread> threads;
  threads.reserve(subscribers);
  const uint16_t port = served_.server->port();
  for (size_t i = 0; i < subscribers; ++i) {
    threads.emplace_back([&, i] {
      Subscribe(port, w_.batch_frames[i], reference_.tuples, recorder.get(),
                static_cast<int>(i), &subs[i]);
      {
        std::lock_guard<std::mutex> lock(done_mu);
        ++done;
      }
      done_cv.notify_all();
    });
  }
  bool timed_out = false;
  {
    std::unique_lock<std::mutex> lock(done_mu);
    timed_out = !done_cv.wait_for(lock, kRoundDeadline,
                                  [&] { return done == subscribers; });
  }
  if (timed_out) {
    std::fprintf(stderr, "round exceeded its deadline; stopping the server\n");
    served_.server->RequestStop();
  }
  for (std::thread& t : threads) t.join();
  Clock::time_point run_start{};
  {
    std::unique_lock<std::mutex> lock(state_.mu);
    if (!timed_out) {
      state_.cv.wait_for(lock, kRoundDeadline,
                         [&] { return state_.runs_done > runs_before; });
    }
    round.ok = !timed_out && state_.runs_done > runs_before &&
               state_.status.ok();
    if (!state_.status.ok()) {
      std::fprintf(stderr, "session run failed: %s\n",
                   state_.status.ToString().c_str());
    }
    run_start = state_.run_start;
    state_.recorder = nullptr;
  }
  const double cpu_after = ProcessCpuSeconds();

  Clock::time_point first = subs.front().subscribe;
  Clock::time_point last = subs.front().end;
  for (const SubscriberResult& s : subs) {
    first = std::min(first, s.subscribe);
    last = std::max(last, s.end);
  }
  round.wall_s = Seconds(last - first);
  round.cpu_s = cpu_after - cpu_before;

  const int64_t start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               run_start.time_since_epoch())
                               .count();
  LatencyHistogram ages;
  for (size_t i = 0; i < subscribers; ++i) {
    const SubscriberResult& s = subs[i];
    round.attempted += reference_.tuples;
    const bool intact = round.ok && s.status.ok() &&
                        s.tuples == reference_.tuples &&
                        s.reported == reference_.tuples &&
                        s.digest == reference_.digest;
    if (!intact) {
      round.failed += reference_.tuples;
      std::fprintf(stderr,
                   "subscriber %zu: %s, %llu of %llu tuples, digest %s\n", i,
                   s.status.ok() ? "ok" : s.status.ToString().c_str(),
                   static_cast<unsigned long long>(s.tuples),
                   static_cast<unsigned long long>(reference_.tuples),
                   s.digest == reference_.digest ? "matches" : "differs");
      continue;
    }
    round.delivered += s.tuples;
    for (size_t k = 0; k < s.ids.size(); ++k) {
      const int64_t due =
          w_.rate > 0 ? start_ns + static_cast<int64_t>(
                                       static_cast<double>(s.ids[k]) * 1e9 /
                                       w_.rate)
                      : start_ns;
      ages.Add(static_cast<double>(s.decode_ns[k] - due) * 1e-6);
    }
  }
  round.tuples_per_s =
      round.wall_s > 0 ? static_cast<double>(round.delivered) / round.wall_s
                       : 0.0;
  round.cpu_us_per_tuple =
      round.delivered > 0
          ? round.cpu_s * 1e6 / static_cast<double>(round.delivered)
          : 0.0;
  round.age_p50_ms = ages.Quantile(0.50);
  round.age_p99_ms = ages.Quantile(0.99);
  if (!traced) plain_ages_.Merge(ages);
  if (traced) {
    FillLayers(subs, queue_before, hist_before, bytes_before, &round);
    last_recorder_ = std::move(recorder);
  }
  return round;
}

void Bench::FillLayers(const std::vector<SubscriberResult>& subs,
                       const ChannelStats& queue_before,
                       const std::vector<uint64_t>& hist_before,
                       uint64_t bytes_before, RoundResult* round) {
  TracedRun run;
  {
    std::lock_guard<std::mutex> lock(state_.mu);
    run = std::move(state_.traced_run);
    state_.traced_run = TracedRun{};
  }
  LayerValues& v = round->layers;
  v["core.busy_s"] = run.core_busy_s;
  v["core.ns_per_tuple"] =
      run.core_tuples > 0 ? run.core_busy_s * 1e9 / run.core_tuples : 0.0;
  v["clean.busy_s"] = run.clean_busy_s;
  v["clean.ns_per_tuple"] =
      run.clean_tuples > 0 ? run.clean_busy_s * 1e9 / run.clean_tuples : 0.0;
  v["clean.fired"] = static_cast<double>(run.clean_stats.fired);
  v["clean.repaired"] = static_cast<double>(run.clean_stats.repaired);
  v["clean.dropped"] = static_cast<double>(run.clean_stats.tuples_dropped);
  v["stream.source_busy_s"] = run.source.busy_s;
  v["stream.source_lag_p99_ms"] = Quantile(run.source_lag_ms, 0.99);
  v["stream.batch_wait_p50_ms"] = Quantile(run.batch_wait_ms, 0.50);
  v["stream.batch_wait_p99_ms"] = Quantile(run.batch_wait_ms, 0.99);
  v["stream.blocked_pushes"] = static_cast<double>(run.runtime.blocked_pushes);
  v["stream.blocked_pops"] = static_cast<double>(run.runtime.blocked_pops);
  v["stream.peak_buffered_tuples"] =
      static_cast<double>(run.runtime.peak_buffered_tuples);
  v["net.fanout_cpu_s"] = run.fanout_cpu_s;
  v["net.fanout_blocked_s"] = run.fanout_blocked_s;

  uint64_t received = 0;
  double client_cpu = 0.0;
  double client_wall = 0.0;
  round->stages.emplace_back("source", run.source);
  for (size_t w = 0; w < run.polluters.size(); ++w) {
    round->stages.emplace_back("polluter" + std::to_string(w),
                               run.polluters[w]);
  }
  round->stages.emplace_back("sink", run.sink);
  for (size_t i = 0; i < subs.size(); ++i) {
    received += subs[i].tuples;
    client_cpu += subs[i].cpu_s;
    const double wall = Seconds(subs[i].end - subs[i].subscribe);
    client_wall += wall;
    // A client's busy time is its thread CPU; the rest of its life it
    // waits on the socket.
    StageTimes client;
    client.start = subs[i].subscribe;
    client.end = subs[i].end;
    client.busy_s = subs[i].cpu_s;
    client.wait_s = wall - subs[i].cpu_s;
    round->stages.emplace_back("client" + std::to_string(i), client);
  }
  obs::Counter* bytes = registry_.GetCounter("icewafl_server_bytes_sent_total");
  v["net.wire_bytes_per_tuple"] =
      received > 0 && bytes != nullptr
          ? static_cast<double>(bytes->value() - bytes_before) / received
          : 0.0;
  obs::Histogram* hist = registry_.GetHistogram(
      "icewafl_server_send_latency_seconds", {{"session", kSession}}, {});
  if (hist != nullptr) {
    const std::vector<uint64_t> after = hist->BucketCounts();
    v["net.queue_wait_p50_ms"] =
        DeltaQuantile(hist->bounds(), hist_before, after, 0.50) * 1e3;
    v["net.queue_wait_p99_ms"] =
        DeltaQuantile(hist->bounds(), hist_before, after, 0.99) * 1e3;
  }
  const ChannelStats queue = served_.server->frame_queue_stats();
  v["net.queue_blocked_pushes"] =
      static_cast<double>(queue.blocked_pushes - queue_before.blocked_pushes);
  v["net.queue_peak_frames"] = static_cast<double>(queue.peak_queued);
  v["net.client_cpu_s"] = client_cpu;
  v["net.client_wait_s"] = client_wall - client_cpu;
  v["net.client_ns_per_tuple"] =
      received > 0 ? client_cpu * 1e9 / static_cast<double>(received) : 0.0;
  double timed_cpu = run.source.busy_s + run.sink.busy_s + client_cpu;
  for (const StageTimes& p : run.polluters) timed_cpu += p.busy_s;
  v["other.cpu_s"] = round->cpu_s - timed_cpu;
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
  /// False for figures the report prints but the result object leaves
  /// out (see README.md: the paced p99 is too noisy to bound).
  bool in_result = true;
};

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"tuples_per_s", "1/s"},
      {"cpu_us_per_tuple", "us"},
      {"age_p50_ms", "ms"},
      {"age_p99_ms", "ms", /*in_result=*/false},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& LayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"data.generate_s", "s"},
      {"core.plan_bind_s", "s"},
      {"clean.compile_s", "s"},
      {"net.server_start_s", "s"},
      {"core.busy_s", "s"},
      {"core.ns_per_tuple", "ns"},
      {"clean.busy_s", "s"},
      {"clean.ns_per_tuple", "ns"},
      {"clean.fired", "count"},
      {"clean.repaired", "count"},
      {"clean.dropped", "count"},
      {"stream.source_busy_s", "s"},
      {"stream.source_lag_p99_ms", "ms"},
      {"stream.batch_wait_p50_ms", "ms"},
      {"stream.batch_wait_p99_ms", "ms"},
      {"stream.blocked_pushes", "count"},
      {"stream.blocked_pops", "count"},
      {"stream.peak_buffered_tuples", "count"},
      {"net.fanout_cpu_s", "s"},
      {"net.fanout_blocked_s", "s"},
      {"net.wire_bytes_per_tuple", "B"},
      {"net.queue_wait_p50_ms", "ms"},
      {"net.queue_wait_p99_ms", "ms"},
      {"net.queue_blocked_pushes", "count"},
      {"net.queue_peak_frames", "count"},
      {"net.client_cpu_s", "s"},
      {"net.client_wait_s", "s"},
      {"net.client_ns_per_tuple", "ns"},
      {"other.cpu_s", "s"},
      {"trace.overhead_frac", "frac"},
      {"tuples_failed_frac", "frac"},
  };
  return kMetrics;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void Bench::PrintReport(const std::vector<RoundResult>& rounds,
                        const std::vector<SetupTimes>& setups, double ref_s) {
  std::string frames;
  for (bool b : w_.batch_frames) {
    if (!frames.empty()) frames += ",";
    frames += b ? "batch" : "tuple";
  }
  std::printf("# bench_e2e workload=%s seed=%llu size=%s rows=%zu rate=%s "
              "subscribers=%zu frames=%s\n",
              w_.name.c_str(), static_cast<unsigned long long>(args_.seed),
              args_.tiny ? "tiny" : "full", served_.plan->clean->size(),
              w_.rate > 0 ? (Num(w_.rate) + "/s").c_str() : "unpaced",
              w_.batch_frames.size(), frames.c_str());
  std::printf("# pipeline=%s parallelism=1 trace=%d seconds=%s\n",
              w_.pipeline.c_str(), args_.trace ? 1 : 0,
              Num(args_.seconds).c_str());
  std::printf("# nproc=%u compiler=%s build=%s commit=%s\n",
              std::thread::hardware_concurrency(), Compiler().c_str(),
              ICEWAFL_BENCH_BUILD_TYPE, args_.commit.c_str());
  std::printf("# reference: RunPlanSegmentOffline(plan, 0, %zu) -> %llu "
              "tuples, digest %016llx, %.3f s in a child process (outside "
              "setup_s and peak_rss_mb)\n",
              served_.plan->clean->size(),
              static_cast<unsigned long long>(reference_.tuples),
              static_cast<unsigned long long>(reference_.digest), ref_s);

  std::printf("%-5s %-8s %12s %14s %11s %11s %9s %s\n", "round", "session",
              "tuples_per_s", "cpu_us_per_tup", "age_p50_ms", "age_p99_ms",
              "wall_s", "intact");
  for (size_t r = 0; r < rounds.size(); ++r) {
    const RoundResult& x = rounds[r];
    std::printf("%-5zu %-8s %12.0f %14.4f %11.3f %11.3f %9.4f %s\n", r,
                x.traced ? "traced" : "plain", x.tuples_per_s,
                x.cpu_us_per_tuple, x.age_p50_ms, x.age_p99_ms, x.wall_s,
                x.failed == 0 ? "yes" : "NO");
  }

  // Steadiness: each end-to-end metric across its plain rounds (setup_s
  // across its set-ups), as median and quartiles. The reported value
  // covers the whole run: throughput and CPU are totals over the plain
  // rounds, ages are percentiles over every tuple they decoded, setup_s
  // is the median set-up. Per-round throughput on a shared machine swings
  // between fast and slow rounds; a total moves smoothly with the mix
  // where a median of rounds jumps between the two.
  std::map<std::string, std::vector<double>> series;
  for (const RoundResult& x : rounds) {
    if (x.traced) continue;
    series["tuples_per_s"].push_back(x.tuples_per_s);
    series["cpu_us_per_tuple"].push_back(x.cpu_us_per_tuple);
    series["age_p50_ms"].push_back(x.age_p50_ms);
    series["age_p99_ms"].push_back(x.age_p99_ms);
  }
  for (const SetupTimes& s : setups) series["setup_s"].push_back(s.total_s);
  std::map<std::string, double> e2e;
  e2e["setup_s"] = Median(series["setup_s"]);
  const RunTotals plain = Totals(rounds, false);
  e2e["tuples_per_s"] = plain.tuples_per_s();
  e2e["cpu_us_per_tuple"] = plain.cpu_us_per_tuple();
  e2e["age_p50_ms"] = plain_ages_.Quantile(0.50);
  e2e["age_p99_ms"] = plain_ages_.Quantile(0.99);
  e2e["peak_rss_mb"] = PeakRssMb();

  std::printf("%-18s %14s %14s %14s %14s %5s %s\n", "metric", "reported",
              "round_median", "round_q1", "round_q3", "n", "unit");
  for (const MetricSpec& m : EndToEndMetrics()) {
    auto it = series.find(m.name);
    if (it == series.end()) {
      std::printf("%-18s %14.6g %14s %14s %14s %5s %s\n", m.name, e2e[m.name],
                  "-", "-", "-", "-", m.unit);
      continue;
    }
    std::printf("%-18s %14.6g %14.6g %14.6g %14.6g %5zu %s\n", m.name,
                e2e[m.name], Median(it->second), Quantile(it->second, 0.25),
                Quantile(it->second, 0.75), it->second.size(), m.unit);
  }
  std::printf("%-18s %14llu %14s %14s %14s %5s %s\n", "age_samples",
              static_cast<unsigned long long>(plain_ages_.count()), "-", "-",
              "-", "-", "count");

  uint64_t attempted = warmup_attempted_;
  uint64_t failed = warmup_failed_;
  for (const RoundResult& x : rounds) {
    attempted += x.attempted;
    failed += x.failed;
  }
  const double failed_frac =
      attempted > 0 ? static_cast<double>(failed) / attempted : 1.0;
  std::printf("%-18s %14.6g %14s %14s %14s %5s %s\n", "tuples_failed_frac",
              failed_frac, "-", "-", "-", "-", "frac");
  std::printf("digest: every subscriber of every round %s the offline "
              "reference\n",
              failed == 0 ? "matches" : "does NOT match");

  bool correct = failed == 0 && attempted > 0;
  std::map<std::string, double> out_metrics;
  if (!args_.trace) {
    out_metrics = e2e;
  } else {
    // Per-layer metrics: the median over traced rounds, plus set-up
    // layers over the set-ups.
    std::map<std::string, std::vector<double>> layers;
    size_t traced_rounds = 0;
    for (const RoundResult& x : rounds) {
      traced_rounds += x.traced ? 1 : 0;
      for (const auto& [name, value] : x.layers) layers[name].push_back(value);
    }
    for (const SetupTimes& s : setups) {
      layers["data.generate_s"].push_back(s.generate_s);
      layers["core.plan_bind_s"].push_back(s.bind_s);
      layers["clean.compile_s"].push_back(s.compile_s);
      layers["net.server_start_s"].push_back(s.start_s);
    }
    for (const auto& [name, values] : layers) out_metrics[name] = Median(values);
    const double plain_tps = plain.tuples_per_s();
    out_metrics["trace.overhead_frac"] =
        plain_tps > 0 ? 1.0 - Totals(rounds, true).tuples_per_s() / plain_tps
                      : 0.0;
    out_metrics["tuples_failed_frac"] = failed_frac;

    // Busy + wait per stage thread, from the last traced round, and the
    // stage with the highest busy share over the traced rounds.
    std::map<std::string, std::vector<double>> share;
    bool tiles = true;
    for (const RoundResult& x : rounds) {
      for (const auto& [stage, t] : x.stages) {
        tiles = tiles && t.Tiles();
        if (t.lifetime_s() > 0) share[stage].push_back(t.busy_s / t.lifetime_s());
      }
    }
    const RoundResult* last_traced = nullptr;
    for (const RoundResult& x : rounds) {
      if (x.traced) last_traced = &x;
    }
    std::printf("%-10s %10s %10s %10s %8s %s\n", "stage", "busy_s", "wait_s",
                "life_s", "busy%", "busy+wait=life (1% or 1 ms)");
    if (last_traced != nullptr) {
      for (const auto& [stage, t] : last_traced->stages) {
        std::printf("%-10s %10.4f %10.4f %10.4f %7.1f%% %s\n", stage.c_str(),
                    t.busy_s, t.wait_s, t.lifetime_s(),
                    t.lifetime_s() > 0 ? 100.0 * t.busy_s / t.lifetime_s() : 0.0,
                    t.Tiles() ? "ok" : "FAIL");
      }
    }
    std::string bottleneck = "none";
    double best = -1.0;
    for (const auto& [stage, values] : share) {
      if (Median(values) > best) {
        best = Median(values);
        bottleneck = stage;
      }
    }
    std::printf("bottleneck: %s (median busy share %.1f%% over %zu traced "
                "rounds)\n",
                bottleneck.c_str(), 100.0 * best, traced_rounds);
    std::printf("trace: traced and plain rounds decode the same digest; "
                "overhead %.2f%% of plain tuples_per_s\n",
                100.0 * out_metrics["trace.overhead_frac"]);
    std::printf("%-28s %16s %s\n", "layer", "median", "unit");
    for (const MetricSpec& m : LayerMetrics()) {
      std::printf("%-28s %16.6g %s\n", m.name, out_metrics[m.name], m.unit);
    }
    if (!args_.trace_out.empty() && last_recorder_ != nullptr) {
      std::ofstream trace(args_.trace_out);
      trace << last_recorder_->ToChromeTraceJson();
      std::printf("trace: %zu spans of the last traced round -> %s\n",
                  last_recorder_->size(), args_.trace_out.c_str());
    }
    correct = correct && tiles && traced_rounds > 0;
    if (!tiles) std::printf("busy + wait check FAILED on some stage\n");
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& m :
       args_.trace ? LayerMetrics() : EndToEndMetrics()) {
    if (!m.in_result) continue;
    if (!first) json += ", ";
    first = false;
    json += "\"" + std::string(m.name) + "\": {\"value\": " +
            Num(out_metrics[m.name]) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

Status Bench::Resetup(SetupTimes* times) {
  if (served_.server != nullptr) {
    served_.server->StopSession(kSession);
    Status st = served_.server->Wait();
    served_.server.reset();
    served_.plan.reset();
    ICEWAFL_RETURN_NOT_OK(st);
  }
  return SetUp(w_, args_, &state_, args_.trace ? &registry_ : nullptr,
               &served_, times);
}

int Bench::Run() {
  const Clock::time_point ref_start = Clock::now();
  Status ref_status = ComputeReference(w_, args_, &reference_);
  if (!ref_status.ok()) {
    std::fprintf(stderr, "%s\n", ref_status.ToString().c_str());
    return 2;
  }
  const double ref_s = Seconds(Clock::now() - ref_start);
  if (args_.corrupt_reference) reference_.digest ^= 1;

  std::vector<SetupTimes> setups;
  auto setup = [&]() {
    SetupTimes times;
    Status st = Resetup(&times);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return false;
    }
    setups.push_back(times);
    return true;
  };
  if (!setup()) return 2;

  std::vector<RoundResult> rounds;
  RoundResult warmup = ServeRound(false);
  plain_ages_ = LatencyHistogram();
  bool healthy = warmup.ok;
  const Clock::time_point start = Clock::now();
  const size_t min_rounds = args_.trace ? 4 : 3;
  while (healthy && (rounds.size() < min_rounds ||
                     Seconds(Clock::now() - start) < args_.seconds)) {
    // Replace the server between rounds at an even pace over the run;
    // only one set-up's dataset is alive at a time.
    const double done =
        std::min(1.0, Seconds(Clock::now() - start) / args_.seconds);
    if (static_cast<double>(setups.size()) <
        1.0 + static_cast<double>(kSetups - 1) * done) {
      if (!setup()) return 2;
    }
    rounds.push_back(ServeRound(args_.trace && rounds.size() % 2 == 1));
    healthy = rounds.back().ok;
  }
  while (healthy && setups.size() < kSetups) {
    if (!setup()) return 2;
  }
  // The warm-up's correctness counts; its timings do not.
  warmup_attempted_ = warmup.attempted;
  warmup_failed_ = warmup.failed;

  served_.server->StopSession(kSession);
  Status st = served_.server->Wait();
  if (!st.ok()) {
    std::fprintf(stderr, "server finished with: %s\n", st.ToString().c_str());
  }
  PrintReport(rounds, setups, ref_s);
  return 0;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload NAME --seed N "
               "--seconds S --trace 0|1 [--size full|tiny] [--root DIR] "
               "[--commit REV] [--trace-out PATH] [--corrupt-reference]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace bench
}  // namespace icewafl

int main(int argc, char** argv) {
  using namespace icewafl::bench;  // NOLINT
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      args.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") return Usage("bad --size");
      args.tiny = value == "tiny";
    } else if (flag == "--root") {
      args.root = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (std::string(ICEWAFL_BENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "bench_e2e: refusing to report from a '%s' build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 ICEWAFL_BENCH_BUILD_TYPE);
    return 2;
  }
  auto workload = FindWorkload(args.workload, args.tiny);
  if (!workload.ok()) return Usage(workload.status().ToString().c_str());
  Bench bench(args, std::move(workload).ValueOrDie());
  return bench.Run();
}
