// Shared pieces of the end-to-end serving benchmark (README.md): clocks,
// the decoded-stream digest, and the traced session function that
// rebuilds the plan-driven serve path from public parts with a timer
// around each layer's calls.

#ifndef ICEWAFL_BENCH_E2E_BENCH_E2E_H_
#define ICEWAFL_BENCH_E2E_BENCH_E2E_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "clean/cleaner.h"
#include "core/plan.h"
#include "obs/trace.h"
#include "stream/runtime.h"
#include "stream/sink.h"
#include "stream/tuple.h"
#include "util/status.h"

namespace icewafl {
namespace bench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// CPU time of the calling thread.
double ThreadCpuSeconds();

/// User plus system CPU time of the whole process.
double ProcessCpuSeconds();

/// \brief Order-sensitive 64-bit digest over decoded tuples: row
/// metadata plus every value's type and payload, hashed straight from
/// the decoded `Value`s (no re-encoding).
class Digest {
 public:
  void Add(const Tuple& tuple);
  uint64_t value() const { return h_; }

 private:
  void Mix(uint64_t word) {
    h_ ^= word + 0x9E3779B97F4A7C15ULL + (h_ << 6) + (h_ >> 2);
    h_ *= 0x100000001B3ULL;
  }
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Digest of a whole tuple vector (the offline reference).
uint64_t DigestOf(const TupleVector& tuples);

/// \brief Time accounting of one stage thread: busy and wait are summed
/// from separate intervals; start/end bound the stage's lifetime.
struct StageTimes {
  double busy_s = 0.0;
  double wait_s = 0.0;
  Clock::time_point start{};
  Clock::time_point end{};

  double lifetime_s() const { return Seconds(end - start); }
  /// Busy plus wait equals the lifetime within 1% or 1 ms.
  bool Tiles() const;
};

/// \brief What one traced session run measured, layer by layer.
struct TracedRun {
  StageTimes source;
  std::vector<StageTimes> polluters;  ///< one per runtime worker
  StageTimes sink;  ///< runtime sink stage: cleaner + server sink
  std::vector<float> source_lag_ms;  ///< per row: emit time - due time
  std::vector<float> batch_wait_ms;  ///< per batch: polluter entry - due
  double core_busy_s = 0.0;
  uint64_t core_tuples = 0;
  double clean_busy_s = 0.0;
  uint64_t clean_tuples = 0;
  clean::CleanStats clean_stats;
  double fanout_cpu_s = 0.0;
  double fanout_blocked_s = 0.0;
  RuntimeStats runtime;
};

/// Records one complete span on `recorder` (no-op when null), placed on
/// the recorder's own time line.
void RecordSpan(obs::TraceRecorder* recorder, const std::string& name,
                const char* category, int64_t tid, Clock::time_point start,
                Clock::time_point end);

/// Trace tracks: one per stage thread.
constexpr int64_t kSourceTrack = 1;
constexpr int64_t kPolluterTrack = 2;  ///< + worker index
constexpr int64_t kSinkTrack = 100;
constexpr int64_t kClientTrack = 200;  ///< + subscriber index

/// Rows per trace span; equals the runtime's default batch size.
inline size_t SpanRows() { return RuntimeOptions{}.batch_size; }

/// Span name shared by every layer's span of the batch holding `row`.
std::string BatchName(uint64_t row);

/// \brief Traced twin of scenarios::ServePlanToSink for one segment (the
/// benchmark never swaps plans): a paced Source that reproduces the
/// plan's schedule, PipelineRuntime::Run over timed PolluterOperator
/// chains, the plan's cleaner as a timed kAll CleanerOperator, and a
/// timed wrapper around the server's sink. Output bytes equal the
/// untraced path's. `run_start` is the due time of row 0.
Status RunTracedSession(const PlanContext& ctx, Sink* server_sink,
                        Clock::time_point run_start,
                        obs::TraceRecorder* recorder, TracedRun* out);

}  // namespace bench
}  // namespace icewafl

#endif  // ICEWAFL_BENCH_E2E_BENCH_E2E_H_
