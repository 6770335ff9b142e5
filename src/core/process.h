#ifndef ICEWAFL_CORE_PROCESS_H_
#define ICEWAFL_CORE_PROCESS_H_

#include <optional>
#include <vector>

#include "core/pipeline.h"
#include "core/pollution_log.h"
#include "stream/source.h"

namespace icewafl {

/// \brief Configuration of the end-to-end pollution process.
struct ProcessOptions {
  /// Number m of (overlapping) sub-streams; one pipeline per sub-stream
  /// must be registered. m = 1 disables splitting.
  int num_substreams = 1;

  /// Probability that a tuple is additionally copied into a second,
  /// different sub-stream. Overlap produces fuzzy duplicates after the
  /// merge (Section 2.2.2) because the copies are polluted independently.
  double overlap_fraction = 0.0;

  /// Master seed: sub-stream assignment and every pipeline derive their
  /// random streams from it, making the whole run reproducible.
  uint64_t seed = 0x1CE3AF1ULL;

  /// Record every injected error into the result's PollutionLog.
  bool enable_log = true;

  /// Explicit stream bounds for stream-relative profiles (Equations 3/4).
  /// Set both or neither; when unset, bounds are derived from the
  /// prepared input's minimum and maximum event time. When set,
  /// `stream_start <= stream_end` is validated at Run.
  std::optional<Timestamp> stream_start;
  std::optional<Timestamp> stream_end;
};

/// \brief Output of a pollution run.
struct PollutionResult {
  SchemaPtr schema;
  /// D_c: the prepared clean stream (ids and event-time replicas
  /// assigned), in input order.
  TupleVector clean;
  /// D_p: the merged polluted stream, ordered by arrival time (stable:
  /// ties keep input order), each tuple tagged with its sub-stream.
  TupleVector polluted;
  /// Ground-truth record of injected errors (empty if logging disabled).
  PollutionLog log;
};

/// \brief Icewafl's data stream pollution process (Algorithm 1).
///
/// Step 1 prepares the data: every tuple receives a unique id and an
/// event-time replica tau of its timestamp, and the stream is split into
/// m (overlapping) sub-streams. Step 2 pushes every sub-stream tuple
/// through the sub-stream's pollution pipeline. Step 3 merges the
/// polluted sub-streams (union of tuples, tagged with the sub-stream id)
/// and orders the result by arrival time.
///
/// Steps 2 and 3 are streamed: the split feeds each sub-stream's
/// pipeline tuple-wise instead of materializing every sub-stream up
/// front. Output is byte-identical to the materializing implementation
/// for the same seed and configuration.
class PollutionProcess {
 public:
  explicit PollutionProcess(ProcessOptions options);

  /// \brief Registers the pipeline for the next sub-stream. Exactly
  /// `options.num_substreams` pipelines must be added before Run.
  void AddPipeline(PollutionPipeline pipeline);

  /// \brief Runs the three steps over a bounded source.
  Result<PollutionResult> Run(Source* source);

  /// \brief Convenience entry point for the common single-pipeline case.
  static Result<PollutionResult> Pollute(Source* source,
                                         PollutionPipeline pipeline,
                                         uint64_t seed, bool enable_log = true);

 private:
  ProcessOptions options_;
  std::vector<PollutionPipeline> pipelines_;
};

}  // namespace icewafl

#endif  // ICEWAFL_CORE_PROCESS_H_
