#include "core/process.h"

#include <algorithm>

namespace icewafl {

PollutionProcess::PollutionProcess(ProcessOptions options)
    : options_(std::move(options)) {}

void PollutionProcess::AddPipeline(PollutionPipeline pipeline) {
  pipelines_.push_back(std::move(pipeline));
}

namespace {

/// Applies `pipeline` to one prepared tuple; mirrors the per-tuple
/// context reset of the materializing implementation exactly so seeded
/// runs stay byte-identical.
Status PolluteTuple(const PollutionPipeline& pipeline, Tuple* t,
                    PollutionContext* ctx, PollutionLog* log) {
  ctx->tau = t->event_time();
  ctx->severity = 1.0;
  ctx->rng = nullptr;
  return pipeline.Apply(t, ctx, log);
}

}  // namespace

Result<PollutionResult> PollutionProcess::Run(Source* source) {
  const int m = options_.num_substreams;
  if (m < 1) {
    return Status::InvalidArgument("num_substreams must be >= 1");
  }
  if (static_cast<int>(pipelines_.size()) != m) {
    return Status::InvalidArgument(
        "expected " + std::to_string(m) + " pipelines, got " +
        std::to_string(pipelines_.size()));
  }
  if (options_.overlap_fraction < 0.0 || options_.overlap_fraction > 1.0) {
    return Status::InvalidArgument("overlap_fraction must be in [0, 1]");
  }
  if (options_.stream_start.has_value() != options_.stream_end.has_value()) {
    return Status::InvalidArgument(
        "stream_start and stream_end must be set together");
  }
  if (options_.stream_start.has_value() &&
      *options_.stream_start > *options_.stream_end) {
    return Status::InvalidArgument(
        "stream_start must be <= stream_end (got start=" +
        std::to_string(*options_.stream_start) +
        ", end=" + std::to_string(*options_.stream_end) + ")");
  }

  PollutionResult result;
  result.schema = source->schema();

  // --- Step 1: prepare data -------------------------------------------
  // Assign ids, replicate the timestamp into the event-time replica tau,
  // and initialize the arrival time (Algorithm 1, lines 1-3).
  ICEWAFL_ASSIGN_OR_RETURN(result.clean, CollectAll(source));
  TupleId next_id = 0;
  for (Tuple& t : result.clean) {
    t.set_id(next_id++);
    ICEWAFL_ASSIGN_OR_RETURN(Timestamp ts, t.GetTimestamp());
    t.set_event_time(ts);
    t.set_arrival_time(ts);
  }

  Timestamp stream_start = 0;
  Timestamp stream_end = 0;
  if (options_.stream_start.has_value()) {
    stream_start = *options_.stream_start;
    stream_end = *options_.stream_end;
  } else if (!result.clean.empty()) {
    // Derive bounds from the prepared input.
    stream_start = result.clean.front().event_time();
    stream_end = stream_start;
    for (const Tuple& t : result.clean) {
      stream_start = std::min(stream_start, t.event_time());
      stream_end = std::max(stream_end, t.event_time());
    }
  }

  // --- Steps 2+3: split -> pollute -> collect, streamed ----------------
  // The split (line 4) assigns tuples round-robin (deterministic and
  // balanced); with probability overlap_fraction a tuple is copied into
  // a second, different sub-stream drawn from the process RNG. Instead
  // of materializing all m sub-streams and polluting them afterwards,
  // each assigned copy flows straight into its sub-stream's pipeline
  // (lines 5-9). Pipelines are independent, so interleaving sub-streams
  // consumes each pipeline's random stream in exactly the order the
  // sub-stream-at-a-time implementation did, and seeded output does not
  // change. Bind every pipeline against the source schema up front
  // (DESIGN.md §8): misconfiguration fails here with a JSON-pointer path
  // instead of surfacing on the first tuple.
  if (result.schema != nullptr) {
    for (PollutionPipeline& pipeline : pipelines_) {
      ICEWAFL_RETURN_NOT_OK(pipeline.Bind(result.schema));
    }
  }

  Rng master(options_.seed);
  Rng assign_rng = master.Fork();
  for (PollutionPipeline& pipeline : pipelines_) {
    pipeline.Seed(master.Next());
  }

  std::vector<TupleVector> outputs(static_cast<size_t>(m));
  std::vector<PollutionLog> logs(static_cast<size_t>(m));

  std::vector<PollutionContext> contexts(static_cast<size_t>(m));
  for (PollutionContext& ctx : contexts) {
    ctx.stream_start = stream_start;
    ctx.stream_end = stream_end;
  }
  // Each prepared copy is polluted as it is assigned, in input order —
  // primary assignment first, then the optional overlap duplicate.
  auto deliver = [&](int substream, Tuple tuple) -> Status {
    const auto s = static_cast<size_t>(substream);
    ICEWAFL_RETURN_NOT_OK(PolluteTuple(
        pipelines_[s], &tuple, &contexts[s],
        options_.enable_log ? &logs[s] : nullptr));
    outputs[s].push_back(std::move(tuple));
    return Status::OK();
  };
  for (size_t i = 0; i < result.clean.size(); ++i) {
    const int primary = static_cast<int>(i % static_cast<size_t>(m));
    Tuple copy = result.clean[i];
    copy.set_substream(primary);
    ICEWAFL_RETURN_NOT_OK(deliver(primary, std::move(copy)));
    if (m > 1 && assign_rng.Bernoulli(options_.overlap_fraction)) {
      int other = static_cast<int>(
          assign_rng.UniformInt(0, static_cast<int64_t>(m) - 2));
      if (other >= primary) ++other;
      Tuple dup = result.clean[i];
      dup.set_substream(other);
      ICEWAFL_RETURN_NOT_OK(deliver(other, std::move(dup)));
    }
  }

  // --- Step 3: integrate and output (lines 10-11) ---------------------
  size_t total = 0;
  for (const TupleVector& s : outputs) total += s.size();
  result.polluted.reserve(total);
  for (TupleVector& s : outputs) {
    for (Tuple& t : s) result.polluted.push_back(std::move(t));
  }
  std::stable_sort(result.polluted.begin(), result.polluted.end(),
                   [](const Tuple& a, const Tuple& b) {
                     if (a.arrival_time() != b.arrival_time()) {
                       return a.arrival_time() < b.arrival_time();
                     }
                     return a.id() < b.id();
                   });
  for (PollutionLog& log : logs) {
    for (const PollutionLogEntry& e : log.entries()) {
      result.log.Record(e);
    }
  }
  return result;
}

Result<PollutionResult> PollutionProcess::Pollute(Source* source,
                                                  PollutionPipeline pipeline,
                                                  uint64_t seed,
                                                  bool enable_log) {
  ProcessOptions options;
  options.num_substreams = 1;
  options.seed = seed;
  options.enable_log = enable_log;
  PollutionProcess process(options);
  process.AddPipeline(std::move(pipeline));
  return process.Run(source);
}

}  // namespace icewafl
