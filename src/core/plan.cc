#include "core/plan.h"

#include <cmath>
#include <utility>

#include "stream/runtime.h"

namespace icewafl {

namespace {

/// How long a paced plan's runtime batch takes to fill at its pace.
/// Shorter batches cut latency further but cost CPU per row: at 1 ms
/// the extra batches outweighed the pacing sleeps they save.
constexpr double kPacedBatchSeconds = 0.002;

}  // namespace

size_t PlanBatchRows(const PlanSnapshot& plan) {
  const size_t full = RuntimeOptions{}.batch_size;
  if (!(plan.tuples_per_sec > 0) || plan.parallelism > 1) return full;
  const double rows = std::ceil(plan.tuples_per_sec * kPacedBatchSeconds);
  if (rows >= static_cast<double>(full)) return full;
  return rows < 1 ? 1 : static_cast<size_t>(rows);
}

Result<std::shared_ptr<PlanSnapshot>> MakePlanSnapshot(
    std::string scenario, Json config, SchemaPtr schema,
    std::shared_ptr<const TupleVector> clean, PollutionPipeline pipeline,
    uint64_t seed, int parallelism, Timestamp stream_start,
    Timestamp stream_end, double tuples_per_sec) {
  if (schema == nullptr) {
    return Status::InvalidArgument("plan snapshot needs a schema");
  }
  if (clean == nullptr) {
    return Status::InvalidArgument("plan snapshot needs a clean stream");
  }
  ICEWAFL_RETURN_NOT_OK(pipeline.Bind(schema));
  auto plan = std::make_shared<PlanSnapshot>();
  plan->scenario = std::move(scenario);
  plan->config = std::move(config);
  plan->schema = std::move(schema);
  plan->clean = std::move(clean);
  plan->pipeline = std::move(pipeline);
  plan->seed = seed;
  plan->parallelism = parallelism < 1 ? 1 : parallelism;
  plan->stream_start = stream_start;
  plan->stream_end = stream_end;
  plan->tuples_per_sec = tuples_per_sec < 0 ? 0.0 : tuples_per_sec;
  return plan;
}

std::shared_ptr<PlanSnapshot> ClonePlan(const PlanSnapshot& plan) {
  auto copy = std::make_shared<PlanSnapshot>();
  copy->scenario = plan.scenario;
  copy->config = plan.config;
  copy->schema = plan.schema;
  copy->clean = plan.clean;
  copy->pipeline = plan.pipeline.Clone();
  copy->seed = plan.seed;
  copy->parallelism = plan.parallelism;
  copy->stream_start = plan.stream_start;
  copy->stream_end = plan.stream_end;
  copy->tuples_per_sec = plan.tuples_per_sec;
  copy->cleaner = plan.cleaner;
  // version / published_at stay unset: the publisher assigns them.
  return copy;
}

}  // namespace icewafl
