#ifndef ICEWAFL_CORE_PLAN_H_
#define ICEWAFL_CORE_PLAN_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/pipeline.h"
#include "stream/tuple.h"
#include "util/json.h"
#include "util/result.h"

namespace icewafl {

/// \file
/// Versioned immutable execution plans (DESIGN.md section 14).
///
/// A PlanSnapshot freezes everything one serving session needs to
/// replay its polluted stream deterministically: the clean dataset, the
/// bound pollution pipeline, the seed/parallelism knobs, the
/// stream-relative profile bounds, and the pacing rate. Snapshots are
/// published through `shared_ptr<const PlanSnapshot>` with a
/// monotonically increasing per-session version, so a running pipeline
/// and a concurrent reconfiguration never race on shared mutable state:
/// the server swaps the pointer, in-flight rows finish under the old
/// snapshot, and the serving runner adopts the newest snapshot at the
/// next cutover boundary (scenarios::ServePlanToSink).

/// \brief One immutable, versioned execution plan of a serving session.
///
/// Mutable only between construction and publication: the publisher
/// (PollutionServer::SwapPlan / AddSession) assigns `version` and
/// `published_at`, then freezes the snapshot behind a PlanPtr. Never
/// mutate a snapshot that has been published.
struct PlanSnapshot {
  /// Monotonically increasing per session, starting at 1; assigned by
  /// the publisher immediately before the snapshot is frozen.
  uint64_t version = 0;
  /// The scenario this plan was built from ("custom" when compiled from
  /// a raw pipeline document over the admin channel).
  std::string scenario;
  /// The pipeline document the plan was compiled from (the lintable
  /// ToJson form) — what `admin get_config` reports.
  Json config;
  SchemaPtr schema;
  /// The clean stream the pipeline pollutes. Shared (not copied) across
  /// snapshots that only changed the pipeline or the rate.
  std::shared_ptr<const TupleVector> clean;
  /// Bound prototype; per-worker Clone()s share the bound plan.
  PollutionPipeline pipeline;
  uint64_t seed = 42;
  int parallelism = 1;
  /// Full-stream bounds for stream-relative profiles (Equations 3/4).
  /// Kept identical across versions of one session, so a mid-stream
  /// swap does not shift profile positions.
  Timestamp stream_start = 0;
  Timestamp stream_end = 0;
  /// Serving pace in rows per second; 0 streams unpaced. Pacing never
  /// changes the produced bytes, only their timing (and, at parallelism
  /// 1, the runtime batch size: PlanBatchRows).
  double tuples_per_sec = 0.0;
  /// Optional cleaning document (clean::RulesFromJson shape) applied to
  /// the polluted stream of every segment — null serves uncleaned. Kept
  /// as the raw JSON so the core stays free of the cleaning layer; the
  /// scenarios runner compiles and validates it (set_cleaner rejects a
  /// broken document before a snapshot exists). Cleaner state is fresh
  /// per plan segment, preserving the cutover determinism contract.
  Json cleaner;
  /// Publication instant (swap-latency measurement).
  std::chrono::steady_clock::time_point published_at{};
};

/// \brief How every layer above the publisher holds a plan.
using PlanPtr = std::shared_ptr<const PlanSnapshot>;

/// \brief One contiguous slice of a serving run executed under a single
/// plan version. A run's output is the concatenation of its segments,
/// each byte-identical to an offline run of that segment's plan over
/// the same clean-row slice (the cutover determinism contract).
struct PlanSegment {
  uint64_t version = 0;
  /// First clean-stream row (0-based) of the segment.
  uint64_t start_row = 0;
};

/// \brief What a plan-driven session function receives per run.
///
/// `plan` is the snapshot current when the run started; `latest`
/// re-reads the newest published snapshot (both may be null for
/// sessions that do not serve plans). `on_segment` — when set — is
/// invoked once per adopted segment, before its first row is produced;
/// the server uses it for cutover bookkeeping and swap-latency metrics.
struct PlanContext {
  PlanPtr plan;
  std::function<PlanPtr()> latest;
  std::function<void(const PlanSegment&)> on_segment;
};

/// \brief Assembles an as-yet unpublished snapshot, binding `pipeline`
/// against `schema` (JSON-pointer bind errors surface here, before the
/// plan can ever be published). `config` should be the pipeline's
/// lintable JSON document; `version`/`published_at` are left for the
/// publisher.
Result<std::shared_ptr<PlanSnapshot>> MakePlanSnapshot(
    std::string scenario, Json config, SchemaPtr schema,
    std::shared_ptr<const TupleVector> clean, PollutionPipeline pipeline,
    uint64_t seed, int parallelism, Timestamp stream_start,
    Timestamp stream_end, double tuples_per_sec = 0.0);

/// \brief The runtime batch size every run of `plan` uses, served or
/// offline (DESIGN.md section 5). A paced plan at parallelism 1 gets
/// the rows its pace fills in about 2 ms, `ceil(tuples_per_sec *
/// 0.002)` clamped to [1, 256], so a row waits at most that long for
/// its batch to leave the source. Unpaced plans and plans above
/// parallelism 1 keep the runtime default of 256: at P > 1 the sink
/// rotates over batches, so there the batch size is part of the output
/// and pacing must not change it.
size_t PlanBatchRows(const PlanSnapshot& plan);

/// \brief Deep-copies `plan` into a fresh unpublished snapshot (the
/// pipeline is Clone()d — bound state shared, mutable state fresh).
/// The base of every delta update (e.g. `admin set_rate`): clone,
/// mutate the copy, republish.
std::shared_ptr<PlanSnapshot> ClonePlan(const PlanSnapshot& plan);

}  // namespace icewafl

#endif  // ICEWAFL_CORE_PLAN_H_
