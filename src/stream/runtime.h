#ifndef ICEWAFL_STREAM_RUNTIME_H_
#define ICEWAFL_STREAM_RUNTIME_H_

#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/channel.h"
#include "stream/operator.h"
#include "stream/sink.h"
#include "stream/source.h"
#include "util/result.h"

namespace icewafl {

/// \brief Tuning knobs of the pipelined runtime.
struct RuntimeOptions {
  /// Number of concurrent operator-chain workers (>= 1). Tuples are
  /// partitioned round-robin (tuple i -> worker i % parallelism).
  int parallelism = 1;

  /// Tuples per batch handed between stages. Batching amortizes channel
  /// locking and per-operator virtual dispatch.
  size_t batch_size = 256;

  /// Batches each inter-stage channel may buffer before `Push` blocks.
  /// Peak tuple buffering of a run is O(channel_capacity * batch_size *
  /// parallelism) regardless of stream length. Spent batches return
  /// from the sink to the source, and a run never holds more batches
  /// than fit in its channels and stages at once (2 * channel_capacity
  /// * parallelism + 3 * parallelism + 1).
  size_t channel_capacity = 4;

  /// Optional observability sinks (not owned; may be nullptr). When set,
  /// the runtime publishes per-stage counters / histograms into the
  /// registry and one span per stage into the recorder. When unset the
  /// cost is a pointer-null check per batch; instrumentation never
  /// touches the data path or the random streams, so output stays
  /// byte-identical either way.
  obs::MetricRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
};

/// \brief Per-stage traffic counters of one runtime execution.
struct StageStats {
  std::string stage;          ///< "source", "worker<i>", or "sink".
  uint64_t tuples_in = 0;     ///< Tuples entering the stage.
  uint64_t tuples_out = 0;    ///< Tuples leaving the stage.
  uint64_t batches = 0;       ///< Batches handled.
  uint64_t blocked_pushes = 0;  ///< Pushes that hit backpressure.
  uint64_t blocked_pops = 0;    ///< Pops that found the channel empty.
};

/// \brief Aggregate statistics of one `PipelineRuntime::Run`.
struct RuntimeStats {
  std::vector<StageStats> stages;
  uint64_t source_tuples = 0;  ///< Tuples read from the source.
  uint64_t sink_tuples = 0;    ///< Tuples written to the sink.
  uint64_t batches = 0;        ///< Batches emitted by the source stage.
  uint64_t blocked_pushes = 0;  ///< Total backpressure events.
  /// Total starvation events — pops that found their channel empty. High
  /// values on worker stages mean the source is the bottleneck; on the
  /// sink they mean the workers are.
  uint64_t blocked_pops = 0;
  /// Rejected non-blocking pushes across all channels (TryPush hitting a
  /// full or closed channel). The runtime's own stages always block, so
  /// these stay zero here; embedders that drive runtime channels with
  /// TryPush (the serving fan-out) see their rejections accounted.
  uint64_t try_push_full = 0;
  uint64_t try_push_closed = 0;
  /// Largest number of tuples queued in channels at any point — the
  /// steady-state memory footprint of the pipeline (compare against the
  /// stream length).
  uint64_t peak_buffered_tuples = 0;
  double wall_seconds = 0.0;

  /// \brief One-line summary for logs and bench harnesses.
  std::string ToString() const;
};

/// \brief Pipelined streaming runtime: Source -> operator chains -> Sink
/// as concurrently running stages connected by bounded channels.
///
/// Execution model (Flink-style task pipeline):
///  - a *source stage* thread pulls tuples, partitions them round-robin
///    over `parallelism` workers, and pushes fixed-size batches into
///    per-worker bounded input channels (blocking push = backpressure;
///    the source never runs ahead of the slowest worker by more than the
///    channel capacity);
///  - each *worker* thread owns a private operator-chain instance
///    (operators are stateful and must not be shared) and drives batches
///    through it via the batched operator path
///    (`Operator::ProcessBatch`), pushing one output batch per input
///    batch into its bounded output channel; after its input closes it
///    flushes `Finish()` state front-to-back through the remaining chain;
///  - the *sink stage* (caller thread) pops output batches in a
///    deterministic worker rotation and hands each to the sink, then
///    returns the spent batch to the source through a bounded pool; the
///    source fills its next batch from that pool, so rows a sink leaves
///    in place come back with their value buffers and are overwritten
///    without a per-row allocation.
///
/// No stage ever holds the whole stream: peak buffering is bounded by
/// the channel capacities, so an unbounded source streams at
/// steady-state memory. Output order is deterministic (a pure function
/// of the input order and parallelism) but interleaves worker outputs; order-sensitive callers either run
/// with parallelism 1 (exact input order) or re-sort downstream, as the
/// pollution process does with its arrival-time merge.
///
/// Errors from any stage cancel the run: channels are poisoned so every
/// blocked stage wakes, and the first non-OK status (source before
/// workers before sink) is returned.
///
/// Concurrency contract (checked under `-Wthread-safety`, see
/// util/sync.h and DESIGN.md §12): the runtime owns no mutex of its
/// own. The bounded channels are the only cross-thread mechanism — both
/// data transfer and the stop signal (Close/Poison) flow through their
/// internal lock (`kLockRankChannel`). Everything else is partitioned by
/// construction: each StageStats slot and each Status slot is written by
/// exactly one stage thread while that thread is alive, and the joins at
/// the end of Run() are the synchronization point after which the caller
/// thread reads them. `stats()` is therefore only meaningful between
/// runs, never while Run() is executing on another thread.
class PipelineRuntime {
 public:
  using ChainFactory = std::function<OperatorChain(int worker_index)>;

  explicit PipelineRuntime(RuntimeOptions options = {})
      : options_(options) {}

  /// \brief Runs the topology to completion (bounded source).
  /// `chain_factory` is invoked once per worker on the worker thread.
  Status Run(Source* source, const ChainFactory& chain_factory, Sink* sink);

  /// \brief Convenience single-worker overload over non-owned operators;
  /// preserves exact input order (parallelism is forced to 1).
  Status Run(Source* source, const std::vector<Operator*>& ops, Sink* sink);

  /// \brief Statistics of the most recent Run.
  const RuntimeStats& stats() const { return stats_; }

 private:
  RuntimeOptions options_;
  RuntimeStats stats_;
};

}  // namespace icewafl

#endif  // ICEWAFL_STREAM_RUNTIME_H_
