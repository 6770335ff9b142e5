// The traced session function: scenarios::ServePlanToSink rebuilt from
// public parts, with a timer around every call into a layer. Each class
// below mirrors one hidden stage of the untraced path (PlanSegmentSource,
// the PolluterOperator chain, CleaningSink) so the served bytes stay the
// same; the benchmark checks that by digest.

#include <algorithm>
#include <memory>
#include <optional>
#include <thread>

#include "bench_e2e.h"
#include "clean/config.h"
#include "core/polluter_operator.h"

namespace icewafl {
namespace bench {
namespace {

/// Rows between two probes of the newest plan, as in ServePlanToSink.
constexpr uint64_t kCutoverCheckRows = 64;

/// Due time of row `index` on the plan's pacing schedule; every row is
/// due at `run_start` when the plan is unpaced.
Clock::time_point DueTime(Clock::time_point run_start, double rate,
                          uint64_t index) {
  if (rate <= 0) return run_start;
  return run_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             static_cast<double>(index) / rate));
}

/// Paced source over the plan's clean rows (the stream layer's input).
/// Busy is the time inside Next() minus pacing sleeps; wait is the
/// sleeps plus the gaps between calls, where the runtime pushes batches.
class TimedSource : public Source {
 public:
  TimedSource(const PlanContext& ctx, PlanPtr plan, Clock::time_point run_start,
              obs::TraceRecorder* recorder, TracedRun* out)
      : ctx_(ctx),
        plan_(std::move(plan)),
        run_start_(run_start),
        recorder_(recorder),
        out_(out) {
    out_->source_lag_ms.reserve(plan_->clean->size());
  }

  SchemaPtr schema() const override { return plan_->schema; }

  Result<bool> Next(Tuple* tuple) override {
    const Clock::time_point entry = Clock::now();
    StageTimes& stage = out_->source;
    if (consumed_ == 0 && !started_) {
      stage.start = entry;
      started_ = true;
    } else {
      stage.wait_s += Seconds(entry - last_exit_);
    }
    const TupleVector& clean = *plan_->clean;
    if (consumed_ >= clean.size()) {
      Close(entry, Clock::now());
      stage.end = last_exit_;
      return false;
    }
    if (ctx_.latest != nullptr && consumed_ > 0 &&
        consumed_ % kCutoverCheckRows == 0) {
      PlanPtr newest = ctx_.latest();
      if (newest != nullptr && newest->version != plan_->version) {
        return Status::InvalidArgument("plan swapped during a traced run");
      }
    }
    double slept = 0.0;
    const double rate = plan_->tuples_per_sec;
    if (rate > 0) {
      if (consumed_ == 0) {
        segment_start_ = Clock::now();
      } else {
        const Clock::time_point before = Clock::now();
        std::this_thread::sleep_until(
            segment_start_ +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(
                    static_cast<double>(consumed_) / rate)));
        slept = Seconds(Clock::now() - before);
      }
    }
    if (consumed_ % SpanRows() == 0) span_start_ = entry;
    *tuple = clean[consumed_];
    const Clock::time_point exit = Clock::now();
    out_->source_lag_ms.push_back(static_cast<float>(
        Seconds(exit - DueTime(run_start_, rate, consumed_)) * 1e3));
    ++consumed_;
    stage.wait_s += slept;
    stage.busy_s -= slept;
    Close(entry, exit);
    if (consumed_ % SpanRows() == 0) {
      RecordSpan(recorder_, BatchName(consumed_ - 1), "stream.source",
                 kSourceTrack, span_start_, exit);
    }
    return true;
  }

 private:
  void Close(Clock::time_point entry, Clock::time_point exit) {
    out_->source.busy_s += Seconds(exit - entry);
    last_exit_ = exit;
  }

  const PlanContext& ctx_;
  PlanPtr plan_;
  Clock::time_point run_start_;
  obs::TraceRecorder* recorder_;
  TracedRun* out_;
  uint64_t consumed_ = 0;
  bool started_ = false;
  Clock::time_point segment_start_{};
  Clock::time_point span_start_{};
  Clock::time_point last_exit_{};
};

/// Per-worker timings, written only by that worker's thread.
struct WorkerTimes {
  StageTimes stage;
  uint64_t tuples = 0;
  std::vector<float> batch_wait_ms;
};

/// Timed PolluterOperator (the core layer). Constructed by the chain
/// factory on the worker thread, which starts the stage's lifetime;
/// Finish() ends it.
class TimedPolluter : public Operator {
 public:
  TimedPolluter(std::unique_ptr<PolluterOperator> inner, int worker,
                int parallelism, Clock::time_point run_start, double rate,
                obs::TraceRecorder* recorder, WorkerTimes* out)
      : inner_(std::move(inner)),
        worker_(static_cast<uint64_t>(worker)),
        parallelism_(static_cast<uint64_t>(parallelism)),
        run_start_(run_start),
        rate_(rate),
        recorder_(recorder),
        out_(out) {
    out_->stage.start = Clock::now();
    last_exit_ = out_->stage.start;
  }

  Status Process(Tuple tuple, Emitter* emitter) override {
    const Clock::time_point entry = Enter(1);
    Status st = inner_->Process(std::move(tuple), emitter);
    Leave(entry);
    return st;
  }

  Status ProcessBatch(TupleVector* batch, Emitter* emitter) override {
    const uint64_t first_row = out_->tuples * parallelism_ + worker_;
    const Clock::time_point entry = Enter(batch->size());
    out_->batch_wait_ms.push_back(static_cast<float>(
        Seconds(entry - DueTime(run_start_, rate_, first_row)) * 1e3));
    Status st = inner_->ProcessBatch(batch, emitter);
    const Clock::time_point exit = Leave(entry);
    RecordSpan(recorder_, BatchName(first_row), "core.polluter",
               kPolluterTrack + static_cast<int64_t>(worker_), entry, exit);
    return st;
  }

  Status Finish(Emitter* emitter) override {
    const Clock::time_point entry = Enter(0);
    Status st = inner_->Finish(emitter);
    out_->stage.end = Leave(entry);
    return st;
  }

 private:
  Clock::time_point Enter(size_t rows) {
    const Clock::time_point entry = Clock::now();
    out_->stage.wait_s += Seconds(entry - last_exit_);
    out_->tuples += rows;
    return entry;
  }
  Clock::time_point Leave(Clock::time_point entry) {
    last_exit_ = Clock::now();
    out_->stage.busy_s += Seconds(last_exit_ - entry);
    return last_exit_;
  }

  std::unique_ptr<PolluterOperator> inner_;
  uint64_t worker_;
  uint64_t parallelism_;
  Clock::time_point run_start_;
  double rate_;
  obs::TraceRecorder* recorder_;
  WorkerTimes* out_;
  Clock::time_point last_exit_{};
};

/// The runtime's sink stage: the plan's cleaner (clean layer, optional)
/// in front of the server's fan-out sink (net layer). Cleaner time is
/// its call time minus the nested fan-out writes. Per runtime batch the
/// thread CPU clock splits the stage's wall time into CPU and blocked
/// time; blocked time (full subscriber queues under kBlock) is charged
/// to the fan-out. The gaps between batches are the stage waiting on
/// the polluter.
class TimedSinkStage : public Sink {
 public:
  TimedSinkStage(Sink* server, const clean::CleaningRules* rules,
                 obs::TraceRecorder* recorder, TracedRun* out)
      : server_(server), emitter_(this), recorder_(recorder), out_(out) {
    if (rules != nullptr) cleaner_.emplace(*rules);
    out_->sink.start = Clock::now();
    last_exit_ = out_->sink.start;
  }

  using Sink::Write;
  Status Write(const Tuple& tuple) override { return Write(Tuple(tuple)); }

  Status Write(Tuple&& tuple) override {
    const Clock::time_point entry = Clock::now();
    Open(entry, tuple.id());
    Status st;
    Clock::time_point exit;
    if (cleaner_.has_value()) {
      ++out_->clean_tuples;
      const double nested_before = batch_fanout_s_;
      st = cleaner_->Process(std::move(tuple), &emitter_);
      exit = Clock::now();
      batch_clean_s_ += Seconds(exit - entry) - (batch_fanout_s_ - nested_before);
    } else {
      st = server_->Write(std::move(tuple));
      exit = Clock::now();
      batch_fanout_s_ += Seconds(exit - entry);
    }
    last_exit_ = exit;
    if (++batch_rows_ >= SpanRows()) CloseBatch(exit);
    return st;
  }

  Status Flush() override {
    const Clock::time_point entry = Clock::now();
    Open(entry, batch_first_id_);
    Status st;
    if (cleaner_.has_value()) {
      const double nested_before = batch_fanout_s_;
      st = cleaner_->Finish(&emitter_);
      batch_clean_s_ +=
          Seconds(Clock::now() - entry) - (batch_fanout_s_ - nested_before);
      out_->clean_stats = cleaner_->stats();
    }
    if (st.ok()) {
      const Clock::time_point before = Clock::now();
      st = server_->Flush();
      batch_fanout_s_ += Seconds(Clock::now() - before);
    }
    last_exit_ = Clock::now();
    CloseBatch(last_exit_);
    out_->sink.end = last_exit_;
    return st;
  }

 private:
  /// Cleaner output goes to the server sink, timed as fan-out.
  class FanoutEmitter : public Emitter {
   public:
    explicit FanoutEmitter(TimedSinkStage* stage) : stage_(stage) {}
    Status Emit(Tuple tuple) override {
      const Clock::time_point entry = Clock::now();
      Status st = stage_->server_->Write(std::move(tuple));
      stage_->batch_fanout_s_ += Seconds(Clock::now() - entry);
      return st;
    }

   private:
    TimedSinkStage* stage_;
  };

  void Open(Clock::time_point entry, TupleId first_id) {
    if (batch_open_) return;
    batch_open_ = true;
    batch_start_ = entry;
    batch_cpu_ = ThreadCpuSeconds();
    batch_first_id_ = first_id;
    out_->sink.wait_s += Seconds(entry - last_exit_);
  }

  void CloseBatch(Clock::time_point exit) {
    if (!batch_open_) return;
    const double wall = Seconds(exit - batch_start_);
    const double cpu = ThreadCpuSeconds() - batch_cpu_;
    const double blocked = std::clamp(wall - cpu, 0.0, batch_fanout_s_);
    out_->fanout_blocked_s += blocked;
    out_->fanout_cpu_s += batch_fanout_s_ - blocked;
    out_->clean_busy_s += batch_clean_s_;
    out_->sink.busy_s += wall - blocked;
    out_->sink.wait_s += blocked;
    // Cleaner and fan-out interleave per tuple; their per-batch totals
    // are laid end to end on the sink track.
    const std::string name = BatchName(batch_first_id_);
    const auto clean_end =
        batch_start_ + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(batch_clean_s_));
    if (cleaner_.has_value()) {
      RecordSpan(recorder_, name, "clean", kSinkTrack, batch_start_, clean_end);
    }
    RecordSpan(recorder_, name, "net.fanout", kSinkTrack, clean_end, exit);
    batch_open_ = false;
    batch_rows_ = 0;
    batch_clean_s_ = 0.0;
    batch_fanout_s_ = 0.0;
  }

  Sink* server_;
  std::optional<clean::CleanerOperator> cleaner_;
  FanoutEmitter emitter_;
  obs::TraceRecorder* recorder_;
  TracedRun* out_;
  Clock::time_point last_exit_{};
  bool batch_open_ = false;
  size_t batch_rows_ = 0;
  Clock::time_point batch_start_{};
  double batch_cpu_ = 0.0;
  TupleId batch_first_id_ = 0;
  double batch_clean_s_ = 0.0;
  double batch_fanout_s_ = 0.0;
};

}  // namespace

Status RunTracedSession(const PlanContext& ctx, Sink* server_sink,
                        Clock::time_point run_start,
                        obs::TraceRecorder* recorder, TracedRun* out) {
  PlanPtr plan = ctx.plan;
  if (plan == nullptr && ctx.latest != nullptr) plan = ctx.latest();
  if (plan == nullptr) return Status::InvalidArgument("no plan snapshot to serve");
  if (ctx.on_segment != nullptr) ctx.on_segment(PlanSegment{plan->version, 0});

  std::optional<clean::CleaningRules> rules;
  if (!plan->cleaner.is_null()) {
    ICEWAFL_ASSIGN_OR_RETURN(
        rules, clean::RulesFromJson(plan->cleaner, plan->schema));
  }
  const int parallelism = plan->parallelism < 1 ? 1 : plan->parallelism;
  std::vector<WorkerTimes> workers(static_cast<size_t>(parallelism));

  TimedSource source(ctx, plan, run_start, recorder, out);
  TimedSinkStage sink(server_sink, rules ? &*rules : nullptr, recorder, out);
  RuntimeOptions options;
  options.parallelism = parallelism;
  PipelineRuntime runtime(options);
  Status st = runtime.Run(
      &source,
      [&](int worker) {
        OperatorChain chain;
        auto polluter = std::make_unique<PolluterOperator>(
            plan->pipeline.Clone(), plan->seed + static_cast<uint64_t>(worker),
            plan->stream_start, plan->stream_end);
        polluter->BindMetrics(nullptr);
        chain.push_back(std::make_unique<TimedPolluter>(
            std::move(polluter), worker, parallelism, run_start,
            plan->tuples_per_sec, recorder,
            &workers[static_cast<size_t>(worker)]));
        return chain;
      },
      &sink);
  out->runtime = runtime.stats();
  for (const WorkerTimes& w : workers) {
    out->polluters.push_back(w.stage);
    out->core_busy_s += w.stage.busy_s;
    out->core_tuples += w.tuples;
    out->batch_wait_ms.insert(out->batch_wait_ms.end(), w.batch_wait_ms.begin(),
                              w.batch_wait_ms.end());
  }
  return st;
}

}  // namespace bench
}  // namespace icewafl
