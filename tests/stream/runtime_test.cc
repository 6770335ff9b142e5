#include "stream/runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "core/polluter_operator.h"
#include "stream/operator.h"
#include "stream/sink.h"
#include "stream/source.h"

namespace icewafl {
namespace {

SchemaPtr TestSchema() {
  return Schema::Make(
             {{"ts", ValueType::kInt64}, {"v", ValueType::kDouble}}, "ts")
      .ValueOrDie();
}

TupleVector MakeTuples(const SchemaPtr& schema, int n) {
  TupleVector tuples;
  for (int i = 0; i < n; ++i) {
    Tuple t(schema, {Value(int64_t{i * 3600}), Value(static_cast<double>(i))});
    t.set_id(static_cast<TupleId>(i));
    t.set_event_time(i * 3600);
    t.set_arrival_time(i * 3600);
    tuples.push_back(std::move(t));
  }
  return tuples;
}

std::unique_ptr<Operator> AddOne() {
  return std::make_unique<MapOperator>([](Tuple t) -> Result<Tuple> {
    t.set_value(1, Value(t.value(1).AsDouble() + 1.0));
    return t;
  });
}

/// Buffers every tuple and re-emits the whole stream in Finish().
class HoldAllOperator : public Operator {
 public:
  Status Process(Tuple tuple, Emitter* out) override {
    (void)out;
    held_.push_back(std::move(tuple));
    return Status::OK();
  }
  Status Finish(Emitter* out) override {
    for (Tuple& t : held_) {
      ICEWAFL_RETURN_NOT_OK(out->Emit(std::move(t)));
    }
    held_.clear();
    return Status::OK();
  }

 private:
  TupleVector held_;
};

/// Fails on the tuple whose value(1) equals `bad`.
class FailOnValueOperator : public Operator {
 public:
  explicit FailOnValueOperator(double bad) : bad_(bad) {}
  Status Process(Tuple tuple, Emitter* out) override {
    if (tuple.value(1).AsDouble() == bad_) {
      return Status::Internal("poisoned tuple");
    }
    return out->Emit(std::move(tuple));
  }

 private:
  double bad_;
};

class FailingSource : public Source {
 public:
  explicit FailingSource(SchemaPtr schema, int fail_after)
      : schema_(std::move(schema)), fail_after_(fail_after) {}
  SchemaPtr schema() const override { return schema_; }
  Result<bool> Next(Tuple* out) override {
    if (produced_ >= fail_after_) return Status::IOError("source broke");
    *out = Tuple(schema_, {Value(int64_t{produced_}),
                           Value(static_cast<double>(produced_))});
    ++produced_;
    return true;
  }

 private:
  SchemaPtr schema_;
  int fail_after_;
  int produced_ = 0;
};

class FailingSink : public Sink {
 public:
  using Sink::Write;
  explicit FailingSink(uint64_t fail_after) : fail_after_(fail_after) {}
  Status Write(const Tuple& tuple) override {
    (void)tuple;
    if (written_ >= fail_after_) return Status::IOError("sink broke");
    ++written_;
    return Status::OK();
  }

 private:
  uint64_t fail_after_;
  uint64_t written_ = 0;
};

TEST(PipelineRuntimeTest, EmptySource) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, {});
  VectorSink sink;
  RuntimeOptions options;
  options.parallelism = 4;
  PipelineRuntime runtime(options);
  ASSERT_TRUE(runtime
                  .Run(&source,
                       [](int) {
                         OperatorChain chain;
                         chain.push_back(AddOne());
                         return chain;
                       },
                       &sink)
                  .ok());
  EXPECT_EQ(sink.tuples().size(), 0u);
  EXPECT_EQ(runtime.stats().source_tuples, 0u);
  EXPECT_EQ(runtime.stats().sink_tuples, 0u);
}

TEST(PipelineRuntimeTest, EmptyChainPassesThrough) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 7));
  VectorSink sink;
  PipelineRuntime runtime;
  ASSERT_TRUE(
      runtime.Run(&source, [](int) { return OperatorChain{}; }, &sink).ok());
  ASSERT_EQ(sink.tuples().size(), 7u);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(sink.tuples()[i].value(1).AsDouble(), static_cast<double>(i));
  }
}

TEST(PipelineRuntimeTest, ParallelismExceedsTupleCount) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 3));
  VectorSink sink;
  RuntimeOptions options;
  options.parallelism = 8;
  PipelineRuntime runtime(options);
  ASSERT_TRUE(runtime
                  .Run(&source,
                       [](int) {
                         OperatorChain chain;
                         chain.push_back(AddOne());
                         return chain;
                       },
                       &sink)
                  .ok());
  ASSERT_EQ(sink.tuples().size(), 3u);
  double sum = 0.0;
  for (const Tuple& t : sink.tuples()) sum += t.value(1).AsDouble();
  EXPECT_DOUBLE_EQ(sum, 6.0);  // (0+1)+(1+1)+(2+1)
  EXPECT_EQ(runtime.stats().source_tuples, 3u);
  EXPECT_EQ(runtime.stats().sink_tuples, 3u);
}

TEST(PipelineRuntimeTest, ParallelismOnePreservesInputOrder) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 100));
  VectorSink sink;
  RuntimeOptions options;
  options.batch_size = 7;  // force many partial batches
  options.channel_capacity = 2;
  PipelineRuntime runtime(options);
  ASSERT_TRUE(runtime
                  .Run(&source,
                       [](int) {
                         OperatorChain chain;
                         chain.push_back(AddOne());
                         return chain;
                       },
                       &sink)
                  .ok());
  ASSERT_EQ(sink.tuples().size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(sink.tuples()[i].value(1).AsDouble(), i + 1.0);
  }
}

TEST(PipelineRuntimeTest, DeterministicAcrossRuns) {
  SchemaPtr schema = TestSchema();
  RuntimeOptions options;
  options.parallelism = 4;
  options.batch_size = 16;
  auto run_once = [&]() -> uint64_t {
    VectorSource source(schema, MakeTuples(schema, 1000));
    CountingSink sink;
    PipelineRuntime runtime(options);
    EXPECT_TRUE(runtime
                    .Run(&source,
                         [](int) {
                           OperatorChain chain;
                           chain.push_back(AddOne());
                           return chain;
                         },
                         &sink)
                    .ok());
    EXPECT_EQ(sink.count(), 1000u);
    return sink.checksum();
  };
  const uint64_t first = run_once();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(run_once(), first) << "output order changed between runs";
  }
}

TEST(PipelineRuntimeTest, FinishReemissionsFlowThroughRemainingChain) {
  // HoldAll buffers everything and re-emits in Finish(); the downstream
  // AddOne must still see (and transform) those re-emissions, and they
  // must come out in the held order.
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 10));
  VectorSink sink;
  PipelineRuntime runtime;
  ASSERT_TRUE(runtime
                  .Run(&source,
                       [](int) {
                         OperatorChain chain;
                         chain.push_back(std::make_unique<HoldAllOperator>());
                         chain.push_back(AddOne());
                         return chain;
                       },
                       &sink)
                  .ok());
  ASSERT_EQ(sink.tuples().size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(sink.tuples()[i].value(1).AsDouble(), i + 1.0)
        << "Finish re-emission skipped the downstream operator";
  }
}

TEST(PipelineRuntimeTest, FinishOrderAfterRegularTuplesPerWorker) {
  // A chain of [AddOne, HoldAll]: every processed tuple is released only
  // at Finish, after the last regular batch of that worker.
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 6));
  VectorSink sink;
  PipelineRuntime runtime;
  ASSERT_TRUE(runtime
                  .Run(&source,
                       [](int) {
                         OperatorChain chain;
                         chain.push_back(AddOne());
                         chain.push_back(std::make_unique<HoldAllOperator>());
                         return chain;
                       },
                       &sink)
                  .ok());
  ASSERT_EQ(sink.tuples().size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(sink.tuples()[i].value(1).AsDouble(), i + 1.0);
  }
}

TEST(PipelineRuntimeTest, WorkerErrorPropagates) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 64));
  VectorSink sink;
  RuntimeOptions options;
  options.parallelism = 3;
  options.batch_size = 4;
  PipelineRuntime runtime(options);
  Status status = runtime.Run(
      &source,
      [](int) {
        OperatorChain chain;
        chain.push_back(std::make_unique<FailOnValueOperator>(33.0));
        return chain;
      },
      &sink);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

TEST(PipelineRuntimeTest, SourceErrorPropagates) {
  SchemaPtr schema = TestSchema();
  FailingSource source(schema, 20);
  VectorSink sink;
  RuntimeOptions options;
  options.parallelism = 2;
  options.batch_size = 4;
  PipelineRuntime runtime(options);
  Status status = runtime.Run(
      &source,
      [](int) {
        OperatorChain chain;
        chain.push_back(AddOne());
        return chain;
      },
      &sink);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.message().find("source broke"), std::string::npos);
}

TEST(PipelineRuntimeTest, SinkErrorPropagates) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 256));
  FailingSink sink(10);
  RuntimeOptions options;
  options.parallelism = 2;
  options.batch_size = 8;
  PipelineRuntime runtime(options);
  Status status = runtime.Run(
      &source,
      [](int) {
        OperatorChain chain;
        chain.push_back(AddOne());
        return chain;
      },
      &sink);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.message().find("sink broke"), std::string::npos);
}

TEST(PipelineRuntimeTest, RawOperatorOverloadRunsChain) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 12));
  VectorSink sink;
  MapOperator add([](Tuple t) -> Result<Tuple> {
    t.set_value(1, Value(t.value(1).AsDouble() + 1.0));
    return t;
  });
  FilterOperator keep_even([](const Tuple& t) {
    return static_cast<int64_t>(t.value(1).AsDouble()) % 2 == 0;
  });
  PipelineRuntime runtime;
  ASSERT_TRUE(runtime.Run(&source, {&add, &keep_even}, &sink).ok());
  // Values 1..12 after AddOne; evens survive: 2,4,6,8,10,12.
  ASSERT_EQ(sink.tuples().size(), 6u);
  EXPECT_DOUBLE_EQ(sink.tuples().front().value(1).AsDouble(), 2.0);
  EXPECT_DOUBLE_EQ(sink.tuples().back().value(1).AsDouble(), 12.0);
}

TEST(PipelineRuntimeTest, StatsAreConsistent) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 500));
  CountingSink sink;
  RuntimeOptions options;
  options.parallelism = 4;
  options.batch_size = 16;
  options.channel_capacity = 2;
  PipelineRuntime runtime(options);
  ASSERT_TRUE(runtime
                  .Run(&source,
                       [](int) {
                         OperatorChain chain;
                         chain.push_back(AddOne());
                         return chain;
                       },
                       &sink)
                  .ok());
  const RuntimeStats& stats = runtime.stats();
  EXPECT_EQ(stats.source_tuples, 500u);
  EXPECT_EQ(stats.sink_tuples, 500u);
  EXPECT_GE(stats.batches, 500u / 16u);
  // source + 4 workers + sink
  EXPECT_EQ(stats.stages.size(), 6u);
  // Peak buffering is bounded by the channels plus the per-stage
  // in-flight batches (source accumulator, worker scratch, sink pop) —
  // O(channel_capacity * batch_size * parallelism), far below the
  // 500-tuple stream.
  EXPECT_LE(stats.peak_buffered_tuples,
            (2u * options.channel_capacity + 2u) * options.batch_size *
                static_cast<size_t>(options.parallelism));
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(PipelineRuntimeTest, BlockedPopsAggregateIntoRuntimeStats) {
  // Regression: StageStats::blocked_pops used to be collected per stage
  // but never summed into RuntimeStats nor printed by ToString(), so
  // starvation was invisible at the aggregate level.
  SchemaPtr schema = TestSchema();
  // A slow source starves the workers: their input pops find the channel
  // empty and block until the next batch arrives.
  GeneratorSource source(schema, [&](uint64_t i) -> std::optional<Tuple> {
    if (i >= 8) return std::nullopt;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return Tuple(schema, {Value(static_cast<int64_t>(i)),
                          Value(static_cast<double>(i))});
  });
  CountingSink sink;
  RuntimeOptions options;
  options.batch_size = 1;  // one batch per tuple: maximal pop pressure
  options.channel_capacity = 1;
  PipelineRuntime runtime(options);
  ASSERT_TRUE(runtime
                  .Run(&source,
                       [](int) {
                         OperatorChain chain;
                         chain.push_back(AddOne());
                         return chain;
                       },
                       &sink)
                  .ok());
  const RuntimeStats& stats = runtime.stats();
  uint64_t per_stage = 0;
  for (const StageStats& s : stats.stages) per_stage += s.blocked_pops;
  EXPECT_EQ(stats.blocked_pops, per_stage);
  EXPECT_GE(stats.blocked_pops, 1u);  // the starved worker blocked
  EXPECT_NE(stats.ToString().find("blocked_pops="), std::string::npos);
}

TEST(PipelineRuntimeTest, PublishesMetricsAndTraceWithoutPerturbingOutput) {
  SchemaPtr schema = TestSchema();
  RuntimeOptions options;
  options.parallelism = 2;
  options.batch_size = 16;

  auto run = [&](obs::MetricRegistry* metrics,
                 obs::TraceRecorder* trace) -> uint64_t {
    VectorSource source(schema, MakeTuples(schema, 200));
    CountingSink sink;
    RuntimeOptions opts = options;
    opts.metrics = metrics;
    opts.trace = trace;
    PipelineRuntime runtime(opts);
    EXPECT_TRUE(runtime
                    .Run(&source,
                         [](int) {
                           OperatorChain chain;
                           chain.push_back(AddOne());
                           return chain;
                         },
                         &sink)
                    .ok());
    return sink.checksum();
  };

  const uint64_t plain = run(nullptr, nullptr);
  obs::MetricRegistry registry;
  obs::TraceRecorder trace;
  const uint64_t instrumented = run(&registry, &trace);
  // Determinism contract: instrumentation must not change the output.
  EXPECT_EQ(plain, instrumented);

  // Stage counters agree with the runtime's own stats.
  obs::Counter* source_out = registry.GetCounter(
      "icewafl_stage_tuples_out_total", {{"stage", "source"}});
  ASSERT_NE(source_out, nullptr);
  EXPECT_EQ(source_out->value(), 200u);
  obs::Counter* sink_in = registry.GetCounter("icewafl_stage_tuples_in_total",
                                              {{"stage", "sink"}});
  ASSERT_NE(sink_in, nullptr);
  EXPECT_EQ(sink_in->value(), 200u);

  // One span per stage (source, 2 workers, sink) plus the run span.
  EXPECT_GE(trace.size(), 5u);
  const std::string prom = registry.ToPrometheusText();
  EXPECT_NE(prom.find("icewafl_runtime_wall_seconds"), std::string::npos);
  EXPECT_NE(prom.find("icewafl_runtime_batch_tuples_bucket"),
            std::string::npos);
}

TEST(PipelineRuntimeTest, ParallelRunMatchesSingleWorkerAsMultiset) {
  // Same chain, same input: P=4 interleaves worker batches, P=1 keeps
  // input order; both must emit the same multiset of tuples.
  SchemaPtr schema = TestSchema();
  auto factory = [](int) {
    OperatorChain chain;
    chain.push_back(AddOne());
    return chain;
  };
  auto run = [&](int parallelism) {
    VectorSource source(schema, MakeTuples(schema, 333));
    VectorSink sink;
    RuntimeOptions options;
    options.parallelism = parallelism;
    EXPECT_TRUE(PipelineRuntime(options).Run(&source, factory, &sink).ok());
    std::multiset<std::pair<TupleId, double>> out;
    for (const Tuple& t : sink.tuples()) {
      out.emplace(t.id(), t.value(1).AsDouble());
    }
    return out;
  };
  const auto single = run(1);
  ASSERT_EQ(single.size(), 333u);
  EXPECT_EQ(run(4), single);
}

TEST(PipelineRuntimeTest, RejectsZeroParallelism) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 1));
  VectorSink sink;
  RuntimeOptions options;
  options.parallelism = 0;
  Status st = PipelineRuntime(options).Run(
      &source, [](int) { return OperatorChain{}; }, &sink);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Batch recycling: spent batches return from the sink to the source.
// ---------------------------------------------------------------------

/// Replays `rows` and counts the Next calls whose `*out` arrived holding
/// a live value buffer wide enough for the row, i.e. recycled storage.
class StorageProbeSource : public Source {
 public:
  StorageProbeSource(SchemaPtr schema, TupleVector rows, size_t warmup)
      : schema_(std::move(schema)), rows_(std::move(rows)), warmup_(warmup) {}
  SchemaPtr schema() const override { return schema_; }
  Result<bool> Next(Tuple* out) override {
    if (pos_ >= rows_.size()) return false;
    if (pos_ >= warmup_ &&
        out->values().capacity() >= rows_[pos_].num_values()) {
      ++live_;
    }
    *out = rows_[pos_++];
    return true;
  }
  size_t live() const { return live_; }

 private:
  SchemaPtr schema_;
  TupleVector rows_;
  size_t warmup_;
  size_t pos_ = 0;
  size_t live_ = 0;
};

/// Non-moving sink that records the distinct batch buffers it is handed.
class BufferRecordingSink : public CountingSink {
 public:
  Status WriteBatch(TupleVector* batch) override {
    buffers_.insert(batch->data());
    return CountingSink::WriteBatch(batch);
  }
  size_t distinct_buffers() const { return buffers_.size(); }

 private:
  std::set<const Tuple*> buffers_;
};

OperatorChain AddOneChain(int) {
  OperatorChain chain;
  chain.push_back(AddOne());
  return chain;
}

TEST(PipelineRuntimeTest, NonMovingSinkRecyclesValueBuffersToTheSource) {
  SchemaPtr schema = TestSchema();
  constexpr int kRows = 100000;
  for (int parallelism : {1, 3}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    RuntimeOptions options;
    options.parallelism = parallelism;
    // Warm-up: enough rows to fill every channel and in-flight batch.
    const size_t warmup = 8 * (options.channel_capacity + 2) *
                          options.batch_size *
                          static_cast<size_t>(parallelism);
    StorageProbeSource source(schema, MakeTuples(schema, kRows), warmup);
    CountingSink sink;
    PipelineRuntime runtime(options);
    ASSERT_TRUE(runtime.Run(&source, AddOneChain, &sink).ok());
    ASSERT_EQ(sink.count(), static_cast<uint64_t>(kRows));
    const size_t probed = kRows - warmup;
    EXPECT_GE(source.live(), probed * 9 / 10)
        << source.live() << " of " << probed
        << " rows after warm-up reused a live value buffer";
  }
}

TEST(PipelineRuntimeTest, RecycledBatchBuffersStayWithinThePoolBound) {
  SchemaPtr schema = TestSchema();
  for (int parallelism : {1, 3}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    RuntimeOptions options;
    options.parallelism = parallelism;
    VectorSource source(schema, MakeTuples(schema, 100000));
    BufferRecordingSink sink;
    PipelineRuntime runtime(options);
    ASSERT_TRUE(runtime.Run(&source, AddOneChain, &sink).ok());
    ASSERT_EQ(sink.count(), 100000u);
    // The most batches a run holds at once: each worker's full input
    // and output channel, the batch it fills at the source, the two it
    // holds, and the sink's one. The source allocates only when the pool
    // of spent batches is empty, so no run ever makes more.
    const size_t p = static_cast<size_t>(parallelism);
    const size_t bound = 2 * options.channel_capacity * p + 3 * p + 1;
    EXPECT_LE(sink.distinct_buffers(), bound);
  }
}

TEST(PipelineRuntimeTest, MovingSinkAndFreshTupleSourceKeepTheOutput) {
  SchemaPtr schema = TestSchema();
  constexpr int kRows = 5000;
  const TupleVector input = MakeTuples(schema, kRows);
  for (int parallelism : {1, 3}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    // Each call builds a fresh tuple and moves it into `*out`.
    GeneratorSource source(schema, [&](uint64_t i) -> std::optional<Tuple> {
      if (i >= input.size()) return std::nullopt;
      return input[i];
    });
    VectorSink sink;  // moves every row out of the batch
    RuntimeOptions options;
    options.parallelism = parallelism;
    options.batch_size = 64;
    PipelineRuntime runtime(options);
    ASSERT_TRUE(runtime.Run(&source, AddOneChain, &sink).ok());
    TupleVector out = sink.TakeTuples();
    ASSERT_EQ(out.size(), input.size());
    if (parallelism > 1) {
      std::sort(out.begin(), out.end(), [](const Tuple& a, const Tuple& b) {
        return a.id() < b.id();
      });
    }
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i].id(), input[i].id());
      EXPECT_EQ(out[i].event_time(), input[i].event_time());
      EXPECT_EQ(out[i].value(0).AsInt64(), input[i].value(0).AsInt64());
      EXPECT_DOUBLE_EQ(out[i].value(1).AsDouble(),
                       input[i].value(1).AsDouble() + 1.0);
    }
  }
}

/// Non-moving sink recording each row's id, event time and timestamp.
class MetadataSink : public Sink {
 public:
  using Sink::Write;
  Status Write(const Tuple& tuple) override {
    ids.push_back(tuple.id());
    event_times.push_back(tuple.event_time());
    timestamps.push_back(tuple.value(0).AsInt64());
    return Status::OK();
  }
  std::vector<TupleId> ids;
  std::vector<Timestamp> event_times;
  std::vector<int64_t> timestamps;
};

TEST(PipelineRuntimeTest, RecycledRowsNeverLeakIdsIntoTheNextRow) {
  // Clean rows carry no id, so PolluterOperator assigns one; a recycled
  // row still holding its previous id or event time would skip that.
  SchemaPtr schema = TestSchema();
  constexpr int kRows = 20000;
  TupleVector clean;
  for (int i = 0; i < kRows; ++i) {
    clean.emplace_back(schema, std::vector<Value>{Value(int64_t{i} * 60),
                                                  Value(double{0.5})});
  }
  for (int parallelism : {1, 3}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    VectorSource source(schema, clean);
    MetadataSink sink;
    RuntimeOptions options;
    options.parallelism = parallelism;
    PipelineRuntime runtime(options);
    ASSERT_TRUE(runtime
                    .Run(&source,
                         [](int) {
                           OperatorChain chain;
                           chain.push_back(std::make_unique<PolluterOperator>(
                               PollutionPipeline("none"), 7));
                           return chain;
                         },
                         &sink)
                    .ok());
    ASSERT_EQ(sink.ids.size(), static_cast<size_t>(kRows));
    for (size_t r = 0; r < sink.ids.size(); ++r) {
      // Row i (timestamp 60 i) is the (i / P)-th row of worker i % P,
      // whose operator numbers its rows 0, 1, 2, ...
      const int64_t i = sink.timestamps[r] / 60;
      ASSERT_EQ(sink.ids[r], static_cast<TupleId>(i / parallelism)) << r;
      ASSERT_EQ(sink.event_times[r], sink.timestamps[r]) << r;
    }
  }
}

}  // namespace
}  // namespace icewafl
