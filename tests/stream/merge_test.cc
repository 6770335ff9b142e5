#include "stream/merge.h"

#include <gtest/gtest.h>

#include "core/errors_temporal.h"
#include "core/polluter_operator.h"
#include "stream/runtime.h"

namespace icewafl {
namespace {

SchemaPtr TestSchema() {
  return Schema::Make(
             {{"ts", ValueType::kInt64}, {"v", ValueType::kDouble}}, "ts")
      .ValueOrDie();
}

Tuple Make(const SchemaPtr& schema, Timestamp arrival, double v,
           TupleId id) {
  Tuple t(schema, {Value(arrival), Value(v)});
  t.set_id(id);
  t.set_event_time(arrival);
  t.set_arrival_time(arrival);
  return t;
}

TEST(MergeSortedSourcesTest, MergesByArrivalTime) {
  SchemaPtr schema = TestSchema();
  VectorSource a(schema, {Make(schema, 10, 1, 0), Make(schema, 30, 1, 1),
                          Make(schema, 50, 1, 2)});
  VectorSource b(schema, {Make(schema, 20, 2, 3), Make(schema, 40, 2, 4)});
  MergeSortedSources merged({&a, &b});
  auto all = CollectAll(&merged);
  ASSERT_TRUE(all.ok());
  std::vector<Timestamp> order;
  for (const Tuple& t : all.ValueOrDie()) order.push_back(t.arrival_time());
  EXPECT_EQ(order, (std::vector<Timestamp>{10, 20, 30, 40, 50}));
}

TEST(MergeSortedSourcesTest, TiesPreferEarlierSource) {
  SchemaPtr schema = TestSchema();
  VectorSource a(schema, {Make(schema, 10, 1, 0)});
  VectorSource b(schema, {Make(schema, 10, 2, 1)});
  MergeSortedSources merged({&a, &b});
  auto all = CollectAll(&merged);
  ASSERT_TRUE(all.ok());
  EXPECT_DOUBLE_EQ(all.ValueOrDie()[0].value(1).AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(all.ValueOrDie()[1].value(1).AsDouble(), 2.0);
}

TEST(MergeSortedSourcesTest, HandlesEmptyAndUnevenSources) {
  SchemaPtr schema = TestSchema();
  VectorSource empty(schema, {});
  VectorSource a(schema, {Make(schema, 5, 1, 0), Make(schema, 6, 1, 1)});
  MergeSortedSources merged({&empty, &a});
  auto all = CollectAll(&merged);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.ValueOrDie().size(), 2u);
}

TEST(MergeSortedSourcesTest, ResetReplays) {
  SchemaPtr schema = TestSchema();
  VectorSource a(schema, {Make(schema, 1, 1, 0)});
  VectorSource b(schema, {Make(schema, 2, 2, 1)});
  MergeSortedSources merged({&a, &b});
  EXPECT_EQ(CollectAll(&merged).ValueOrDie().size(), 2u);
  ASSERT_TRUE(merged.Reset().ok());
  EXPECT_EQ(CollectAll(&merged).ValueOrDie().size(), 2u);
}

TEST(MergeSortedSourcesTest, NoSourcesIsEmptyStream) {
  MergeSortedSources merged({});
  Tuple t;
  EXPECT_FALSE(merged.Next(&t).ValueOrDie());
}

// A fully streaming delay topology: polluter (delay) -> reorder buffer.
// The output is arrival-ordered while the Time attribute exposes the
// delays — the operator-mode equivalent of the batch process's step 3.
TEST(StreamingDelayTopologyTest, DelayThenReorder) {
  SchemaPtr schema = TestSchema();
  TupleVector tuples;
  for (int i = 0; i < 200; ++i) {
    tuples.emplace_back(
        schema, std::vector<Value>{Value(int64_t{i} * 60), Value(1.0)});
  }
  PollutionPipeline pipeline("delays");
  pipeline.Add(std::make_unique<StandardPolluter>(
      "delay", std::make_unique<DelayError>(300),
      std::make_unique<RandomCondition>(0.2), std::vector<std::string>{}));
  PolluterOperator polluter(std::move(pipeline), /*seed=*/3);
  ReorderOperator reorder(/*max_lateness=*/600);
  VectorSource source(schema, tuples);
  VectorSink sink;
  ASSERT_TRUE(PipelineRuntime().Run(&source, {&polluter, &reorder}, &sink).ok());
  ASSERT_EQ(sink.tuples().size(), tuples.size());
  // Output is arrival-ordered...
  int inversions = 0;
  for (size_t i = 1; i < sink.tuples().size(); ++i) {
    ASSERT_LE(sink.tuples()[i - 1].arrival_time(),
              sink.tuples()[i].arrival_time());
    // ...while the timestamp attribute shows out-of-order records.
    if (sink.tuples()[i].GetTimestamp().ValueOrDie() <
        sink.tuples()[i - 1].GetTimestamp().ValueOrDie()) {
      ++inversions;
    }
  }
  EXPECT_GT(inversions, 5);
}

}  // namespace
}  // namespace icewafl
