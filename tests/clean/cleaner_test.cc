#include "clean/cleaner.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "clean/config.h"
#include "io/csv.h"
#include "stream/runtime.h"
#include "util/rng.h"

namespace icewafl {
namespace clean {
namespace {

SchemaPtr WearableLikeSchema() {
  return Schema::Make({{"Time", ValueType::kInt64},
                       {"BPM", ValueType::kDouble},
                       {"Steps", ValueType::kInt64},
                       {"Distance", ValueType::kDouble},
                       {"Device", ValueType::kString}},
                      "Time")
      .ValueOrDie();
}

Tuple Row(const SchemaPtr& schema, int64_t t, Value bpm, int64_t steps,
          Value distance, std::string device = "watch") {
  Tuple tuple(schema, {Value(t), std::move(bpm), Value(steps),
                       std::move(distance), Value(std::move(device))});
  tuple.set_id(static_cast<TupleId>(t));
  tuple.set_event_time(t);
  return tuple;
}

CleaningRules LoadRules(const std::string& text, const SchemaPtr& schema) {
  Result<CleaningRules> rules = RulesFromJsonString(text, schema);
  EXPECT_TRUE(rules.ok()) << rules.status().message();
  return std::move(rules).ValueOrDie();
}

Result<TupleVector> RunClean(const CleaningRules& rules, TupleVector input,
                             RepairLog* log = nullptr,
                             CleanStats* stats = nullptr,
                             obs::MetricRegistry* metrics = nullptr) {
  VectorSink sink;
  ICEWAFL_RETURN_NOT_OK(
      CleanTuples(rules, std::move(input), &sink, metrics, log, stats));
  return sink.TakeTuples();
}

TEST(CleanerOperatorTest, DropRemovesViolatingTuples) {
  SchemaPtr schema = WearableLikeSchema();
  CleaningRules rules = LoadRules(
      R"({"rules": [{"label": "bpm", "column": "BPM",
          "detect": {"type": "range", "min": 20, "max": 250},
          "repair": "drop"}]})",
      schema);
  TupleVector input;
  input.push_back(Row(schema, 0, Value(70.0), 0, Value(0.0)));
  input.push_back(Row(schema, 1, Value(900.0), 0, Value(0.0)));
  input.push_back(Row(schema, 2, Value(75.0), 0, Value(0.0)));

  CleanStats stats;
  RepairLog log;
  Result<TupleVector> out = RunClean(rules, std::move(input), &log, &stats);
  ASSERT_TRUE(out.ok()) << out.status().message();
  ASSERT_EQ(out.ValueOrDie().size(), 2u);
  EXPECT_EQ(out.ValueOrDie()[0].id(), 0u);
  EXPECT_EQ(out.ValueOrDie()[1].id(), 2u);
  EXPECT_EQ(stats.tuples_in, 3u);
  EXPECT_EQ(stats.tuples_out, 2u);
  EXPECT_EQ(stats.tuples_dropped, 1u);
  EXPECT_EQ(stats.fired, 1u);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.entries()[0].tuple_id, 1u);
  EXPECT_EQ(log.entries()[0].rule, "bpm");
  EXPECT_EQ(log.entries()[0].action, "drop");
}

TEST(CleanerOperatorTest, SetNullAndClampRepairInPlace) {
  SchemaPtr schema = WearableLikeSchema();
  CleaningRules rules = LoadRules(
      R"({"rules": [
        {"label": "clamp_bpm", "column": "BPM",
         "detect": {"type": "range", "min": 20, "max": 250},
         "repair": "clamp"},
        {"label": "null_dist", "column": "Distance",
         "detect": {"type": "range", "min": 0, "max": 50},
         "repair": "set_null"}]})",
      schema);
  TupleVector input;
  input.push_back(Row(schema, 0, Value(900.0), 0, Value(120000.0)));
  Result<TupleVector> out = RunClean(rules, std::move(input));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.ValueOrDie().size(), 1u);
  const Tuple& t = out.ValueOrDie()[0];
  EXPECT_DOUBLE_EQ(t.value(1).ToDouble().ValueOrDie(), 250.0);
  EXPECT_TRUE(t.value(3).is_null());
}

TEST(CleanerOperatorTest, LastGoodUsesAcceptedHistory) {
  SchemaPtr schema = WearableLikeSchema();
  CleaningRules rules = LoadRules(
      R"({"rules": [{"label": "bpm", "column": "BPM",
          "detect": {"type": "not_null"}, "repair": "last_good"}]})",
      schema);
  TupleVector input;
  // First tuple already NULL: empty history, repair degrades to NULL.
  input.push_back(Row(schema, 0, Value::Null(), 0, Value(0.0)));
  input.push_back(Row(schema, 1, Value(70.0), 0, Value(0.0)));
  input.push_back(Row(schema, 2, Value::Null(), 0, Value(0.0)));
  Result<TupleVector> out = RunClean(rules, std::move(input));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.ValueOrDie().size(), 3u);
  EXPECT_TRUE(out.ValueOrDie()[0].value(1).is_null());
  EXPECT_DOUBLE_EQ(out.ValueOrDie()[2].value(1).ToDouble().ValueOrDie(), 70.0);
}

TEST(CleanerOperatorTest, WindowMeanAndMedianImpute) {
  SchemaPtr schema = WearableLikeSchema();
  CleaningRules rules = LoadRules(
      R"({"history": 4,
          "rules": [{"label": "bpm", "column": "BPM",
          "detect": {"type": "range", "min": 20, "max": 250},
          "repair": "window_mean"}]})",
      schema);
  TupleVector input;
  input.push_back(Row(schema, 0, Value(60.0), 0, Value(0.0)));
  input.push_back(Row(schema, 1, Value(80.0), 0, Value(0.0)));
  input.push_back(Row(schema, 2, Value(1000.0), 0, Value(0.0)));
  Result<TupleVector> out = RunClean(rules, std::move(input));
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out.ValueOrDie()[2].value(1).ToDouble().ValueOrDie(), 70.0);
}

TEST(CleanerOperatorTest, RepairedValueEntersHistoryNotThePollutedOne) {
  SchemaPtr schema = WearableLikeSchema();
  CleaningRules rules = LoadRules(
      R"({"history": 8,
          "rules": [{"label": "bpm", "column": "BPM",
          "detect": {"type": "range", "min": 20, "max": 250},
          "repair": "last_good"}]})",
      schema);
  TupleVector input;
  input.push_back(Row(schema, 0, Value(70.0), 0, Value(0.0)));
  input.push_back(Row(schema, 1, Value(1000.0), 0, Value(0.0)));
  // If 1000 had entered the history, this repair would yield 1000.
  input.push_back(Row(schema, 2, Value(2000.0), 0, Value(0.0)));
  Result<TupleVector> out = RunClean(rules, std::move(input));
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out.ValueOrDie()[1].value(1).ToDouble().ValueOrDie(), 70.0);
  EXPECT_DOUBLE_EQ(out.ValueOrDie()[2].value(1).ToDouble().ValueOrDie(), 70.0);
}

TEST(CleanerOperatorTest, EarlierRuleRepairsBeforeLaterRuleSees) {
  SchemaPtr schema = WearableLikeSchema();
  // Canonical order: clamp (stateless) runs before the stateful
  // rate_of_change rule, so the clamped value is what rate-of-change
  // compares — it must not fire on the already-repaired 250.
  CleaningRules rules = LoadRules(
      R"({"rules": [
        {"label": "clamp_bpm", "column": "BPM",
         "detect": {"type": "range", "min": 20, "max": 250},
         "repair": "clamp"},
        {"label": "jump", "column": "BPM",
         "detect": {"type": "rate_of_change", "max_change": 300},
         "repair": "last_good"}]})",
      schema);
  TupleVector input;
  input.push_back(Row(schema, 0, Value(70.0), 0, Value(0.0)));
  input.push_back(Row(schema, 1, Value(9000.0), 0, Value(0.0)));
  CleanStats stats;
  Result<TupleVector> out =
      RunClean(rules, std::move(input), nullptr, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out.ValueOrDie()[1].value(1).ToDouble().ValueOrDie(), 250.0);
  ASSERT_EQ(stats.rules.size(), 2u);
  EXPECT_EQ(stats.rules[0].fired, 1u);
  EXPECT_EQ(stats.rules[1].fired, 0u);
}

TEST(CleanerOperatorTest, KeyPartitionsKeepSeparateHistories) {
  SchemaPtr schema = WearableLikeSchema();
  CleaningRules rules = LoadRules(
      R"({"key": "Device",
          "rules": [{"label": "bpm", "column": "BPM",
          "detect": {"type": "not_null"}, "repair": "last_good"}]})",
      schema);
  TupleVector input;
  input.push_back(Row(schema, 0, Value(60.0), 0, Value(0.0), "a"));
  input.push_back(Row(schema, 1, Value(90.0), 0, Value(0.0), "b"));
  input.push_back(Row(schema, 2, Value::Null(), 0, Value(0.0), "a"));
  input.push_back(Row(schema, 3, Value::Null(), 0, Value(0.0), "b"));
  Result<TupleVector> out = RunClean(rules, std::move(input));
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out.ValueOrDie()[2].value(1).ToDouble().ValueOrDie(), 60.0);
  EXPECT_DOUBLE_EQ(out.ValueOrDie()[3].value(1).ToDouble().ValueOrDie(), 90.0);
}

TEST(CleanerOperatorTest, GuardedRuleSkipsWhenPreconditionFails) {
  SchemaPtr schema = WearableLikeSchema();
  CleaningRules rules = LoadRules(
      R"({"rules": [{"label": "bpm_zero", "column": "BPM",
          "detect": {"type": "range", "min": 1, "max": 250},
          "repair": "set_null",
          "when": {"column": "Steps", "op": "gt", "value": 0}}]})",
      schema);
  TupleVector input;
  input.push_back(Row(schema, 0, Value(0.0), 0, Value(0.0)));    // idle: keep
  input.push_back(Row(schema, 1, Value(0.0), 500, Value(0.0)));  // active
  Result<TupleVector> out = RunClean(rules, std::move(input));
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out.ValueOrDie()[0].value(1).is_null());
  EXPECT_TRUE(out.ValueOrDie()[1].value(1).is_null());
}

TEST(CleanerOperatorTest, PerRuleCountersPublishedThroughRegistry) {
  SchemaPtr schema = WearableLikeSchema();
  CleaningRules rules = LoadRules(
      R"({"name": "unit", "rules": [
        {"label": "bpm", "column": "BPM",
         "detect": {"type": "range", "min": 20, "max": 250},
         "repair": "set_null"},
        {"label": "toss", "column": "Distance",
         "detect": {"type": "range", "min": 0, "max": 50},
         "repair": "drop"}]})",
      schema);
  TupleVector input;
  input.push_back(Row(schema, 0, Value(900.0), 0, Value(0.0)));
  input.push_back(Row(schema, 1, Value(70.0), 0, Value(999.0)));
  obs::MetricRegistry registry;
  Result<TupleVector> out =
      RunClean(rules, std::move(input), nullptr, nullptr, &registry);
  ASSERT_TRUE(out.ok());
  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("icewafl_cleaner_tuples_total"), std::string::npos);
  EXPECT_NE(text.find("icewafl_cleaner_fired_total"), std::string::npos);
  EXPECT_NE(text.find("icewafl_cleaner_repaired_total"), std::string::npos);
  EXPECT_NE(text.find("icewafl_cleaner_dropped_total"), std::string::npos);
  // Labeled per rule and per document.
  EXPECT_NE(text.find("rule=\"bpm\""), std::string::npos) << text;
  EXPECT_NE(text.find("rule=\"toss\""), std::string::npos) << text;
  EXPECT_NE(text.find("rules=\"unit\""), std::string::npos) << text;
}

// One cleaning path: the offline runner and the served sink, fed the
// same rows in runtime-sized batches, give the same bytes, repair log
// and counters, on a document mixing pure and stateful rules.
TEST(CleanTuplesTest, MatchesCleaningSinkBatches) {
  SchemaPtr schema = WearableLikeSchema();
  CleaningRules rules = LoadRules(
      R"({"history": 8, "rules": [
        {"label": "drop_dist", "column": "Distance",
         "detect": {"type": "range", "min": 0, "max": 50},
         "repair": "drop"},
        {"label": "clamp_bpm", "column": "BPM",
         "detect": {"type": "range", "min": 20, "max": 250},
         "repair": "clamp"},
        {"label": "null_bpm", "column": "BPM",
         "detect": {"type": "not_null"}, "repair": "last_good"},
        {"label": "jump", "column": "BPM",
         "detect": {"type": "rate_of_change", "max_change": 50},
         "repair": "window_median"}]})",
      schema);

  // A deterministic pseudo-random stream with pollution sprinkled in.
  Rng rng(7);
  TupleVector input;
  for (int64_t i = 0; i < 500; ++i) {
    Value bpm(60.0 + static_cast<double>(rng.Next() % 40));
    if (i % 17 == 0) bpm = Value::Null();
    if (i % 23 == 0) bpm = Value(1000.0);
    Value distance(static_cast<double>(rng.Next() % 10));
    if (i % 31 == 0) distance = Value(120000.0);
    input.push_back(Row(schema, i, std::move(bpm),
                        static_cast<int64_t>(rng.Next() % 100),
                        std::move(distance)));
  }

  RepairLog offline_log;
  CleanStats offline_stats;
  Result<TupleVector> offline =
      RunClean(rules, input, &offline_log, &offline_stats);
  ASSERT_TRUE(offline.ok()) << offline.status().message();
  ASSERT_GT(offline_stats.fired, 0u);
  ASSERT_GT(offline_stats.tuples_dropped, 0u);

  VectorSink served;
  RepairLog served_log;
  CleaningSink sink(rules, &served, nullptr, &served_log);
  const size_t batch_rows = RuntimeOptions{}.batch_size;
  for (size_t start = 0; start < input.size(); start += batch_rows) {
    const size_t end = std::min(input.size(), start + batch_rows);
    TupleVector batch(input.begin() + static_cast<ptrdiff_t>(start),
                      input.begin() + static_cast<ptrdiff_t>(end));
    ASSERT_TRUE(sink.WriteBatch(&batch).ok());
  }
  ASSERT_TRUE(sink.Flush().ok());

  EXPECT_EQ(ToCsvString(schema, served.tuples()),
            ToCsvString(schema, offline.ValueOrDie()));
  EXPECT_EQ(served_log.entries(), offline_log.entries());
  EXPECT_EQ(sink.stats().ToJson().Dump(), offline_stats.ToJson().Dump());
}

TEST(RepairLogTest, DistinctCountAndJson) {
  RepairLog a;
  a.Record({3, "r", "BPM", "set_null"});
  a.Record({1, "r", "BPM", "set_null"});
  a.Record({2, "s", "BPM", "drop"});
  a.Record({1, "s", "BPM", "drop"});
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a.entries()[1].tuple_id, 1u);
  EXPECT_EQ(a.entries()[3].rule, "s");
  EXPECT_EQ(a.DistinctTupleCount(), 3u);
  const Json json = a.ToJson();
  EXPECT_EQ(json.GetInt("count", 0), 4);
  EXPECT_EQ(json.Get("entries").ValueOrDie().size(), 4u);
}

}  // namespace
}  // namespace clean
}  // namespace icewafl
