#include "core/plan.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "core/config.h"
#include "test_helpers.h"

namespace icewafl {
namespace {

using testing_helpers::SensorSchema;
using testing_helpers::SensorTuple;

constexpr const char* kPipelineDoc = R"({
  "name": "null_temp",
  "polluters": [
    {"type": "standard", "label": "null_temp",
     "attributes": ["temp"],
     "condition": {"type": "always"},
     "error": {"type": "missing_value"}}
  ]
})";

std::shared_ptr<const TupleVector> MakeClean(const SchemaPtr& schema, int n) {
  auto clean = std::make_shared<TupleVector>();
  for (int i = 0; i < n; ++i) clean->push_back(SensorTuple(schema, i % 24));
  return clean;
}

Result<std::shared_ptr<PlanSnapshot>> MakeTestPlan(
    const SchemaPtr& schema, std::shared_ptr<const TupleVector> clean,
    const char* doc = kPipelineDoc) {
  Json config = Json::Parse(doc).ValueOrDie();
  auto pipeline = PipelineFromJson(config);
  if (!pipeline.ok()) return pipeline.status();
  return MakePlanSnapshot("custom", config, schema, std::move(clean),
                          std::move(pipeline).ValueOrDie(), /*seed=*/7,
                          /*parallelism=*/2, /*stream_start=*/0,
                          /*stream_end=*/0, /*tuples_per_sec=*/0.0);
}

TEST(PlanSnapshotTest, MakeBindsAndCarriesEverything) {
  SchemaPtr schema = SensorSchema();
  auto plan = MakeTestPlan(schema, MakeClean(schema, 10));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const PlanSnapshot& snapshot = *plan.ValueOrDie();
  // Unpublished: version and timestamp are the publisher's to assign.
  EXPECT_EQ(snapshot.version, 0u);
  EXPECT_EQ(snapshot.scenario, "custom");
  EXPECT_EQ(snapshot.seed, 7u);
  EXPECT_EQ(snapshot.parallelism, 2);
  EXPECT_EQ(snapshot.clean->size(), 10u);
  // The pipeline came back bound against the plan's schema.
  EXPECT_EQ(snapshot.pipeline.bound_schema(), schema);
  EXPECT_TRUE(snapshot.config.is_object());
}

TEST(PlanSnapshotTest, MakeRejectsNullSchemaAndNullClean) {
  SchemaPtr schema = SensorSchema();
  auto clean = MakeClean(schema, 4);
  Json config = Json::Parse(kPipelineDoc).ValueOrDie();
  auto pipeline = PipelineFromJson(config);
  ASSERT_TRUE(pipeline.ok());

  auto no_schema =
      MakePlanSnapshot("s", config, nullptr, clean,
                       pipeline.ValueOrDie().Clone(), 1, 1, 0, 0);
  EXPECT_FALSE(no_schema.ok());

  auto no_clean =
      MakePlanSnapshot("s", config, schema, nullptr,
                       pipeline.ValueOrDie().Clone(), 1, 1, 0, 0);
  EXPECT_FALSE(no_clean.ok());
}

TEST(PlanSnapshotTest, MakeSurfacesBindErrorsBeforePublication) {
  SchemaPtr schema = SensorSchema();
  // "NoSuchColumn" cannot bind against the sensor schema.
  const char* bad = R"({
    "name": "bad",
    "polluters": [
      {"type": "standard", "label": "bad",
       "attributes": ["NoSuchColumn"],
       "condition": {"type": "always"},
       "error": {"type": "missing_value"}}
    ]
  })";
  auto plan = MakeTestPlan(schema, MakeClean(schema, 4), bad);
  EXPECT_FALSE(plan.ok());
}

TEST(PlanSnapshotTest, MakeClampsParallelismAndRate) {
  SchemaPtr schema = SensorSchema();
  Json config = Json::Parse(kPipelineDoc).ValueOrDie();
  auto pipeline = PipelineFromJson(config);
  ASSERT_TRUE(pipeline.ok());
  auto plan = MakePlanSnapshot("s", config, schema, MakeClean(schema, 4),
                               std::move(pipeline).ValueOrDie(), 1,
                               /*parallelism=*/0, 0, 0,
                               /*tuples_per_sec=*/-5.0);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.ValueOrDie()->parallelism, 1);
  EXPECT_EQ(plan.ValueOrDie()->tuples_per_sec, 0.0);
}

TEST(PlanSnapshotTest, CloneIsDeepAndUnpublished) {
  SchemaPtr schema = SensorSchema();
  auto plan = MakeTestPlan(schema, MakeClean(schema, 6));
  ASSERT_TRUE(plan.ok());
  // Simulate publication, then clone for a delta update.
  plan.ValueOrDie()->version = 3;
  std::shared_ptr<PlanSnapshot> clone = ClonePlan(*plan.ValueOrDie());
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(clone->version, 0u) << "clones start unpublished";
  EXPECT_EQ(clone->scenario, "custom");
  EXPECT_EQ(clone->clean, plan.ValueOrDie()->clean)
      << "the clean stream is shared, not copied";
  EXPECT_EQ(clone->pipeline.bound_schema(), schema);
  // Mutating the clone leaves the original untouched.
  clone->tuples_per_sec = 123.0;
  EXPECT_EQ(plan.ValueOrDie()->tuples_per_sec, 0.0);
}

TEST(PlanSnapshotTest, BatchRowsFollowThePaceAtParallelismOne) {
  // Rows a paced P=1 plan fills in 2 ms, clamped to [1, 256]; unpaced
  // plans and P > 1 plans keep the runtime default.
  struct Case {
    double tuples_per_sec;
    int parallelism;
    size_t rows;
  };
  const Case cases[] = {
      {0.0, 1, 256},    {20000.0, 1, 40}, {1500.0, 1, 3},
      {1e9, 1, 256},    {0.001, 1, 1},    {20000.0, 2, 256},
      {128000.0, 1, 256}, {50.0, 1, 1},   {0.0, 4, 256},
  };
  PlanSnapshot plan;
  for (const Case& c : cases) {
    plan.tuples_per_sec = c.tuples_per_sec;
    plan.parallelism = c.parallelism;
    EXPECT_EQ(PlanBatchRows(plan), c.rows)
        << c.tuples_per_sec << " rows/s at P=" << c.parallelism;
  }
}

}  // namespace
}  // namespace icewafl
