// Fixture tests for icewafl-lint: each broken config locks the exact
// diagnostic code the analyzer must emit, so codes stay stable across
// refactors (they are documented in DESIGN.md section 6).
#include "analysis/analyzer.h"

#include <gtest/gtest.h>

#include <string>

#include "core/config.h"
#include "dq/config.h"
#include "stream/schema.h"

namespace icewafl {
namespace analysis {
namespace {

Json P(const std::string& text) {
  auto json = Json::Parse(text);
  EXPECT_TRUE(json.ok()) << json.status().ToString() << " for " << text;
  return json.ValueOrDie();
}

/// Time (timestamp), City (string), Temp (double): small but covers all
/// the type-compatibility axes.
SchemaPtr TestSchema() {
  return Schema::Make({{"Time", ValueType::kInt64},
                       {"City", ValueType::kString},
                       {"Temp", ValueType::kDouble}},
                      "Time")
      .ValueOrDie();
}

AnalyzeOptions SchemaOptions() {
  AnalyzeOptions options;
  options.schema = TestSchema();
  return options;
}

std::string Pipeline(const std::string& polluters) {
  return R"({"name": "t", "polluters": [)" + polluters + "]}";
}

std::string Standard(const std::string& attributes, const std::string& error,
                     const std::string& condition = R"({"type": "always"})") {
  return R"({"type": "standard", "label": "p", "attributes": )" + attributes +
         R"(, "error": )" + error + R"(, "condition": )" + condition + "}";
}

TEST(AnalyzerTest, CleanPipelineHasNoFindings) {
  Diagnostics diags = AnalyzePipeline(
      P(Pipeline(Standard(R"(["Temp"])",
                          R"({"type": "gaussian_noise", "stddev": 1.0})",
                          R"({"type": "random", "p": 0.5})"))),
      SchemaOptions());
  EXPECT_TRUE(diags.empty()) << diags.ToReport();
}

TEST(AnalyzerTest, IW100UnloadablePolluter) {
  Diagnostics diags = AnalyzePipeline(
      P(Pipeline(R"({"type": "bogus"})")), SchemaOptions());
  EXPECT_TRUE(diags.HasCode("IW100")) << diags.ToReport();
  EXPECT_TRUE(diags.HasErrors());
}

TEST(AnalyzerTest, IW101UnknownAttribute) {
  Diagnostics diags = AnalyzePipeline(
      P(Pipeline(Standard(R"(["Nope"])",
                          R"({"type": "gaussian_noise", "stddev": 1.0})"))),
      SchemaOptions());
  EXPECT_TRUE(diags.HasCode("IW101")) << diags.ToReport();
  EXPECT_TRUE(diags.HasErrors());
  // The finding points into the attributes array.
  EXPECT_EQ(diags.items()[0].path, "/polluters/0/attributes/0");
}

TEST(AnalyzerTest, IW102NumericErrorOnStringColumn) {
  Diagnostics diags = AnalyzePipeline(
      P(Pipeline(Standard(R"(["City"])",
                          R"({"type": "gaussian_noise", "stddev": 1.0})"))),
      SchemaOptions());
  EXPECT_TRUE(diags.HasCode("IW102")) << diags.ToReport();
}

TEST(AnalyzerTest, IW102StringErrorOnNumericColumn) {
  Diagnostics diags = AnalyzePipeline(
      P(Pipeline(Standard(R"(["Temp"])", R"({"type": "typo"})"))),
      SchemaOptions());
  EXPECT_TRUE(diags.HasCode("IW102")) << diags.ToReport();
}

TEST(AnalyzerTest, IW103ConditionUnknownAttribute) {
  Diagnostics diags = AnalyzePipeline(
      P(Pipeline(Standard(
          R"(["Temp"])", R"({"type": "missing_value"})",
          R"({"type": "value", "attribute": "Nope", "op": ">", "operand": 1})"))),
      SchemaOptions());
  EXPECT_TRUE(diags.HasCode("IW103")) << diags.ToReport();
}

TEST(AnalyzerTest, IW104OperandTypeMismatch) {
  Diagnostics diags = AnalyzePipeline(
      P(Pipeline(Standard(
          R"(["Temp"])", R"({"type": "missing_value"})",
          R"({"type": "value", "attribute": "City", "op": "==", "operand": 7})"))),
      SchemaOptions());
  EXPECT_TRUE(diags.HasCode("IW104")) << diags.ToReport();
}

TEST(AnalyzerTest, IW104WindowAggregateOverString) {
  Diagnostics diags = AnalyzePipeline(
      P(Pipeline(Standard(R"(["Temp"])", R"({"type": "missing_value"})",
                          R"({"type": "window_aggregate", "attribute": "City",
                              "window_seconds": 60, "agg": "mean",
                              "op": ">", "threshold": 1})"))),
      SchemaOptions());
  EXPECT_TRUE(diags.HasCode("IW104")) << diags.ToReport();
}

TEST(AnalyzerTest, IW105ValueErrorOnTimestampColumn) {
  Diagnostics diags = AnalyzePipeline(
      P(Pipeline(Standard(R"(["Time"])", R"({"type": "missing_value"})"))),
      SchemaOptions());
  EXPECT_TRUE(diags.HasCode("IW105")) << diags.ToReport();
  EXPECT_FALSE(diags.HasErrors());  // hygiene warning, not an error
}

TEST(AnalyzerTest, IW106SwapAttributesArity) {
  Diagnostics diags = AnalyzePipeline(
      P(Pipeline(Standard(R"(["Temp"])", R"({"type": "swap_attributes"})"))),
      SchemaOptions());
  EXPECT_TRUE(diags.HasCode("IW106")) << diags.ToReport();
}

TEST(AnalyzerTest, IW107SingleCategory) {
  Diagnostics diags = AnalyzePipeline(
      P(Pipeline(Standard(
          R"(["City"])",
          R"({"type": "incorrect_category", "categories": ["only"]})"))),
      SchemaOptions());
  EXPECT_TRUE(diags.HasCode("IW107")) << diags.ToReport();
}

TEST(AnalyzerTest, IW201DeadConditionViaZeroProbability) {
  Diagnostics diags = AnalyzePipeline(
      P(Pipeline(Standard(R"(["Temp"])", R"({"type": "missing_value"})",
                          R"({"type": "random", "p": 0.0})"))),
      SchemaOptions());
  EXPECT_TRUE(diags.HasCode("IW201")) << diags.ToReport();
}

TEST(AnalyzerTest, IW201ContradictoryWindowIntersection) {
  Diagnostics diags = AnalyzePipeline(
      P(Pipeline(Standard(
          R"(["Temp"])", R"({"type": "missing_value"})",
          R"({"type": "and", "children": [
               {"type": "time_window", "start": 0, "end": 100},
               {"type": "time_window", "start": 200, "end": 300}]})"))),
      SchemaOptions());
  EXPECT_TRUE(diags.HasCode("IW201")) << diags.ToReport();
  // Reported once, at the contradiction, not again at the polluter.
  EXPECT_EQ(diags.ErrorCount(), 1u);
}

TEST(AnalyzerTest, LiteralNeverIsNotFlagged) {
  Diagnostics diags = AnalyzePipeline(
      P(Pipeline(Standard(R"(["Temp"])", R"({"type": "missing_value"})",
                          R"({"type": "never"})"))),
      SchemaOptions());
  EXPECT_FALSE(diags.HasCode("IW201")) << diags.ToReport();
  EXPECT_TRUE(diags.empty()) << diags.ToReport();
}

TEST(AnalyzerTest, IW202TriviallyTrueProbability) {
  Diagnostics diags = AnalyzePipeline(
      P(Pipeline(Standard(R"(["Temp"])", R"({"type": "missing_value"})",
                          R"({"type": "random", "p": 1.0})"))),
      SchemaOptions());
  EXPECT_TRUE(diags.HasCode("IW202")) << diags.ToReport();
  EXPECT_FALSE(diags.HasErrors());
}

TEST(AnalyzerTest, IW203ProbabilityOutOfRange) {
  Diagnostics diags = AnalyzePipeline(
      P(Pipeline(Standard(R"(["Temp"])", R"({"type": "missing_value"})",
                          R"({"type": "random", "p": 1.5})"))),
      SchemaOptions());
  EXPECT_TRUE(diags.HasCode("IW203")) << diags.ToReport();
}

TEST(AnalyzerTest, IW204EmptyTimeWindow) {
  Diagnostics diags = AnalyzePipeline(
      P(Pipeline(Standard(R"(["Temp"])", R"({"type": "missing_value"})",
                          R"({"type": "time_window",
                              "start": 100, "end": 50})"))),
      SchemaOptions());
  EXPECT_TRUE(diags.HasCode("IW204")) << diags.ToReport();
}

TEST(AnalyzerTest, IW205DailyWindowOutOfRange) {
  Diagnostics diags = AnalyzePipeline(
      P(Pipeline(Standard(R"(["Temp"])", R"({"type": "missing_value"})",
                          R"({"type": "daily_window", "start_minute": 0,
                              "end_minute": 1500})"))),
      SchemaOptions());
  EXPECT_TRUE(diags.HasCode("IW205")) << diags.ToReport();
}

TEST(AnalyzerTest, IW301WindowOutsideStreamBounds) {
  AnalyzeOptions options = SchemaOptions();
  options.stream_start = 1000;
  options.stream_end = 2000;
  Diagnostics diags = AnalyzePipeline(
      P(Pipeline(Standard(R"(["Temp"])", R"({"type": "missing_value"})",
                          R"({"type": "time_window",
                              "start": 0, "end": 10})"))),
      options);
  EXPECT_TRUE(diags.HasCode("IW301")) << diags.ToReport();
}

TEST(AnalyzerTest, IW302OverlappingExclusiveBranches) {
  const std::string child1 = Standard(
      R"(["Temp"])", R"({"type": "scale", "factor": 2})",
      R"({"type": "time_window", "start": 0, "end": 100})");
  const std::string child2 = Standard(
      R"(["Temp"])", R"({"type": "scale", "factor": 3})",
      R"({"type": "time_window", "start": 50, "end": 150})");
  Diagnostics diags = AnalyzePipeline(
      P(Pipeline(R"({"type": "exclusive", "label": "x", "children": [)" +
                 child1 + "," + child2 + "]}")),
      SchemaOptions());
  EXPECT_TRUE(diags.HasCode("IW302")) << diags.ToReport();
}

TEST(AnalyzerTest, IW303NegativeDuration) {
  Diagnostics diags = AnalyzePipeline(
      P(Pipeline(Standard(R"([])", R"({"type": "delay",
                                       "delay_seconds": -5})"))),
      SchemaOptions());
  EXPECT_TRUE(diags.HasCode("IW303")) << diags.ToReport();
}

TEST(AnalyzerTest, IW304SuspiciousShiftMagnitude) {
  Diagnostics diags = AnalyzePipeline(
      P(Pipeline(Standard(R"([])", R"({"type": "timestamp_shift",
                                       "shift_seconds": 1000000000})"))),
      SchemaOptions());
  EXPECT_TRUE(diags.HasCode("IW304")) << diags.ToReport();
  EXPECT_FALSE(diags.HasErrors());
}

TEST(AnalyzerTest, IW401DuplicateLabels) {
  const std::string polluter =
      Standard(R"(["Temp"])", R"({"type": "missing_value"})");
  Diagnostics diags = AnalyzePipeline(
      P(Pipeline(polluter + "," + polluter)), SchemaOptions());
  EXPECT_TRUE(diags.HasCode("IW401")) << diags.ToReport();
  EXPECT_FALSE(diags.HasErrors());
}

TEST(AnalyzerTest, IW402UnknownConfigKey) {
  Diagnostics diags = AnalyzePipeline(
      P(Pipeline(Standard(
          R"(["Temp"])",
          R"({"type": "gaussian_noise", "stddev": 1.0, "sttdev": 2.0})"))),
      SchemaOptions());
  EXPECT_TRUE(diags.HasCode("IW402")) << diags.ToReport();
  EXPECT_FALSE(diags.HasErrors());
}

TEST(AnalyzerTest, IW403WeightsArityMismatch) {
  const std::string child =
      Standard(R"(["Temp"])", R"({"type": "missing_value"})");
  Diagnostics diags = AnalyzePipeline(
      P(Pipeline(R"({"type": "exclusive", "label": "x", "weights": [1],
                     "children": [)" + child + "," + child + "]}")),
      SchemaOptions());
  EXPECT_TRUE(diags.HasCode("IW403")) << diags.ToReport();
}

TEST(AnalyzerTest, IW501SuiteUnknownColumn) {
  Json pipeline = P(Pipeline(
      Standard(R"(["Temp"])", R"({"type": "missing_value"})")));
  Json suite = P(R"({"name": "s", "expectations": [
      {"type": "expect_column_values_to_not_be_null", "column": "Nope"}]})");
  Diagnostics diags = AnalyzeArtifacts(pipeline, &suite, SchemaOptions());
  EXPECT_TRUE(diags.HasCode("IW501")) << diags.ToReport();
  // Suite findings are prefixed so both documents can be told apart.
  bool found = false;
  for (const Diagnostic& d : diags.items()) {
    if (d.code == "IW501") {
      EXPECT_EQ(d.path, "suite:/expectations/0/column");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(AnalyzerTest, IW502CoverageGap) {
  Json pipeline = P(Pipeline(
      Standard(R"(["Temp"])", R"({"type": "missing_value"})")));
  Json suite = P(R"({"name": "s", "expectations": [
      {"type": "expect_column_values_to_not_be_null", "column": "City"}]})");
  Diagnostics diags = AnalyzeArtifacts(pipeline, &suite, SchemaOptions());
  EXPECT_TRUE(diags.HasCode("IW502")) << diags.ToReport();
  EXPECT_FALSE(diags.HasErrors());
}

TEST(AnalyzerTest, CoverageSatisfiedByMatchingColumn) {
  Json pipeline = P(Pipeline(
      Standard(R"(["Temp"])", R"({"type": "missing_value"})")));
  Json suite = P(R"({"name": "s", "expectations": [
      {"type": "expect_column_values_to_not_be_null", "column": "Temp"}]})");
  Diagnostics diags = AnalyzeArtifacts(pipeline, &suite, SchemaOptions());
  EXPECT_FALSE(diags.HasCode("IW502")) << diags.ToReport();
}

TEST(AnalyzerTest, TemporalErrorCoveredByIncreasingExpectation) {
  Json pipeline = P(Pipeline(
      Standard(R"([])", R"({"type": "delay", "delay_seconds": 60})")));
  Json gap_suite = P(R"({"name": "s", "expectations": [
      {"type": "expect_column_values_to_not_be_null", "column": "Temp"}]})");
  EXPECT_TRUE(AnalyzeArtifacts(pipeline, &gap_suite, SchemaOptions())
                  .HasCode("IW502"));
  Json covering_suite = P(R"({"name": "s", "expectations": [
      {"type": "expect_column_values_to_be_increasing", "column": "Time"}]})");
  EXPECT_FALSE(AnalyzeArtifacts(pipeline, &covering_suite, SchemaOptions())
                   .HasCode("IW502"));
}

TEST(AnalyzerTest, IW503EmptyExpectationRange) {
  Json suite = P(R"({"name": "s", "expectations": [
      {"type": "expect_column_values_to_be_between", "column": "Temp",
       "min": 10, "max": 5}]})");
  Diagnostics diags = AnalyzeSuite(suite, SchemaOptions());
  EXPECT_TRUE(diags.HasCode("IW503")) << diags.ToReport();
}

TEST(AnalyzerTest, IW504InvalidRegexPointsAtThePattern) {
  // Same compiler, same pointer as the loader's error.
  Json suite = P(R"({"name": "s", "expectations": [
      {"type": "expect_column_values_to_match_regex", "column": "City",
       "regex": "(unclosed"}]})");
  Diagnostics diags = AnalyzeSuite(suite, SchemaOptions());
  ASSERT_TRUE(diags.HasCode("IW504")) << diags.ToReport();
  EXPECT_FALSE(diags.HasCode("IW100")) << diags.ToReport();
  for (const Diagnostic& d : diags.items()) {
    if (d.code != "IW504") continue;
    EXPECT_EQ(d.path, "/expectations/0/regex");
    EXPECT_NE(d.message.find("(at offset 0)"), std::string::npos)
        << d.message;
  }
  auto loaded = dq::SuiteFromJson(suite);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("/expectations/0/regex"),
            std::string::npos);
  // A valid pattern is no finding.
  Json ok = P(R"({"name": "s", "expectations": [
      {"type": "expect_column_values_to_match_regex", "column": "City",
       "regex": "[A-Z][a-z]+"}]})");
  EXPECT_FALSE(AnalyzeSuite(ok, SchemaOptions()).HasErrors());
}

TEST(AnalyzerTest, SchemaFreeAnalysisSkipsSchemaChecks) {
  // Without a schema the unknown-attribute checks cannot run, but the
  // schema-independent ones still do.
  Diagnostics diags = AnalyzePipeline(
      P(Pipeline(Standard(R"(["Anything"])", R"({"type": "missing_value"})",
                          R"({"type": "random", "p": 2.0})"))));
  EXPECT_FALSE(diags.HasCode("IW101"));
  EXPECT_TRUE(diags.HasCode("IW203"));
}

TEST(AnalyzerTest, AnalyzeOrDiePassesCleanAndRejectsBroken) {
  Json clean = P(Pipeline(
      Standard(R"(["Temp"])", R"({"type": "gaussian_noise", "stddev": 1})")));
  EXPECT_TRUE(AnalyzeOrDie(clean, SchemaOptions()).ok());
  Json broken = P(Pipeline(
      Standard(R"(["Nope"])", R"({"type": "gaussian_noise", "stddev": 1})")));
  Status st = AnalyzeOrDie(broken, SchemaOptions());
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("IW101"), std::string::npos) << st.message();
}

TEST(AnalyzerTest, LoadHookGatesPipelineFromJson) {
  InstallAnalyzeOrDieHook(SchemaOptions());
  Json broken = P(Pipeline(
      Standard(R"(["Nope"])", R"({"type": "gaussian_noise", "stddev": 1})")));
  auto gated = PipelineFromJson(broken);
  EXPECT_FALSE(gated.ok());
  EXPECT_NE(gated.status().message().find("static analysis"),
            std::string::npos);
  UninstallAnalyzeOrDieHook();
  // Unhooked, the statically-broken pipeline loads again (errors only
  // surface at runtime).
  EXPECT_TRUE(PipelineFromJson(broken).ok());
}

// ---------------------------------------------------------------------
// IW61x — the admin-channel request lint (DESIGN.md section 14). Run
// client-side by `icewafl_cli admin` and re-run server-side, so the
// fixtures here lock both gates at once.
// ---------------------------------------------------------------------

AdminAnalyzeOptions AdminOptions() {
  AdminAnalyzeOptions options;
  options.known_methods = {"list_sessions", "get_config",  "swap_pipeline",
                           "set_rate",      "stop_session", "create_session",
                           "get_metrics"};
  options.known_scenarios = {"random_temporal", "software_update"};
  return options;
}

TEST(AnalyzeAdminRequest, CleanRequestsHaveNoFindings) {
  for (const char* text :
       {R"({"id": 1, "method": "list_sessions", "params": {}})",
        R"({"id": "x", "method": "get_config",
            "params": {"session": "live"}})",
        R"({"method": "swap_pipeline",
            "params": {"session": "live", "scenario": "software_update"}})",
        R"({"method": "swap_pipeline",
            "params": {"session": "live", "pipeline": {"polluters": []}}})",
        R"({"method": "set_rate",
            "params": {"session": "live", "tuples_per_sec": 0}})",
        R"({"method": "create_session",
            "params": {"session": {"name": "n", "scenario": "s"}}})"}) {
    SCOPED_TRACE(text);
    Diagnostics diags = AnalyzeAdminRequest(P(text), AdminOptions());
    EXPECT_FALSE(diags.HasErrors()) << diags.ToReport();
    EXPECT_EQ(diags.items().size(), 0u) << diags.ToReport();
  }
}

TEST(AnalyzeAdminRequest, IW610FiresOnMalformedEnvelopes) {
  for (const char* text :
       {R"(42)",                                         // not an object
        R"({})",                                         // no method
        R"({"method": 7})",                              // method type
        R"({"method": ""})",                             // empty method
        R"({"id": {}, "method": "list_sessions"})",      // id type
        R"({"method": "list_sessions", "params": []})"}) {  // params type
    SCOPED_TRACE(text);
    Diagnostics diags = AnalyzeAdminRequest(P(text), AdminOptions());
    EXPECT_TRUE(diags.HasCode("IW610")) << diags.ToReport();
    EXPECT_TRUE(diags.HasErrors());
  }
}

TEST(AnalyzeAdminRequest, IW611FiresOnUnknownMethod) {
  Diagnostics diags = AnalyzeAdminRequest(
      P(R"({"method": "frobnicate", "params": {}})"), AdminOptions());
  EXPECT_TRUE(diags.HasCode("IW611")) << diags.ToReport();
  // With no method vocabulary the membership check is skipped.
  Diagnostics open = AnalyzeAdminRequest(
      P(R"({"method": "frobnicate", "params": {}})"), AdminAnalyzeOptions{});
  EXPECT_FALSE(open.HasCode("IW611")) << open.ToReport();
}

TEST(AnalyzeAdminRequest, IW612FiresOnMissingSessionTarget) {
  for (const char* text :
       {R"({"method": "get_config", "params": {}})",
        R"({"method": "stop_session", "params": {"session": ""}})",
        R"({"method": "set_rate",
            "params": {"session": 7, "tuples_per_sec": 1}})",
        R"({"method": "create_session", "params": {}})",
        R"({"method": "create_session", "params": {"session": "flat"}})"}) {
    SCOPED_TRACE(text);
    Diagnostics diags = AnalyzeAdminRequest(P(text), AdminOptions());
    EXPECT_TRUE(diags.HasCode("IW612")) << diags.ToReport();
    EXPECT_TRUE(diags.HasErrors());
  }
}

TEST(AnalyzeAdminRequest, IW613FiresOnBadSwapPayloads) {
  for (const char* text :
       {R"({"method": "swap_pipeline", "params": {"session": "s"}})",
        R"({"method": "swap_pipeline",
            "params": {"session": "s", "scenario": "x",
                       "pipeline": {}}})",               // both forms
        R"({"method": "swap_pipeline",
            "params": {"session": "s", "pipeline": "inline"}})",
        R"({"method": "swap_pipeline",
            "params": {"session": "s", "scenario": ""}})",
        R"({"method": "swap_pipeline",
            "params": {"session": "s", "scenario": "unknown_name"}})"}) {
    SCOPED_TRACE(text);
    Diagnostics diags = AnalyzeAdminRequest(P(text), AdminOptions());
    EXPECT_TRUE(diags.HasCode("IW613")) << diags.ToReport();
    EXPECT_TRUE(diags.HasErrors());
  }
}

TEST(AnalyzeAdminRequest, IW614FiresOnBadRates) {
  for (const char* text :
       {R"({"method": "set_rate", "params": {"session": "s"}})",
        R"({"method": "set_rate",
            "params": {"session": "s", "tuples_per_sec": "fast"}})",
        R"({"method": "set_rate",
            "params": {"session": "s", "tuples_per_sec": -0.5}})"}) {
    SCOPED_TRACE(text);
    Diagnostics diags = AnalyzeAdminRequest(P(text), AdminOptions());
    EXPECT_TRUE(diags.HasCode("IW614")) << diags.ToReport();
    EXPECT_TRUE(diags.HasErrors());
  }
}

TEST(AnalyzeAdminRequest, IW604WarnsOnUnknownKeys) {
  // Unknown envelope key and unknown per-method params key: warnings
  // only, the request still passes the gate.
  Diagnostics diags = AnalyzeAdminRequest(
      P(R"({"method": "get_config", "verbose": true,
            "params": {"session": "s", "tpyo": 1}})"),
      AdminOptions());
  EXPECT_TRUE(diags.HasCode("IW604")) << diags.ToReport();
  EXPECT_FALSE(diags.HasErrors()) << diags.ToReport();
  EXPECT_EQ(diags.items().size(), 2u) << diags.ToReport();
}

}  // namespace
}  // namespace analysis
}  // namespace icewafl
