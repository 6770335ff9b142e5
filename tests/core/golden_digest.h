#ifndef ICEWAFL_TESTS_CORE_GOLDEN_DIGEST_H_
#define ICEWAFL_TESTS_CORE_GOLDEN_DIGEST_H_

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/errors_numeric.h"
#include "core/errors_temporal.h"
#include "core/errors_value.h"
#include "core/process.h"
#include "util/time_util.h"

namespace icewafl {
namespace golden {

/// FNV-1a over raw bytes; the golden determinism test hashes every byte
/// of the PollutionResult (tuple metadata, value bit patterns, and log
/// entries) so that any behavioural drift of the pollution process —
/// ordering, RNG consumption, float arithmetic — changes the digest.
class Digest {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void I64(int64_t v) { Bytes(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void Val(const Value& v) {
    U64(static_cast<uint64_t>(v.type()));
    switch (v.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kBool:
        U64(v.AsBool() ? 1 : 0);
        break;
      case ValueType::kInt64:
        I64(v.AsInt64());
        break;
      case ValueType::kDouble: {
        uint64_t bits = 0;
        double d = v.AsDouble();
        std::memcpy(&bits, &d, sizeof(bits));
        U64(bits);
        break;
      }
      case ValueType::kString:
        Str(v.AsString());
        break;
    }
  }
  void TupleOf(const Tuple& t) {
    U64(t.id());
    I64(t.substream());
    I64(t.event_time());
    I64(t.arrival_time());
    U64(t.num_values());
    for (const Value& v : t.values()) Val(v);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

inline uint64_t DigestResult(const PollutionResult& r) {
  Digest d;
  d.U64(r.clean.size());
  for (const Tuple& t : r.clean) d.TupleOf(t);
  d.U64(r.polluted.size());
  for (const Tuple& t : r.polluted) d.TupleOf(t);
  d.U64(r.log.size());
  for (const PollutionLogEntry& e : r.log.entries()) {
    d.U64(e.tuple_id);
    d.I64(e.substream);
    d.Str(e.polluter);
    d.Str(e.error_type);
    d.U64(e.attributes.size());
    for (const std::string& a : e.attributes) d.Str(a);
    d.I64(e.tau);
  }
  return d.value();
}

/// Deterministic three-attribute sensor stream shared by the golden
/// configurations (hand-rolled so the digest does not depend on the
/// synthetic dataset generators).
inline TupleVector GoldenStream(const SchemaPtr& schema, int n) {
  TupleVector tuples;
  const Timestamp start = TimestampFromCivil({2016, 3, 1, 0, 0, 0});
  for (int i = 0; i < n; ++i) {
    tuples.emplace_back(
        schema,
        std::vector<Value>{Value(start + i * 900),
                           Value(20.0 + 0.25 * (i % 37) - 0.01 * i),
                           Value(int64_t{i % 97}),
                           Value(i % 5 == 0 ? "idle" : "active")});
  }
  return tuples;
}

inline SchemaPtr GoldenSchema() {
  return Schema::Make({{"timestamp", ValueType::kInt64},
                       {"temp", ValueType::kDouble},
                       {"steps", ValueType::kInt64},
                       {"state", ValueType::kString}},
                      "timestamp")
      .ValueOrDie();
}

inline PollutionPipeline GoldenPipeline(int variant) {
  PollutionPipeline pipeline("golden_" + std::to_string(variant));
  switch (variant % 3) {
    case 0:
      pipeline.Add(std::make_unique<StandardPolluter>(
          "noise", std::make_unique<GaussianNoiseError>(1.5),
          std::make_unique<RandomCondition>(0.4),
          std::vector<std::string>{"temp"}));
      pipeline.Add(std::make_unique<StandardPolluter>(
          "nulls", std::make_unique<MissingValueError>(),
          std::make_unique<RandomCondition>(0.15),
          std::vector<std::string>{"steps"}));
      break;
    case 1:
      pipeline.Add(std::make_unique<StandardPolluter>(
          "delay", std::make_unique<DelayError>(3600),
          std::make_unique<RandomCondition>(0.25),
          std::vector<std::string>{}));
      pipeline.Add(std::make_unique<StandardPolluter>(
          "scale", std::make_unique<ScaleError>(100.0),
          std::make_unique<RandomCondition>(0.1),
          std::vector<std::string>{"temp"}));
      break;
    default:
      pipeline.Add(std::make_unique<StandardPolluter>(
          "offset", std::make_unique<OffsetError>(-3.0),
          std::make_unique<RandomCondition>(0.5),
          std::vector<std::string>{"temp"}));
      break;
  }
  return pipeline;
}

/// The three frozen configurations of the golden test.
inline Result<PollutionResult> RunGoldenConfig(int config) {
  SchemaPtr schema = GoldenSchema();
  VectorSource source(schema, GoldenStream(schema, 700));
  switch (config) {
    case 0: {
      ProcessOptions options;
      options.num_substreams = 1;
      options.seed = 42;
      PollutionProcess process(options);
      process.AddPipeline(GoldenPipeline(0));
      return process.Run(&source);
    }
    case 1: {
      ProcessOptions options;
      options.num_substreams = 3;
      options.overlap_fraction = 0.35;
      options.seed = 7;
      PollutionProcess process(options);
      process.AddPipeline(GoldenPipeline(0));
      process.AddPipeline(GoldenPipeline(1));
      process.AddPipeline(GoldenPipeline(2));
      return process.Run(&source);
    }
    default: {
      ProcessOptions options;
      options.num_substreams = 2;
      options.overlap_fraction = 0.1;
      options.seed = 0x1CE3AF1ULL;
      options.enable_log = false;
      PollutionProcess process(options);
      process.AddPipeline(GoldenPipeline(1));
      process.AddPipeline(GoldenPipeline(2));
      return process.Run(&source);
    }
  }
}

}  // namespace golden
}  // namespace icewafl

#endif  // ICEWAFL_TESTS_CORE_GOLDEN_DIGEST_H_
