#ifndef ICEWAFL_STREAM_SOURCE_H_
#define ICEWAFL_STREAM_SOURCE_H_

#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "stream/tuple.h"
#include "util/result.h"

namespace icewafl {

/// \brief A pull-based producer of tuples.
///
/// Sources model both real (unbounded) streams and micro-batched input
/// (Section 2.1: "either a real data stream or a data stream split into
/// small batches"); within the framework every input is consumed
/// tuple-wise.
class Source {
 public:
  virtual ~Source() = default;

  /// \brief Schema shared by all produced tuples.
  virtual SchemaPtr schema() const = 0;

  /// \brief Produces the next tuple into `*out`. Returns false at end of
  /// stream (bounded sources only), true otherwise.
  ///
  /// `*out` may hold an earlier row's storage: the pipeline runtime
  /// recycles spent batches, so a copy-assignment into it reuses live
  /// value buffers. A source must therefore overwrite every field of
  /// `*out` (schema, values, id, event and arrival time, substream),
  /// never just the values; assigning a whole Tuple does that.
  virtual Result<bool> Next(Tuple* out) = 0;

  /// \brief Rewinds to the beginning, if the source supports replay.
  virtual Status Reset() {
    return Status::NotImplemented("source does not support Reset");
  }
};

/// \brief Bounded source over an in-memory tuple vector (replayable).
class VectorSource : public Source {
 public:
  VectorSource(SchemaPtr schema, TupleVector tuples)
      : schema_(std::move(schema)), tuples_(std::move(tuples)) {}

  SchemaPtr schema() const override { return schema_; }

  Result<bool> Next(Tuple* out) override {
    if (pos_ >= tuples_.size()) return false;
    *out = tuples_[pos_++];
    return true;
  }

  Status Reset() override {
    pos_ = 0;
    return Status::OK();
  }

  size_t size() const { return tuples_.size(); }

 private:
  SchemaPtr schema_;
  TupleVector tuples_;
  size_t pos_ = 0;
};

/// \brief Source driven by a generator function; `fn(i)` returns the i-th
/// tuple or nullopt to end the stream. Useful for synthetic workloads
/// without materializing them.
class GeneratorSource : public Source {
 public:
  using GenerateFn = std::function<std::optional<Tuple>(uint64_t index)>;

  GeneratorSource(SchemaPtr schema, GenerateFn fn)
      : schema_(std::move(schema)), fn_(std::move(fn)) {}

  SchemaPtr schema() const override { return schema_; }

  Result<bool> Next(Tuple* out) override {
    std::optional<Tuple> t = fn_(index_);
    if (!t.has_value()) return false;
    ++index_;
    *out = std::move(*t);
    return true;
  }

  Status Reset() override {
    index_ = 0;
    return Status::OK();
  }

 private:
  SchemaPtr schema_;
  GenerateFn fn_;
  uint64_t index_ = 0;
};

/// \brief Drains a bounded source into a vector.
Result<TupleVector> CollectAll(Source* source);

}  // namespace icewafl

#endif  // ICEWAFL_STREAM_SOURCE_H_
