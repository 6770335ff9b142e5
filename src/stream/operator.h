#ifndef ICEWAFL_STREAM_OPERATOR_H_
#define ICEWAFL_STREAM_OPERATOR_H_

#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "stream/tuple.h"
#include "util/result.h"

namespace icewafl {

/// \brief Downstream collector an operator emits into (Flink-style).
class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual Status Emit(Tuple tuple) = 0;
};

/// \brief Collects emitted tuples into a vector (the batched analogue
/// of a downstream operator).
class VectorEmitter : public Emitter {
 public:
  explicit VectorEmitter(TupleVector* out) : out_(out) {}

  Status Emit(Tuple tuple) override {
    out_->push_back(std::move(tuple));
    return Status::OK();
  }

 private:
  TupleVector* out_;
};

/// \brief A tuple-at-a-time dataflow operator.
///
/// Operators may emit zero, one, or many tuples per input (filter / map /
/// flat-map semantics) and may buffer state that is released in Finish()
/// (e.g. the watermark reorder buffer).
class Operator {
 public:
  virtual ~Operator() = default;

  /// \brief Processes one input tuple, emitting results downstream.
  virtual Status Process(Tuple tuple, Emitter* out) = 0;

  /// \brief Batched fast path used by the pipelined runtime: consumes
  /// `*batch` (left empty on return), emitting results into `out` in the
  /// same order the per-tuple path would.
  ///
  /// The default forwards tuple-by-tuple to Process(); stateful hot-path
  /// operators (the polluter adapters) override it to hoist per-batch
  /// setup out of the tuple loop and amortize virtual dispatch.
  virtual Status ProcessBatch(TupleVector* batch, Emitter* out) {
    for (Tuple& t : *batch) {
      ICEWAFL_RETURN_NOT_OK(Process(std::move(t), out));
    }
    batch->clear();
    return Status::OK();
  }

  /// \brief Flushes buffered state at end of (bounded) stream.
  virtual Status Finish(Emitter* out) {
    (void)out;
    return Status::OK();
  }
};

/// \brief 1:1 transformation operator.
class MapOperator : public Operator {
 public:
  using MapFn = std::function<Result<Tuple>(Tuple)>;

  explicit MapOperator(MapFn fn) : fn_(std::move(fn)) {}

  Status Process(Tuple tuple, Emitter* out) override {
    ICEWAFL_ASSIGN_OR_RETURN(Tuple mapped, fn_(std::move(tuple)));
    return out->Emit(std::move(mapped));
  }

 private:
  MapFn fn_;
};

/// \brief Keeps only tuples satisfying the predicate.
class FilterOperator : public Operator {
 public:
  using PredicateFn = std::function<bool(const Tuple&)>;

  explicit FilterOperator(PredicateFn fn) : fn_(std::move(fn)) {}

  Status Process(Tuple tuple, Emitter* out) override {
    if (fn_(tuple)) return out->Emit(std::move(tuple));
    return Status::OK();
  }

 private:
  PredicateFn fn_;
};

/// \brief 1:N transformation operator.
class FlatMapOperator : public Operator {
 public:
  using FlatMapFn = std::function<Result<TupleVector>(Tuple)>;

  explicit FlatMapOperator(FlatMapFn fn) : fn_(std::move(fn)) {}

  Status Process(Tuple tuple, Emitter* out) override {
    ICEWAFL_ASSIGN_OR_RETURN(TupleVector tuples, fn_(std::move(tuple)));
    for (Tuple& t : tuples) {
      ICEWAFL_RETURN_NOT_OK(out->Emit(std::move(t)));
    }
    return Status::OK();
  }

 private:
  FlatMapFn fn_;
};

/// \brief Releases tuples in arrival-time order using a bounded-lateness
/// watermark.
///
/// After the DelayedTuple error shifts a tuple's arrival time, the output
/// stream must present tuples in arrival order (that is what makes the
/// delay observable to a DQ tool as a timestamp-order violation). The
/// buffer holds tuples until the watermark — max event time seen minus
/// `max_lateness` — passes their arrival time, then emits them in arrival
/// order; ties preserve input order.
class ReorderOperator : public Operator {
 public:
  /// \param max_lateness upper bound (seconds) on how far a tuple's
  ///   arrival time may lie behind the newest tuple seen.
  explicit ReorderOperator(int64_t max_lateness)
      : max_lateness_(max_lateness) {}

  Status Process(Tuple tuple, Emitter* out) override;
  Status Finish(Emitter* out) override;

 private:
  int64_t max_lateness_;
  Timestamp max_event_time_seen_ = INT64_MIN;
  uint64_t seq_ = 0;
  // (arrival_time, insertion sequence) -> tuple; multimap semantics via
  // the composite key keep emission stable.
  std::map<std::pair<Timestamp, uint64_t>, Tuple> buffer_;
};

/// \brief An owned chain of operators.
using OperatorChain = std::vector<std::unique_ptr<Operator>>;

}  // namespace icewafl

#endif  // ICEWAFL_STREAM_OPERATOR_H_
