#ifndef ICEWAFL_CLEAN_CLEANER_H_
#define ICEWAFL_CLEAN_CLEANER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "clean/rules.h"
#include "obs/metrics.h"
#include "stream/operator.h"
#include "stream/sink.h"
#include "stream/tuple.h"
#include "util/json.h"
#include "util/result.h"

namespace icewafl {
namespace clean {

/// \file
/// The cleaning operator and its one runner (DESIGN.md section 15). A
/// CleanerOperator evaluates the document's rules in canonical order —
/// pure stateless rules in document order, then stateful
/// (windowed-detect or windowed-repair) rules in document order —
/// applying each repair before the next rule sees the tuple. A
/// CleaningSink puts one operator in front of a sink; served streams
/// and the offline CleanTuples both clean through it.

/// \brief One detection/repair event, the cleaner's mirror of
/// PollutionLogEntry: which rule fired on which tuple and what was done.
struct RepairLogEntry {
  TupleId tuple_id = kInvalidTupleId;
  /// Rule label that fired.
  std::string rule;
  /// Column the repair applies to.
  std::string column;
  /// Repair action name ("drop", "set_null", ...).
  std::string action;

  bool operator==(const RepairLogEntry&) const = default;

  Json ToJson() const;
};

/// \brief Ordered record of every rule firing of one cleaning run —
/// the detection side of the closed pollute → clean loop, consumed by
/// the scenario scorer. Not thread-safe.
class RepairLog {
 public:
  void Record(RepairLogEntry entry) { entries_.push_back(std::move(entry)); }

  const std::vector<RepairLogEntry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// \brief Number of distinct tuples with at least one firing.
  size_t DistinctTupleCount() const;

  Json ToJson() const;

 private:
  std::vector<RepairLogEntry> entries_;
};

/// \brief Per-rule firing counters of one CleanerOperator.
struct RuleStats {
  std::string label;
  uint64_t fired = 0;
  uint64_t repaired = 0;
  uint64_t dropped = 0;
};

/// \brief Aggregate counters of one cleaning run.
struct CleanStats {
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  uint64_t tuples_dropped = 0;
  uint64_t fired = 0;
  uint64_t repaired = 0;
  std::vector<RuleStats> rules;

  Json ToJson() const;
};

/// \brief The stream repair operator. Owns a deep copy of the rules
/// (bind-once accessors) plus the bounded per-key value histories.
/// Tuples without an id get sequential ids in arrival order, with
/// event and arrival time set from the timestamp column.
class CleanerOperator : public Operator {
 public:
  /// \param rules bound cleaning document (deep-copied).
  /// \param log optional repair log (borrowed, not thread-safe).
  explicit CleanerOperator(const CleaningRules& rules,
                           RepairLog* log = nullptr);

  /// \brief Registers the icewafl_cleaner_* series, labeled by the
  /// document name; follows the PolluterOperator contract (idempotent,
  /// all-or-nothing on name/type conflicts).
  void BindMetrics(obs::MetricRegistry* registry);

  Status Process(Tuple tuple, Emitter* out) override;
  Status ProcessBatch(TupleVector* batch, Emitter* out) override;

  const CleanStats& stats() const { return stats_; }
  const CleaningRules& rules() const { return rules_; }

 private:
  struct BoundRule {
    CleanRule* rule;
    /// Slot into each key partition's history vector; -1 when the rule
    /// touches no history.
    int history_slot;
    obs::Counter* fired = nullptr;
    obs::Counter* repaired = nullptr;
    obs::Counter* dropped = nullptr;
  };

  /// One key partition: one ValueHistory per tracked column.
  using Partition = std::vector<ValueHistory>;

  Status Prepare(Tuple* tuple);
  Partition* PartitionFor(const Tuple& tuple);
  /// \brief Runs the rules over the tuple; false = dropped.
  bool Clean(Tuple* tuple, Partition* partition);
  void ApplyRepair(const BoundRule& bound, Tuple* tuple,
                   const ValueHistory* history);

  CleaningRules rules_;
  RepairLog* log_;

  /// Rules in canonical order (pure first, then stateful).
  std::vector<BoundRule> active_;
  /// Column index per history slot, in slot order.
  std::vector<size_t> history_columns_;
  bool keyed_ = false;
  /// Key column index, resolved lazily from the first tuple's schema.
  int key_index_ = -1;
  std::unordered_map<std::string, Partition> partitions_;
  Partition global_partition_;
  std::string key_storage_;

  CleanStats stats_;
  TupleId next_id_ = 0;
  obs::Counter* tuples_seen_ = nullptr;
};

/// \brief Sink decorator that cleans the stream written through it:
/// one CleanerOperator in front of `inner`. A served segment and an
/// offline CleanTuples run over the same rows give the same bytes.
class CleaningSink : public Sink {
 public:
  /// \param metrics optional registry for the icewafl_cleaner_* series.
  /// \param log optional repair log (borrowed).
  CleaningSink(const CleaningRules& rules, Sink* inner,
               obs::MetricRegistry* metrics = nullptr,
               RepairLog* log = nullptr);

  Status Write(const Tuple& tuple) override;
  Status Write(Tuple&& tuple) override;
  /// \brief Cleans the whole batch, then forwards the survivors as one
  /// batch.
  Status WriteBatch(TupleVector* batch) override;
  Status Flush() override;

  const CleanStats& stats() const { return op_.stats(); }

 private:
  class InnerEmitter : public Emitter {
   public:
    explicit InnerEmitter(Sink* sink) : sink_(sink) {}
    Status Emit(Tuple tuple) override { return sink_->Write(std::move(tuple)); }

   private:
    Sink* sink_;
  };

  CleanerOperator op_;
  Sink* inner_;
  InnerEmitter emitter_;
  TupleVector cleaned_;
};

/// \brief Cleans `input` through one CleaningSink into `sink`, in input
/// order. `metrics`, `log` and `stats` may be null.
Status CleanTuples(const CleaningRules& rules, TupleVector input, Sink* sink,
                   obs::MetricRegistry* metrics = nullptr,
                   RepairLog* log = nullptr, CleanStats* stats = nullptr);

}  // namespace clean
}  // namespace icewafl

#endif  // ICEWAFL_CLEAN_CLEANER_H_
