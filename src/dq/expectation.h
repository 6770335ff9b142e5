#ifndef ICEWAFL_DQ_EXPECTATION_H_
#define ICEWAFL_DQ_EXPECTATION_H_

#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "stream/bind.h"
#include "stream/tuple.h"
#include "util/json.h"
#include "util/regex.h"
#include "util/result.h"

namespace icewafl {
namespace dq {

/// \brief A tuple that violated an expectation.
struct FailedRecord {
  TupleId id = kInvalidTupleId;
  /// Value of the tuple's timestamp attribute (or its event time if the
  /// timestamp itself is polluted/NULL); drives per-hour error histograms.
  Timestamp ts = 0;

  bool operator==(const FailedRecord&) const = default;
};

/// \brief Outcome of validating one expectation against a stream.
///
/// Mirrors Great Expectations' validation result: element counts, the
/// unexpected subset, and for aggregate expectations an observed value.
struct ExpectationResult {
  std::string expectation;
  std::string column;
  uint64_t evaluated = 0;
  uint64_t unexpected = 0;
  std::vector<FailedRecord> failures;
  bool success = true;
  /// Observed aggregate (mean/stdev expectations); NaN otherwise.
  double observed = std::nan("");

  /// \brief Fraction of evaluated elements that were unexpected.
  double UnexpectedFraction() const {
    return evaluated == 0
               ? 0.0
               : static_cast<double>(unexpected) / static_cast<double>(evaluated);
  }

  /// \brief Failures per hour-of-day (24 buckets; Figure 4's measured
  /// series).
  std::vector<uint64_t> FailureHourHistogram() const;
};

/// \brief A declarative data-quality constraint evaluated over a stream.
///
/// Expectations are the error-detection mechanism of Experiment 1: clean
/// data is expected to satisfy them, so violations flag injected (or
/// pre-existing) errors. Column expectations judge each tuple; stream
/// expectations (e.g. increasing) judge the order; aggregate expectations
/// judge a statistic of the whole stream.
///
/// Expectations follow the two-phase bind/run lifecycle (DESIGN.md §8):
/// Bind resolves the referenced columns against the schema once (unknown
/// columns and numeric-type mismatches become a Status with a
/// JSON-pointer path, e.g. "at /expectations/2/column: ..."); Validate
/// then reads values by index. A suite validated without an explicit
/// Bind re-binds lazily against the tuples' schema.
class Expectation {
 public:
  virtual ~Expectation() = default;

  /// \brief Resolves the referenced columns against `ctx.schema()` and
  /// caches their indices. Numeric expectations (between, increasing,
  /// mean, stdev, pair, multicolumn sum) additionally require numeric
  /// columns.
  virtual Status Bind(BindContext& ctx);

  /// \brief Validates the expectation against the (ordered) stream.
  virtual Result<ExpectationResult> Validate(const TupleVector& tuples) = 0;

  virtual std::string name() const = 0;

  /// \brief Config representation; round-trips through
  /// dq::ExpectationFromJson (dq/config.h).
  virtual Json ToJson() const = 0;

 protected:
  /// \brief One column reference: the member holding the name, the JSON
  /// config key to report bind failures under, and whether the column
  /// must be numeric.
  struct ColumnRef {
    const std::string* name;
    std::string key;
    bool numeric = false;
  };

  /// \brief The column references this expectation reads, in a fixed
  /// order; the default Bind resolves them into column_index(i).
  virtual std::vector<ColumnRef> ColumnRefs() const = 0;

  /// \brief Lazy-bind fallback used by Validate: re-binds against the
  /// tuples' schema when it differs from the bound one. No-op on an
  /// empty stream.
  Status EnsureBound(const TupleVector& tuples);

  size_t column_index(size_t i) const { return indices_[i]; }

  const Schema* bound_schema_ = nullptr;
  std::vector<size_t> indices_;
};

using ExpectationPtr = std::unique_ptr<Expectation>;

/// \brief expect_column_values_to_not_be_null.
class ExpectColumnValuesToNotBeNull : public Expectation {
 public:
  explicit ExpectColumnValuesToNotBeNull(std::string column);
  Result<ExpectationResult> Validate(const TupleVector& tuples) override;
  std::string name() const override {
    return "expect_column_values_to_not_be_null";
  }
  Json ToJson() const override;


 protected:
  std::vector<ColumnRef> ColumnRefs() const override;

 private:
  std::string column_;
};

/// \brief expect_column_values_to_be_null (inverse check; useful for
/// columns that must stay unpopulated).
class ExpectColumnValuesToBeNull : public Expectation {
 public:
  explicit ExpectColumnValuesToBeNull(std::string column);
  Result<ExpectationResult> Validate(const TupleVector& tuples) override;
  std::string name() const override {
    return "expect_column_values_to_be_null";
  }
  Json ToJson() const override;


 protected:
  std::vector<ColumnRef> ColumnRefs() const override;

 private:
  std::string column_;
};

/// \brief expect_column_values_to_be_between (inclusive bounds; NULLs are
/// skipped, mirroring GX element semantics).
class ExpectColumnValuesToBeBetween : public Expectation {
 public:
  ExpectColumnValuesToBeBetween(std::string column, double min, double max);
  Result<ExpectationResult> Validate(const TupleVector& tuples) override;
  std::string name() const override {
    return "expect_column_values_to_be_between";
  }
  Json ToJson() const override;


 protected:
  std::vector<ColumnRef> ColumnRefs() const override;

 private:
  std::string column_;
  double min_;
  double max_;
};

/// \brief expect_column_values_to_match_regex. Values are rendered to
/// their string form before matching (so numeric precision checks like
/// the CaloriesBurned regex of Experiment 3.1.2 work).
class ExpectColumnValuesToMatchRegex : public Expectation {
 public:
  /// \param regex must match the whole rendered value.
  ExpectColumnValuesToMatchRegex(std::string column, Regex regex);
  Result<ExpectationResult> Validate(const TupleVector& tuples) override;
  std::string name() const override {
    return "expect_column_values_to_match_regex";
  }
  Json ToJson() const override;


 protected:
  std::vector<ColumnRef> ColumnRefs() const override;

 private:
  std::string column_;
  Regex regex_;
};

/// \brief expect_column_values_to_be_increasing. Flags every element
/// whose value is not greater than (or, with strictly=false, less than)
/// its predecessor — the detector for delayed tuples in Experiment 3.1.3.
class ExpectColumnValuesToBeIncreasing : public Expectation {
 public:
  explicit ExpectColumnValuesToBeIncreasing(std::string column,
                                            bool strictly = true);
  Result<ExpectationResult> Validate(const TupleVector& tuples) override;
  std::string name() const override {
    return "expect_column_values_to_be_increasing";
  }
  Json ToJson() const override;


 protected:
  std::vector<ColumnRef> ColumnRefs() const override;

 private:
  std::string column_;
  bool strictly_;
};

/// \brief expect_column_pair_values_a_to_be_greater_than_b.
class ExpectColumnPairValuesAToBeGreaterThanB : public Expectation {
 public:
  ExpectColumnPairValuesAToBeGreaterThanB(std::string column_a,
                                          std::string column_b,
                                          bool or_equal = false);
  Result<ExpectationResult> Validate(const TupleVector& tuples) override;
  std::string name() const override {
    return "expect_column_pair_values_a_to_be_greater_than_b";
  }
  Json ToJson() const override;


 protected:
  std::vector<ColumnRef> ColumnRefs() const override;

 private:
  std::string column_a_;
  std::string column_b_;
  bool or_equal_;
};

/// \brief expect_multicolumn_sum_to_equal: the sum of the given columns
/// must equal `total` for every tuple (used with total 0 to find "device
/// not worn" tuples whose BPM was zeroed by the polluter while activity
/// columns still show movement).
class ExpectMulticolumnSumToEqual : public Expectation {
 public:
  ExpectMulticolumnSumToEqual(std::vector<std::string> columns, double total,
                              double tolerance = 1e-9);

  /// \brief Restricts evaluation to tuples where `column` equals `value`
  /// (GX's row_condition; e.g. "BPM == 0" in the software-update
  /// scenario). Returns *this for chaining.
  ExpectMulticolumnSumToEqual& WhereColumnEquals(std::string column,
                                                 double value);

  Result<ExpectationResult> Validate(const TupleVector& tuples) override;
  std::string name() const override {
    return "expect_multicolumn_sum_to_equal";
  }
  Json ToJson() const override;


 protected:
  std::vector<ColumnRef> ColumnRefs() const override;

 private:
  std::vector<std::string> columns_;
  double total_;
  double tolerance_;
  std::string where_column_;  // empty: no row condition
  double where_value_ = 0.0;
};

/// \brief expect_column_values_to_be_in_set (string rendering compared
/// against the set; catches incorrect-category errors).
class ExpectColumnValuesToBeInSet : public Expectation {
 public:
  ExpectColumnValuesToBeInSet(std::string column, std::set<std::string> values);
  Result<ExpectationResult> Validate(const TupleVector& tuples) override;
  std::string name() const override {
    return "expect_column_values_to_be_in_set";
  }
  Json ToJson() const override;


 protected:
  std::vector<ColumnRef> ColumnRefs() const override;

 private:
  std::string column_;
  std::set<std::string> values_;
};

/// \brief expect_column_values_to_be_unique (flags the second and later
/// occurrences; catches duplicates from overlapping sub-streams).
class ExpectColumnValuesToBeUnique : public Expectation {
 public:
  explicit ExpectColumnValuesToBeUnique(std::string column);
  Result<ExpectationResult> Validate(const TupleVector& tuples) override;
  std::string name() const override {
    return "expect_column_values_to_be_unique";
  }
  Json ToJson() const override;


 protected:
  std::vector<ColumnRef> ColumnRefs() const override;

 private:
  std::string column_;
};

/// \brief expect_column_mean_to_be_between (aggregate; `observed` carries
/// the mean).
class ExpectColumnMeanToBeBetween : public Expectation {
 public:
  ExpectColumnMeanToBeBetween(std::string column, double min, double max);
  Result<ExpectationResult> Validate(const TupleVector& tuples) override;
  std::string name() const override {
    return "expect_column_mean_to_be_between";
  }
  Json ToJson() const override;


 protected:
  std::vector<ColumnRef> ColumnRefs() const override;

 private:
  std::string column_;
  double min_;
  double max_;
};

/// \brief expect_column_stdev_to_be_between (aggregate, sample stdev;
/// `observed` carries the stdev). Detects injected noise.
class ExpectColumnStdevToBeBetween : public Expectation {
 public:
  ExpectColumnStdevToBeBetween(std::string column, double min, double max);
  Result<ExpectationResult> Validate(const TupleVector& tuples) override;
  std::string name() const override {
    return "expect_column_stdev_to_be_between";
  }
  Json ToJson() const override;


 protected:
  std::vector<ColumnRef> ColumnRefs() const override;

 private:
  std::string column_;
  double min_;
  double max_;
};

/// \brief expect_column_value_lengths_to_be_between: rendered string
/// length within [min_length, max_length] — catches truncation and
/// insert/delete typos.
class ExpectColumnValueLengthsToBeBetween : public Expectation {
 public:
  ExpectColumnValueLengthsToBeBetween(std::string column, size_t min_length,
                                      size_t max_length);
  Result<ExpectationResult> Validate(const TupleVector& tuples) override;
  std::string name() const override {
    return "expect_column_value_lengths_to_be_between";
  }
  Json ToJson() const override;


 protected:
  std::vector<ColumnRef> ColumnRefs() const override;

 private:
  std::string column_;
  size_t min_length_;
  size_t max_length_;
};

/// \brief expect_column_values_to_be_of_type: every non-NULL value has
/// the given runtime type — catches representation-changing errors.
class ExpectColumnValuesToBeOfType : public Expectation {
 public:
  ExpectColumnValuesToBeOfType(std::string column, ValueType type);
  Result<ExpectationResult> Validate(const TupleVector& tuples) override;
  std::string name() const override {
    return "expect_column_values_to_be_of_type";
  }
  Json ToJson() const override;


 protected:
  std::vector<ColumnRef> ColumnRefs() const override;

 private:
  std::string column_;
  ValueType type_;
};

}  // namespace dq
}  // namespace icewafl

#endif  // ICEWAFL_DQ_EXPECTATION_H_
