#include "dq/expectation.h"

#include <unordered_map>

namespace icewafl {
namespace dq {

namespace {

/// Timestamp used to bucket a failing tuple. Prefers the (possibly
/// polluted) timestamp attribute; falls back to the event-time replica.
Timestamp RecordTimestamp(const Tuple& tuple) {
  auto ts = tuple.GetTimestamp();
  if (ts.ok()) return ts.ValueOrDie();
  return tuple.event_time();
}

void AddFailure(ExpectationResult* result, const Tuple& tuple) {
  ++result->unexpected;
  result->failures.push_back({tuple.id(), RecordTimestamp(tuple)});
  result->success = false;
}

/// Numeric read widening int64/double/bool; false otherwise. Values
/// whose runtime type diverged from the bound column type (an upstream
/// polluter may have rewritten them) are skipped like NULLs.
bool NumericValue(const Value& v, double* out) {
  switch (v.type()) {
    case ValueType::kDouble:
      *out = v.AsDouble();
      return true;
    case ValueType::kInt64:
      *out = static_cast<double>(v.AsInt64());
      return true;
    case ValueType::kBool:
      *out = v.AsBool() ? 1.0 : 0.0;
      return true;
    default:
      return false;
  }
}

/// Borrowed string view of a value: string values are read in place,
/// anything else is rendered into `storage`.
const std::string& RenderedValue(const Value& v, std::string* storage) {
  if (v.is_string()) return v.AsString();
  v.RenderTo(storage);
  return *storage;
}

}  // namespace

Status Expectation::Bind(BindContext& ctx) {
  bound_schema_ = nullptr;
  const std::vector<ColumnRef> refs = ColumnRefs();
  std::vector<size_t> indices;
  indices.reserve(refs.size());
  for (const ColumnRef& ref : refs) {
    BindContext::Scope scope(ctx, ref.key);
    ICEWAFL_ASSIGN_OR_RETURN(BoundAccessor accessor,
                             ref.numeric ? ctx.ResolveNumeric(*ref.name)
                                         : ctx.Resolve(*ref.name));
    indices.push_back(accessor.index());
  }
  indices_ = std::move(indices);
  bound_schema_ = &ctx.schema();
  return Status::OK();
}

Status Expectation::EnsureBound(const TupleVector& tuples) {
  if (tuples.empty()) return Status::OK();
  if (bound_schema_ == tuples.front().schema().get()) return Status::OK();
  if (tuples.front().schema() == nullptr) {
    return Status::Internal("tuples have no schema");
  }
  BindContext ctx(*tuples.front().schema());
  return Bind(ctx);
}

std::vector<uint64_t> ExpectationResult::FailureHourHistogram() const {
  std::vector<uint64_t> hist(24, 0);
  for (const FailedRecord& f : failures) {
    ++hist[static_cast<size_t>(HourOfDay(f.ts))];
  }
  return hist;
}

ExpectColumnValuesToNotBeNull::ExpectColumnValuesToNotBeNull(std::string column)
    : column_(std::move(column)) {}

Result<ExpectationResult> ExpectColumnValuesToNotBeNull::Validate(
    const TupleVector& tuples) {
  ExpectationResult result;
  result.expectation = name();
  result.column = column_;
  ICEWAFL_RETURN_NOT_OK(EnsureBound(tuples));
  if (tuples.empty()) return result;
  const size_t idx = column_index(0);
  for (const Tuple& t : tuples) {
    ++result.evaluated;
    if (t.value(idx).is_null()) AddFailure(&result, t);
  }
  return result;
}

ExpectColumnValuesToBeNull::ExpectColumnValuesToBeNull(std::string column)
    : column_(std::move(column)) {}

Result<ExpectationResult> ExpectColumnValuesToBeNull::Validate(
    const TupleVector& tuples) {
  ExpectationResult result;
  result.expectation = name();
  result.column = column_;
  ICEWAFL_RETURN_NOT_OK(EnsureBound(tuples));
  if (tuples.empty()) return result;
  const size_t idx = column_index(0);
  for (const Tuple& t : tuples) {
    ++result.evaluated;
    if (!t.value(idx).is_null()) AddFailure(&result, t);
  }
  return result;
}

ExpectColumnValuesToBeBetween::ExpectColumnValuesToBeBetween(
    std::string column, double min, double max)
    : column_(std::move(column)), min_(min), max_(max) {}

Result<ExpectationResult> ExpectColumnValuesToBeBetween::Validate(
    const TupleVector& tuples) {
  ExpectationResult result;
  result.expectation = name();
  result.column = column_;
  ICEWAFL_RETURN_NOT_OK(EnsureBound(tuples));
  if (tuples.empty()) return result;
  const size_t idx = column_index(0);
  for (const Tuple& t : tuples) {
    double x;
    if (!NumericValue(t.value(idx), &x)) continue;  // GX skips NULLs here
    ++result.evaluated;
    if (x < min_ || x > max_) AddFailure(&result, t);
  }
  return result;
}

ExpectColumnValuesToMatchRegex::ExpectColumnValuesToMatchRegex(
    std::string column, Regex regex)
    : column_(std::move(column)), regex_(std::move(regex)) {}

Result<ExpectationResult> ExpectColumnValuesToMatchRegex::Validate(
    const TupleVector& tuples) {
  ExpectationResult result;
  result.expectation = name();
  result.column = column_;
  ICEWAFL_RETURN_NOT_OK(EnsureBound(tuples));
  if (tuples.empty()) return result;
  const size_t idx = column_index(0);
  // String values match in place; other types render into one reused
  // buffer, hoisted out of the tuple loop (ToString returned a fresh
  // string per non-string tuple, an allocation per row on numeric
  // columns).
  std::string storage;
  for (const Tuple& t : tuples) {
    const Value& v = t.value(idx);
    if (v.is_null()) continue;
    ++result.evaluated;
    bool matched;
    if (v.is_string()) {
      matched = regex_.FullMatch(v.AsString());
    } else {
      v.RenderTo(&storage);
      matched = regex_.FullMatch(storage);
    }
    if (!matched) AddFailure(&result, t);
  }
  return result;
}

ExpectColumnValuesToBeIncreasing::ExpectColumnValuesToBeIncreasing(
    std::string column, bool strictly)
    : column_(std::move(column)), strictly_(strictly) {}

Result<ExpectationResult> ExpectColumnValuesToBeIncreasing::Validate(
    const TupleVector& tuples) {
  ExpectationResult result;
  result.expectation = name();
  result.column = column_;
  ICEWAFL_RETURN_NOT_OK(EnsureBound(tuples));
  if (tuples.empty()) return result;
  const size_t idx = column_index(0);
  bool have_prev = false;
  double prev = 0.0;
  for (const Tuple& t : tuples) {
    double x;
    if (!NumericValue(t.value(idx), &x)) continue;
    ++result.evaluated;
    if (have_prev) {
      const bool ok = strictly_ ? x > prev : x >= prev;
      if (!ok) AddFailure(&result, t);
    }
    prev = x;
    have_prev = true;
  }
  return result;
}

ExpectColumnPairValuesAToBeGreaterThanB::
    ExpectColumnPairValuesAToBeGreaterThanB(std::string column_a,
                                            std::string column_b,
                                            bool or_equal)
    : column_a_(std::move(column_a)),
      column_b_(std::move(column_b)),
      or_equal_(or_equal) {}

Result<ExpectationResult> ExpectColumnPairValuesAToBeGreaterThanB::Validate(
    const TupleVector& tuples) {
  ExpectationResult result;
  result.expectation = name();
  result.column = column_a_ + ">" + column_b_;
  ICEWAFL_RETURN_NOT_OK(EnsureBound(tuples));
  if (tuples.empty()) return result;
  const size_t idx_a = column_index(0);
  const size_t idx_b = column_index(1);
  for (const Tuple& t : tuples) {
    double xa;
    double xb;
    if (!NumericValue(t.value(idx_a), &xa) ||
        !NumericValue(t.value(idx_b), &xb)) {
      continue;
    }
    ++result.evaluated;
    const bool ok = or_equal_ ? xa >= xb : xa > xb;
    if (!ok) AddFailure(&result, t);
  }
  return result;
}

ExpectMulticolumnSumToEqual::ExpectMulticolumnSumToEqual(
    std::vector<std::string> columns, double total, double tolerance)
    : columns_(std::move(columns)), total_(total), tolerance_(tolerance) {}

ExpectMulticolumnSumToEqual& ExpectMulticolumnSumToEqual::WhereColumnEquals(
    std::string column, double value) {
  where_column_ = std::move(column);
  where_value_ = value;
  return *this;
}

Result<ExpectationResult> ExpectMulticolumnSumToEqual::Validate(
    const TupleVector& tuples) {
  ExpectationResult result;
  result.expectation = name();
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) result.column += "+";
    result.column += columns_[i];
  }
  ICEWAFL_RETURN_NOT_OK(EnsureBound(tuples));
  if (tuples.empty()) return result;
  // Bound layout: one index per sum column, then the where column.
  const size_t n = columns_.size();
  for (const Tuple& t : tuples) {
    if (!where_column_.empty()) {
      const Value& w = t.value(column_index(n));
      double wx;
      if (!w.is_numeric() || !NumericValue(w, &wx) || wx != where_value_) {
        continue;
      }
    }
    double sum = 0.0;
    bool any_skipped = false;
    for (size_t i = 0; i < n; ++i) {
      double x;
      if (!NumericValue(t.value(column_index(i)), &x)) {
        any_skipped = true;
        break;
      }
      sum += x;
    }
    if (any_skipped) continue;
    ++result.evaluated;
    if (std::abs(sum - total_) > tolerance_) AddFailure(&result, t);
  }
  return result;
}

ExpectColumnValuesToBeInSet::ExpectColumnValuesToBeInSet(
    std::string column, std::set<std::string> values)
    : column_(std::move(column)), values_(std::move(values)) {}

Result<ExpectationResult> ExpectColumnValuesToBeInSet::Validate(
    const TupleVector& tuples) {
  ExpectationResult result;
  result.expectation = name();
  result.column = column_;
  ICEWAFL_RETURN_NOT_OK(EnsureBound(tuples));
  if (tuples.empty()) return result;
  const size_t idx = column_index(0);
  std::string storage;
  for (const Tuple& t : tuples) {
    const Value& v = t.value(idx);
    if (v.is_null()) continue;
    ++result.evaluated;
    if (values_.count(RenderedValue(v, &storage)) == 0) AddFailure(&result, t);
  }
  return result;
}

ExpectColumnValuesToBeUnique::ExpectColumnValuesToBeUnique(std::string column)
    : column_(std::move(column)) {}

Result<ExpectationResult> ExpectColumnValuesToBeUnique::Validate(
    const TupleVector& tuples) {
  ExpectationResult result;
  result.expectation = name();
  result.column = column_;
  ICEWAFL_RETURN_NOT_OK(EnsureBound(tuples));
  if (tuples.empty()) return result;
  const size_t idx = column_index(0);
  std::unordered_map<std::string, uint64_t> seen;
  std::string storage;
  for (const Tuple& t : tuples) {
    const Value& v = t.value(idx);
    if (v.is_null()) continue;
    ++result.evaluated;
    if (++seen[RenderedValue(v, &storage)] > 1) AddFailure(&result, t);
  }
  return result;
}

ExpectColumnMeanToBeBetween::ExpectColumnMeanToBeBetween(std::string column,
                                                         double min,
                                                         double max)
    : column_(std::move(column)), min_(min), max_(max) {}

Result<ExpectationResult> ExpectColumnMeanToBeBetween::Validate(
    const TupleVector& tuples) {
  ExpectationResult result;
  result.expectation = name();
  result.column = column_;
  ICEWAFL_RETURN_NOT_OK(EnsureBound(tuples));
  double sum = 0.0;
  if (tuples.empty()) {
    result.success = true;
    return result;
  }
  const size_t idx = column_index(0);
  for (const Tuple& t : tuples) {
    double x;
    if (!NumericValue(t.value(idx), &x)) continue;
    ++result.evaluated;
    sum += x;
  }
  if (result.evaluated == 0) {
    result.success = true;
    return result;
  }
  result.observed = sum / static_cast<double>(result.evaluated);
  result.success = result.observed >= min_ && result.observed <= max_;
  if (!result.success) result.unexpected = result.evaluated;
  return result;
}

ExpectColumnStdevToBeBetween::ExpectColumnStdevToBeBetween(std::string column,
                                                           double min,
                                                           double max)
    : column_(std::move(column)), min_(min), max_(max) {}

Result<ExpectationResult> ExpectColumnStdevToBeBetween::Validate(
    const TupleVector& tuples) {
  ExpectationResult result;
  result.expectation = name();
  result.column = column_;
  ICEWAFL_RETURN_NOT_OK(EnsureBound(tuples));
  if (tuples.empty()) {
    result.success = true;
    return result;
  }
  const size_t idx = column_index(0);
  // Welford's algorithm for a numerically stable sample variance.
  double mean = 0.0;
  double m2 = 0.0;
  for (const Tuple& t : tuples) {
    double x;
    if (!NumericValue(t.value(idx), &x)) continue;
    ++result.evaluated;
    const double delta = x - mean;
    mean += delta / static_cast<double>(result.evaluated);
    m2 += delta * (x - mean);
  }
  if (result.evaluated < 2) {
    result.success = true;
    return result;
  }
  result.observed =
      std::sqrt(m2 / static_cast<double>(result.evaluated - 1));
  result.success = result.observed >= min_ && result.observed <= max_;
  if (!result.success) result.unexpected = result.evaluated;
  return result;
}

ExpectColumnValueLengthsToBeBetween::ExpectColumnValueLengthsToBeBetween(
    std::string column, size_t min_length, size_t max_length)
    : column_(std::move(column)),
      min_length_(min_length),
      max_length_(max_length) {}

Result<ExpectationResult> ExpectColumnValueLengthsToBeBetween::Validate(
    const TupleVector& tuples) {
  ExpectationResult result;
  result.expectation = name();
  result.column = column_;
  ICEWAFL_RETURN_NOT_OK(EnsureBound(tuples));
  if (tuples.empty()) return result;
  const size_t idx = column_index(0);
  std::string storage;
  for (const Tuple& t : tuples) {
    const Value& v = t.value(idx);
    if (v.is_null()) continue;
    ++result.evaluated;
    const size_t length = RenderedValue(v, &storage).size();
    if (length < min_length_ || length > max_length_) AddFailure(&result, t);
  }
  return result;
}

ExpectColumnValuesToBeOfType::ExpectColumnValuesToBeOfType(std::string column,
                                                           ValueType type)
    : column_(std::move(column)), type_(type) {}

Result<ExpectationResult> ExpectColumnValuesToBeOfType::Validate(
    const TupleVector& tuples) {
  ExpectationResult result;
  result.expectation = name();
  result.column = column_;
  ICEWAFL_RETURN_NOT_OK(EnsureBound(tuples));
  if (tuples.empty()) return result;
  const size_t idx = column_index(0);
  for (const Tuple& t : tuples) {
    const Value& v = t.value(idx);
    if (v.is_null()) continue;
    ++result.evaluated;
    if (v.type() != type_) AddFailure(&result, t);
  }
  return result;
}


std::vector<Expectation::ColumnRef>
ExpectColumnValuesToNotBeNull::ColumnRefs() const {
  return {{&column_, "column", false}};
}

std::vector<Expectation::ColumnRef>
ExpectColumnValuesToBeNull::ColumnRefs() const {
  return {{&column_, "column", false}};
}

std::vector<Expectation::ColumnRef>
ExpectColumnValuesToBeBetween::ColumnRefs() const {
  return {{&column_, "column", true}};
}

std::vector<Expectation::ColumnRef>
ExpectColumnValuesToMatchRegex::ColumnRefs() const {
  return {{&column_, "column", false}};
}

std::vector<Expectation::ColumnRef>
ExpectColumnValuesToBeIncreasing::ColumnRefs() const {
  return {{&column_, "column", true}};
}

std::vector<Expectation::ColumnRef>
ExpectColumnPairValuesAToBeGreaterThanB::ColumnRefs() const {
  return {{&column_a_, "column_a", true}, {&column_b_, "column_b", true}};
}

std::vector<Expectation::ColumnRef>
ExpectMulticolumnSumToEqual::ColumnRefs() const {
  std::vector<ColumnRef> refs;
  refs.reserve(columns_.size() + 1);
  for (size_t i = 0; i < columns_.size(); ++i) {
    refs.push_back({&columns_[i], "columns/" + std::to_string(i), true});
  }
  if (!where_column_.empty()) {
    refs.push_back({&where_column_, "where_column", true});
  }
  return refs;
}

std::vector<Expectation::ColumnRef>
ExpectColumnValuesToBeInSet::ColumnRefs() const {
  return {{&column_, "column", false}};
}

std::vector<Expectation::ColumnRef>
ExpectColumnValuesToBeUnique::ColumnRefs() const {
  return {{&column_, "column", false}};
}

std::vector<Expectation::ColumnRef>
ExpectColumnMeanToBeBetween::ColumnRefs() const {
  return {{&column_, "column", true}};
}

std::vector<Expectation::ColumnRef>
ExpectColumnStdevToBeBetween::ColumnRefs() const {
  return {{&column_, "column", true}};
}

std::vector<Expectation::ColumnRef>
ExpectColumnValueLengthsToBeBetween::ColumnRefs() const {
  return {{&column_, "column", false}};
}

std::vector<Expectation::ColumnRef>
ExpectColumnValuesToBeOfType::ColumnRefs() const {
  return {{&column_, "column", false}};
}

namespace {

Json Base(const std::string& type) {
  Json j = Json::MakeObject();
  j.Set("type", type);
  return j;
}

}  // namespace

Json ExpectColumnValuesToNotBeNull::ToJson() const {
  Json j = Base(name());
  j.Set("column", column_);
  return j;
}

Json ExpectColumnValuesToBeNull::ToJson() const {
  Json j = Base(name());
  j.Set("column", column_);
  return j;
}

Json ExpectColumnValuesToBeBetween::ToJson() const {
  Json j = Base(name());
  j.Set("column", column_);
  j.Set("min", min_);
  j.Set("max", max_);
  return j;
}

Json ExpectColumnValuesToMatchRegex::ToJson() const {
  Json j = Base(name());
  j.Set("column", column_);
  j.Set("regex", regex_.pattern());
  return j;
}

Json ExpectColumnValuesToBeIncreasing::ToJson() const {
  Json j = Base(name());
  j.Set("column", column_);
  j.Set("strictly", strictly_);
  return j;
}

Json ExpectColumnPairValuesAToBeGreaterThanB::ToJson() const {
  Json j = Base(name());
  j.Set("column_a", column_a_);
  j.Set("column_b", column_b_);
  j.Set("or_equal", or_equal_);
  return j;
}

Json ExpectMulticolumnSumToEqual::ToJson() const {
  Json j = Base(name());
  Json columns = Json::MakeArray();
  for (const std::string& c : columns_) columns.Append(Json(c));
  j.Set("columns", std::move(columns));
  j.Set("total", total_);
  j.Set("tolerance", tolerance_);
  if (!where_column_.empty()) {
    j.Set("where_column", where_column_);
    j.Set("where_value", where_value_);
  }
  return j;
}

Json ExpectColumnValuesToBeInSet::ToJson() const {
  Json j = Base(name());
  j.Set("column", column_);
  Json values = Json::MakeArray();
  for (const std::string& v : values_) values.Append(Json(v));
  j.Set("values", std::move(values));
  return j;
}

Json ExpectColumnValuesToBeUnique::ToJson() const {
  Json j = Base(name());
  j.Set("column", column_);
  return j;
}

Json ExpectColumnMeanToBeBetween::ToJson() const {
  Json j = Base(name());
  j.Set("column", column_);
  j.Set("min", min_);
  j.Set("max", max_);
  return j;
}

Json ExpectColumnStdevToBeBetween::ToJson() const {
  Json j = Base(name());
  j.Set("column", column_);
  j.Set("min", min_);
  j.Set("max", max_);
  return j;
}

Json ExpectColumnValueLengthsToBeBetween::ToJson() const {
  Json j = Base(name());
  j.Set("column", column_);
  j.Set("min_length", static_cast<int64_t>(min_length_));
  j.Set("max_length", static_cast<int64_t>(max_length_));
  return j;
}

Json ExpectColumnValuesToBeOfType::ToJson() const {
  Json j = Base(name());
  j.Set("column", column_);
  j.Set("value_type", ValueTypeName(type_));
  return j;
}

}  // namespace dq
}  // namespace icewafl
