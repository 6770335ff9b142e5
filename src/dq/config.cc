#include "dq/config.h"

#include <fstream>
#include <set>
#include <sstream>

namespace icewafl {
namespace dq {

namespace {

// Thread-local pointer prefix for the helpers below; set once per
// ExpectationFromJson call so every field error carries its JSON pointer.
thread_local std::string t_path;

std::string At(const std::string& key) {
  return " at " + (t_path.empty() ? std::string("/") : t_path) + "/" + key;
}

Result<Json> GetField(const Json& json, const std::string& key) {
  if (!json.Has(key)) {
    return Status::NotFound("missing field '" + key + "'" + At(key));
  }
  return json.Get(key);
}

Result<std::string> RequireString(const Json& json, const std::string& key) {
  ICEWAFL_ASSIGN_OR_RETURN(Json field, GetField(json, key));
  if (!field.is_string()) {
    return Status::TypeError("field" + At(key) + " must be a string");
  }
  return field.AsString();
}

Result<double> RequireDouble(const Json& json, const std::string& key) {
  ICEWAFL_ASSIGN_OR_RETURN(Json field, GetField(json, key));
  if (!field.is_number()) {
    return Status::TypeError("field" + At(key) + " must be a number");
  }
  return field.AsDouble();
}

Result<std::vector<std::string>> RequireStringArray(const Json& json,
                                                    const std::string& key) {
  ICEWAFL_ASSIGN_OR_RETURN(Json field, GetField(json, key));
  if (!field.is_array()) {
    return Status::TypeError("field" + At(key) + " must be an array");
  }
  std::vector<std::string> out;
  for (const Json& item : field.items()) {
    if (!item.is_string()) {
      return Status::TypeError("field" + At(key) +
                               " must contain only strings");
    }
    out.push_back(item.AsString());
  }
  return out;
}

}  // namespace

Result<ExpectationPtr> ExpectationFromJson(const Json& json,
                                           const std::string& path) {
  t_path = path;
  if (!json.is_object()) {
    return Status::ParseError("expectation description at " +
                              (path.empty() ? std::string("/") : path) +
                              " must be an object");
  }
  ICEWAFL_ASSIGN_OR_RETURN(std::string type, RequireString(json, "type"));
  if (type == "expect_column_values_to_not_be_null") {
    ICEWAFL_ASSIGN_OR_RETURN(std::string column,
                             RequireString(json, "column"));
    return ExpectationPtr(
        std::make_unique<ExpectColumnValuesToNotBeNull>(std::move(column)));
  }
  if (type == "expect_column_values_to_be_null") {
    ICEWAFL_ASSIGN_OR_RETURN(std::string column,
                             RequireString(json, "column"));
    return ExpectationPtr(
        std::make_unique<ExpectColumnValuesToBeNull>(std::move(column)));
  }
  if (type == "expect_column_values_to_be_between") {
    ICEWAFL_ASSIGN_OR_RETURN(std::string column,
                             RequireString(json, "column"));
    ICEWAFL_ASSIGN_OR_RETURN(double min, RequireDouble(json, "min"));
    ICEWAFL_ASSIGN_OR_RETURN(double max, RequireDouble(json, "max"));
    return ExpectationPtr(std::make_unique<ExpectColumnValuesToBeBetween>(
        std::move(column), min, max));
  }
  if (type == "expect_column_values_to_match_regex") {
    ICEWAFL_ASSIGN_OR_RETURN(std::string column,
                             RequireString(json, "column"));
    ICEWAFL_ASSIGN_OR_RETURN(std::string pattern,
                             RequireString(json, "regex"));
    auto regex = Regex::Compile(pattern);
    if (!regex.ok()) {
      return Status::InvalidArgument("invalid regex pattern '" + pattern +
                                     "'" + At("regex") + ": " +
                                     regex.status().message());
    }
    return ExpectationPtr(std::make_unique<ExpectColumnValuesToMatchRegex>(
        std::move(column), std::move(regex).ValueOrDie()));
  }
  if (type == "expect_column_values_to_be_increasing") {
    ICEWAFL_ASSIGN_OR_RETURN(std::string column,
                             RequireString(json, "column"));
    return ExpectationPtr(std::make_unique<ExpectColumnValuesToBeIncreasing>(
        std::move(column), json.GetBool("strictly", true)));
  }
  if (type == "expect_column_pair_values_a_to_be_greater_than_b") {
    ICEWAFL_ASSIGN_OR_RETURN(std::string a, RequireString(json, "column_a"));
    ICEWAFL_ASSIGN_OR_RETURN(std::string b, RequireString(json, "column_b"));
    return ExpectationPtr(
        std::make_unique<ExpectColumnPairValuesAToBeGreaterThanB>(
            std::move(a), std::move(b), json.GetBool("or_equal", false)));
  }
  if (type == "expect_multicolumn_sum_to_equal") {
    ICEWAFL_ASSIGN_OR_RETURN(std::vector<std::string> columns,
                             RequireStringArray(json, "columns"));
    ICEWAFL_ASSIGN_OR_RETURN(double total, RequireDouble(json, "total"));
    auto expectation = std::make_unique<ExpectMulticolumnSumToEqual>(
        std::move(columns), total, json.GetDouble("tolerance", 1e-9));
    if (json.Has("where_column")) {
      ICEWAFL_ASSIGN_OR_RETURN(std::string where_column,
                               RequireString(json, "where_column"));
      ICEWAFL_ASSIGN_OR_RETURN(double where_value,
                               RequireDouble(json, "where_value"));
      expectation->WhereColumnEquals(std::move(where_column), where_value);
    }
    return ExpectationPtr(std::move(expectation));
  }
  if (type == "expect_column_values_to_be_in_set") {
    ICEWAFL_ASSIGN_OR_RETURN(std::string column,
                             RequireString(json, "column"));
    ICEWAFL_ASSIGN_OR_RETURN(std::vector<std::string> values,
                             RequireStringArray(json, "values"));
    return ExpectationPtr(std::make_unique<ExpectColumnValuesToBeInSet>(
        std::move(column),
        std::set<std::string>(values.begin(), values.end())));
  }
  if (type == "expect_column_values_to_be_unique") {
    ICEWAFL_ASSIGN_OR_RETURN(std::string column,
                             RequireString(json, "column"));
    return ExpectationPtr(
        std::make_unique<ExpectColumnValuesToBeUnique>(std::move(column)));
  }
  if (type == "expect_column_mean_to_be_between") {
    ICEWAFL_ASSIGN_OR_RETURN(std::string column,
                             RequireString(json, "column"));
    ICEWAFL_ASSIGN_OR_RETURN(double min, RequireDouble(json, "min"));
    ICEWAFL_ASSIGN_OR_RETURN(double max, RequireDouble(json, "max"));
    return ExpectationPtr(std::make_unique<ExpectColumnMeanToBeBetween>(
        std::move(column), min, max));
  }
  if (type == "expect_column_stdev_to_be_between") {
    ICEWAFL_ASSIGN_OR_RETURN(std::string column,
                             RequireString(json, "column"));
    ICEWAFL_ASSIGN_OR_RETURN(double min, RequireDouble(json, "min"));
    ICEWAFL_ASSIGN_OR_RETURN(double max, RequireDouble(json, "max"));
    return ExpectationPtr(std::make_unique<ExpectColumnStdevToBeBetween>(
        std::move(column), min, max));
  }
  if (type == "expect_column_value_lengths_to_be_between") {
    ICEWAFL_ASSIGN_OR_RETURN(std::string column,
                             RequireString(json, "column"));
    ICEWAFL_ASSIGN_OR_RETURN(double min, RequireDouble(json, "min_length"));
    ICEWAFL_ASSIGN_OR_RETURN(double max, RequireDouble(json, "max_length"));
    return ExpectationPtr(
        std::make_unique<ExpectColumnValueLengthsToBeBetween>(
            std::move(column), static_cast<size_t>(min),
            static_cast<size_t>(max)));
  }
  if (type == "expect_column_values_to_be_of_type") {
    ICEWAFL_ASSIGN_OR_RETURN(std::string column,
                             RequireString(json, "column"));
    ICEWAFL_ASSIGN_OR_RETURN(std::string type_name,
                             RequireString(json, "value_type"));
    ICEWAFL_ASSIGN_OR_RETURN(ValueType value_type,
                             ValueTypeFromName(type_name));
    return ExpectationPtr(std::make_unique<ExpectColumnValuesToBeOfType>(
        std::move(column), value_type));
  }
  return Status::ParseError("unknown expectation type '" + type + "' at " +
                            (path.empty() ? std::string("/") : path));
}

Result<ExpectationSuite> SuiteFromJson(const Json& json, SchemaPtr bind_schema) {
  if (!json.is_object()) {
    return Status::ParseError("suite description must be a JSON object");
  }
  ExpectationSuite suite(json.GetString("name", "suite"));
  if (!json.Has("expectations")) {
    return Status::NotFound("missing field 'expectations' at /");
  }
  ICEWAFL_ASSIGN_OR_RETURN(Json expectations, json.Get("expectations"));
  if (!expectations.is_array()) {
    return Status::TypeError("field at /expectations must be an array");
  }
  for (size_t i = 0; i < expectations.items().size(); ++i) {
    ICEWAFL_ASSIGN_OR_RETURN(
        ExpectationPtr expectation,
        ExpectationFromJson(expectations.items()[i],
                            "/expectations/" + std::to_string(i)));
    suite.Add(std::move(expectation));
  }
  if (bind_schema != nullptr) {
    ICEWAFL_RETURN_NOT_OK(suite.Bind(std::move(bind_schema)));
  }
  return suite;
}

Result<ExpectationSuite> SuiteFromConfigString(const std::string& text,
                                               SchemaPtr bind_schema) {
  ICEWAFL_ASSIGN_OR_RETURN(Json json, Json::Parse(text));
  return SuiteFromJson(json, std::move(bind_schema));
}

Result<ExpectationSuite> SuiteFromConfigFile(const std::string& path,
                                             SchemaPtr bind_schema) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open suite file: '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return SuiteFromConfigString(buf.str(), std::move(bind_schema));
}

}  // namespace dq
}  // namespace icewafl
