#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "stream/value.h"
#include "util/regex.h"

namespace icewafl {
namespace analysis {

// Static analysis of cleaning documents (clean::RulesFromJson's input),
// IW701..IW707. The analyzer works on the raw JSON — never on bound
// rules — so a finding always carries an RFC 6901 pointer and the lint
// runs without a stream. The vocabulary below deliberately mirrors
// clean/config.cc and clean/rules.cc; the lint-soundness property test
// holds the two in sync (a lint-clean document must bind and run).

namespace {

const char* const kDetectTypes[] = {
    "range", "not_null", "regex", "type", "cross_field",
    "rate_of_change", "stuck_at",
};

const char* const kRepairNames[] = {
    "drop", "set_null", "clamp", "last_good", "window_mean", "window_median",
};

const char* const kCompareOps[] = {"lt", "le", "gt", "ge", "eq", "ne"};

const char* const kValueTypes[] = {"null", "bool", "int64", "double",
                                   "string"};

template <size_t N>
bool Contains(const char* const (&names)[N], const std::string& name) {
  for (const char* candidate : names) {
    if (name == candidate) return true;
  }
  return false;
}

template <size_t N>
std::string Vocabulary(const char* const (&names)[N]) {
  std::string out = "one of: ";
  for (size_t i = 0; i < N; ++i) {
    if (i > 0) out += ", ";
    out += names[i];
  }
  return out;
}

/// Shared column resolution: IW703 for an unknown column and (when
/// `numeric` is asked for, mirroring BindContext::ResolveNumeric) for a
/// string-typed column a numeric accessor could never read.
void CheckColumn(const SchemaPtr& schema, const std::string& column,
                 const std::string& path, bool numeric, Diagnostics* diags) {
  if (schema == nullptr) return;
  auto idx = schema->IndexOf(column);
  if (!idx.ok()) {
    std::string hint = "schema columns: ";
    for (size_t i = 0; i < schema->num_attributes(); ++i) {
      if (i > 0) hint += ", ";
      hint += schema->attribute(i).name;
    }
    diags->AddError("IW703", path, "unknown column '" + column + "'", hint);
    return;
  }
  if (numeric) {
    const ValueType type = schema->attribute(idx.ValueOrDie()).type;
    if (type != ValueType::kInt64 && type != ValueType::kDouble &&
        type != ValueType::kBool) {
      diags->AddError("IW703", path,
                      "column '" + column + "' has type " +
                          ValueTypeName(type) +
                          ", but this position needs a numeric column");
    }
  }
}

/// Field fetch used by every per-rule check: reports IW702 (malformed
/// entry) when the key is absent or of the wrong JSON kind and returns
/// false; the caller skips the dependent checks.
bool RequireKey(const Json& json, const std::string& key,
                const std::string& path, bool want_string, const char* code,
                Diagnostics* diags) {
  if (!json.Has(key)) {
    diags->AddError(code, path + "/" + key, "missing \"" + key + "\"");
    return false;
  }
  const Json value = json.Get(key).ValueOrDie();
  const bool ok = want_string ? value.is_string() : value.is_number();
  if (!ok) {
    diags->AddError(code, path + "/" + key,
                    "\"" + key + "\" must be a " +
                        (want_string ? "string" : "number"));
    return false;
  }
  if (want_string && value.AsString().empty()) {
    diags->AddError(code, path + "/" + key,
                    "\"" + key + "\" must not be empty");
    return false;
  }
  return true;
}

/// One "when" guard object: {"column", "op", "value"}.
void AnalyzeGuard(const Json& guard, const std::string& path,
                  const CleanerAnalyzeOptions& options, Diagnostics* diags) {
  if (!guard.is_object()) {
    diags->AddError("IW702", path, "guard must be an object",
                    "expected {\"column\": ..., \"op\": ..., \"value\": ...}");
    return;
  }
  if (RequireKey(guard, "column", path, /*want_string=*/true, "IW702",
                 diags)) {
    CheckColumn(options.schema, guard.GetString("column", ""),
                path + "/column", /*numeric=*/true, diags);
  }
  if (RequireKey(guard, "op", path, /*want_string=*/true, "IW702", diags)) {
    const std::string op = guard.GetString("op", "");
    if (!Contains(kCompareOps, op)) {
      diags->AddError("IW704", path + "/op", "unknown compare op '" + op + "'",
                      Vocabulary(kCompareOps));
    }
  }
  RequireKey(guard, "value", path, /*want_string=*/false, "IW702", diags);
}

/// One entry of the "rules" array.
void AnalyzeRule(const Json& rule, const std::string& path, size_t history,
                 const CleanerAnalyzeOptions& options,
                 std::set<std::string>* seen_labels, Diagnostics* diags) {
  if (!rule.is_object()) {
    diags->AddError("IW702", path, "rule must be an object",
                    "expected {\"label\": ..., \"column\": ..., "
                    "\"detect\": {...}, \"repair\": ...}");
    return;
  }
  if (RequireKey(rule, "label", path, /*want_string=*/true, "IW702", diags)) {
    const std::string label = rule.GetString("label", "");
    if (!seen_labels->insert(label).second) {
      diags->AddWarning("IW706", path + "/label",
                        "duplicate rule label '" + label + "'",
                        "labels key the per-rule metrics and the repair "
                        "log; duplicates merge their series");
    }
  }

  std::string detect_type;
  bool detect_ok = false;
  Json detect;
  if (!rule.Has("detect")) {
    diags->AddError("IW702", path + "/detect", "missing \"detect\"");
  } else if (detect = rule.Get("detect").ValueOrDie(); !detect.is_object()) {
    diags->AddError("IW702", path + "/detect", "\"detect\" must be an object");
  } else if (RequireKey(detect, "type", path + "/detect",
                        /*want_string=*/true, "IW702", diags)) {
    detect_type = detect.GetString("type", "");
    if (!Contains(kDetectTypes, detect_type)) {
      diags->AddError("IW704", path + "/detect/type",
                      "unknown detect type '" + detect_type + "'",
                      Vocabulary(kDetectTypes));
      detect_type.clear();
    } else {
      detect_ok = true;
    }
  }

  // The rule's own column: not_null / regex / type read any column,
  // every other detect needs a numeric one (clean/rules.cc Bind).
  if (RequireKey(rule, "column", path, /*want_string=*/true, "IW702", diags)) {
    const bool numeric = detect_ok && detect_type != "not_null" &&
                         detect_type != "regex" && detect_type != "type";
    CheckColumn(options.schema, rule.GetString("column", ""),
                path + "/column", numeric, diags);
  }

  std::string repair;
  if (RequireKey(rule, "repair", path, /*want_string=*/true, "IW702",
                 diags)) {
    repair = rule.GetString("repair", "");
    if (!Contains(kRepairNames, repair)) {
      diags->AddError("IW704", path + "/repair",
                      "unknown repair '" + repair + "'",
                      Vocabulary(kRepairNames));
      repair.clear();
    }
  }
  if (repair == "clamp" && detect_ok && detect_type != "range") {
    // IW705: clamp takes its bounds from the range detect.
    diags->AddError("IW705", path + "/repair",
                    "repair 'clamp' requires a range detect rule",
                    "clamp snaps to the range's [min, max]; use a "
                    "different repair or a range detect");
  }

  // Per-detect-type parameters (IW704).
  if (detect_type == "range") {
    const bool has_min = RequireKey(detect, "min", path + "/detect",
                                    /*want_string=*/false, "IW704", diags);
    const bool has_max = RequireKey(detect, "max", path + "/detect",
                                    /*want_string=*/false, "IW704", diags);
    if (has_min && has_max) {
      const double min = detect.Get("min").ValueOrDie().AsDouble();
      const double max = detect.Get("max").ValueOrDie().AsDouble();
      if (min > max) {
        diags->AddError("IW704", path + "/detect/min",
                        "range min " + std::to_string(min) +
                            " exceeds max " + std::to_string(max));
      }
    }
  } else if (detect_type == "regex") {
    if (RequireKey(detect, "pattern", path + "/detect", /*want_string=*/true,
                   "IW704", diags)) {
      const std::string pattern = detect.GetString("pattern", "");
      auto compiled = Regex::Compile(pattern);
      if (!compiled.ok()) {
        diags->AddError("IW704", path + "/detect/pattern",
                        "invalid regex pattern '" + pattern +
                            "': " + compiled.status().message());
      }
    }
  } else if (detect_type == "type") {
    if (RequireKey(detect, "value_type", path + "/detect",
                   /*want_string=*/true, "IW704", diags)) {
      const std::string name = detect.GetString("value_type", "");
      if (!Contains(kValueTypes, name)) {
        diags->AddError("IW704", path + "/detect/value_type",
                        "unknown value type '" + name + "'",
                        Vocabulary(kValueTypes));
      }
    }
  } else if (detect_type == "cross_field") {
    if (RequireKey(detect, "op", path + "/detect", /*want_string=*/true,
                   "IW704", diags)) {
      const std::string op = detect.GetString("op", "");
      if (!Contains(kCompareOps, op)) {
        diags->AddError("IW704", path + "/detect/op",
                        "unknown compare op '" + op + "'",
                        Vocabulary(kCompareOps));
      }
    }
    if (RequireKey(detect, "other", path + "/detect", /*want_string=*/true,
                   "IW704", diags)) {
      CheckColumn(options.schema, detect.GetString("other", ""),
                  path + "/detect/other", /*numeric=*/true, diags);
    }
  } else if (detect_type == "rate_of_change") {
    if (RequireKey(detect, "max_change", path + "/detect",
                   /*want_string=*/false, "IW704", diags)) {
      const double max_change = detect.Get("max_change").ValueOrDie()
                                    .AsDouble();
      if (!(max_change > 0)) {
        diags->AddError("IW704", path + "/detect/max_change",
                        "max_change must be positive (got " +
                            std::to_string(max_change) + ")");
      }
    }
  } else if (detect_type == "stuck_at") {
    if (RequireKey(detect, "min_repeats", path + "/detect",
                   /*want_string=*/false, "IW704", diags)) {
      const int64_t repeats = detect.Get("min_repeats").ValueOrDie().AsInt64();
      if (repeats < 2) {
        diags->AddError("IW704", path + "/detect/min_repeats",
                        "min_repeats must be at least 2 (got " +
                            std::to_string(repeats) + ")");
      } else if (static_cast<size_t>(repeats) > history + 1) {
        // IW707: the ring buffer holds `history` accepted values, so a
        // stuck-at run longer than history+1 can never be observed.
        diags->AddWarning(
            "IW707", path + "/detect/min_repeats",
            "stuck_at needs " + std::to_string(repeats - 1) +
                " previous values but the document's history window "
                "holds only " + std::to_string(history) +
                "; this rule can never fire",
            "raise /history or lower min_repeats");
      }
    }
  }

  if (rule.Has("when")) {
    const Json when = rule.Get("when").ValueOrDie();
    if (when.is_object()) {
      AnalyzeGuard(when, path + "/when", options, diags);
    } else if (when.is_array()) {
      for (size_t i = 0; i < when.items().size(); ++i) {
        AnalyzeGuard(when.items()[i], path + "/when/" + std::to_string(i),
                     options, diags);
      }
    } else {
      diags->AddError("IW702", path + "/when",
                      "\"when\" must be a guard object or an array of them");
    }
  }

  // IW604: unknown rule keys are likely typos.
  for (const auto& field : rule.fields()) {
    if (field.first != "label" && field.first != "column" &&
        field.first != "detect" && field.first != "repair" &&
        field.first != "when") {
      diags->AddWarning("IW604", path + "/" + field.first,
                        "unknown rule key '" + field.first + "'");
    }
  }
}

}  // namespace

Diagnostics AnalyzeCleanerRules(const Json& rules_json,
                                const CleanerAnalyzeOptions& options) {
  Diagnostics diags;
  const std::string& root = options.path_root;
  // IW701: the document shape.
  if (!rules_json.is_object()) {
    diags.AddError("IW701", root, "cleaning document must be a JSON object",
                   "expected {\"name\": ..., \"rules\": [...]}");
    return diags;
  }
  if (rules_json.Has("name") &&
      !rules_json.Get("name").ValueOrDie().is_string()) {
    diags.AddError("IW701", root + "/name", "\"name\" must be a string");
  }
  if (rules_json.Has("key")) {
    const Json key = rules_json.Get("key").ValueOrDie();
    if (!key.is_string()) {
      diags.AddError("IW701", root + "/key", "\"key\" must be a string");
    } else {
      CheckColumn(options.schema, key.AsString(), root + "/key",
                  /*numeric=*/false, &diags);
    }
  }
  size_t history = 16;  // clean::CleaningRules default
  if (rules_json.Has("history")) {
    const Json value = rules_json.Get("history").ValueOrDie();
    if (!value.is_number() || value.AsInt64() < 1) {
      diags.AddError("IW701", root + "/history",
                     "\"history\" must be a positive number");
    } else {
      history = static_cast<size_t>(value.AsInt64());
    }
  }
  if (!rules_json.Has("rules")) {
    diags.AddError("IW701", root + "/rules", "missing \"rules\" array");
    return diags;
  }
  const Json rules = rules_json.Get("rules").ValueOrDie();
  if (!rules.is_array()) {
    diags.AddError("IW701", root + "/rules", "\"rules\" must be an array");
    return diags;
  }
  if (rules.items().empty()) {
    diags.AddWarning("IW701", root + "/rules",
                     "empty rules array: this cleaner never repairs "
                     "anything");
  }
  for (const auto& field : rules_json.fields()) {
    if (field.first != "name" && field.first != "key" &&
        field.first != "history" && field.first != "rules") {
      diags.AddWarning("IW604", root + "/" + field.first,
                       "unknown cleaning document key '" + field.first + "'");
    }
  }
  std::set<std::string> seen_labels;
  for (size_t i = 0; i < rules.items().size(); ++i) {
    AnalyzeRule(rules.items()[i], root + "/rules/" + std::to_string(i),
                history, options, &seen_labels, &diags);
  }
  return diags;
}

bool LooksLikeCleanerRules(const Json& json) {
  if (!json.is_object() || !json.Has("rules")) return false;
  if (json.Has("polluters") || json.Has("expectations") ||
      json.Has("sessions") || json.Has("scenario")) {
    return false;
  }
  const Json rules = json.Get("rules").ValueOrDie();
  if (!rules.is_array()) return false;
  // Pipeline/suite rule arrays do not exist; a cleaner rule names a
  // repair. An empty array still routes here (the lint then reports the
  // IW701 warning rather than a pipeline parse error).
  for (const Json& entry : rules.items()) {
    if (entry.is_object() && (entry.Has("repair") || entry.Has("detect"))) {
      return true;
    }
  }
  return rules.items().empty();
}

}  // namespace analysis
}  // namespace icewafl
