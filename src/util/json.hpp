// Shared JSON primitives: string escaping and a minimal strict parser.
//
// One escaper for every JSON emitter in the tree (bench `--json` reports,
// the obs run-report writer, the Chrome-trace exporter) so a crafted model
// name or path can never produce invalid JSON in any of them — and one
// parser for the test suites' report validation, with no third-party
// dependency.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace snntest::util {

/// Escape `s` for embedding inside a JSON string literal: quote, backslash,
/// and every control character below 0x20 (\b \f \n \r \t get their short
/// forms, the rest become \u00XX). Does NOT add the surrounding quotes.
std::string json_escape(const std::string& s);

/// One parsed JSON value. Exactly one of the payload members is meaningful,
/// selected by `kind`; the others keep their defaults.
struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  /// Object member access; throws std::runtime_error when `kind` is not an
  /// object holding `key`.
  const JsonValue& at(const std::string& key) const;
  bool has(const std::string& key) const { return object.count(key) != 0; }
};

/// Strict parse of one complete JSON document (no trailing characters).
/// Throws std::runtime_error with the byte offset on malformed input.
/// Numbers are doubles; \u escapes decode ASCII and flatten anything above
/// 0x7F to '?' (the emitters in this tree never produce non-ASCII).
JsonValue parse_json(const std::string& text);

}  // namespace snntest::util
