// Minimal JSON DOM parser for the observability tool chain: the trace
// merger re-reads the per-node Chrome trace files this process wrote,
// the !stats client decodes the server's snapshot, and tests lint the
// metrics / flight-recorder JSONL streams. Recursive descent over the
// full value grammar (null, bool, number, string with escapes, array,
// object); objects preserve key order so a parse -> inspect round trip
// stays deterministic. The grammar is RFC 8259's, strictly: a raw
// control character in a string, a lone surrogate escape, a number
// such as `01`, `1.` or `1e` and trailing garbage are all rejected, since
// a peer's `!stats` reply is input too. Not a streaming parser — inputs
// are the files we ourselves produce, a few MB at most.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace mdgan::obs::json {

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  // Insertion-ordered; duplicate keys keep the first occurrence on
  // lookup (like every browser JSON.parse keeps the last — we never
  // emit duplicates, so the choice is moot for our own files).
  std::vector<std::pair<std::string, Value>> object;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  // Object member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;

  // Convenience accessors with fallbacks, so merge code reads linearly.
  double num_or(double fallback) const {
    return is_number() ? number : fallback;
  }
  std::string str_or(const std::string& fallback) const {
    return is_string() ? string : fallback;
  }
};

// Parses `text` into `*out`. Returns false and fills `*error` (message
// with byte offset; either out param may be null) on malformed input,
// including trailing garbage after the first value.
bool parse(const std::string& text, Value* out, std::string* error);

// Serializes a string with JSON escaping (quotes included) — shared by
// the writers that emit user-influenced strings (tags, paths).
std::string quote(const std::string& s);

}  // namespace mdgan::obs::json
