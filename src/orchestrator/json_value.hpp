// The repo's one JSON reader: campaign-spec files, checkpoint sidecars,
// repro traces, JSONL run records (orchestrator::parse_jsonl) and the bench
// schema check (bench_json_check) all parse through it.
//
// Hand-rolled (the container image carries no JSON library) and strict —
// duplicate object keys, raw control characters in strings, unknown
// escapes, malformed numbers, trailing garbage and truncated documents are
// rejected outright rather than papered over, so a drifted or torn
// document can never half-load.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hsfi::orchestrator {

/// One parsed JSON value. Numbers keep their raw source token so callers
/// choose the representation: as_u64() refuses fractions, exponents, and
/// anything beyond 64 bits (a seed must round-trip exactly), while
/// as_double() accepts any JSON number.
struct JsonValue {
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  /// String value, or the raw number token ("12.5", "-3e2").
  std::string text;
  std::vector<JsonValue> items;  ///< array elements, in order
  /// Object members in source order; keys are unique (duplicates are a
  /// parse error).
  std::vector<std::pair<std::string, JsonValue>> fields;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

  /// Exact unsigned integer: false unless kind == kNumber and the token is
  /// a plain base-10 integer that fits std::uint64_t.
  [[nodiscard]] bool as_u64(std::uint64_t& out) const noexcept;
  /// Any JSON number, as double.
  [[nodiscard]] bool as_double(double& out) const noexcept;
};

/// Parses one complete JSON document. Returns nullopt on any violation —
/// syntax error, duplicate key, nesting deeper than 32, or bytes after the
/// document — with a byte-offset-annotated message in *error when given.
[[nodiscard]] std::optional<JsonValue> parse_json(std::string_view text,
                                                  std::string* error = nullptr);

}  // namespace hsfi::orchestrator
