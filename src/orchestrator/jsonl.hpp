// Minimal JSON emission for the orchestrator's result records.
//
// Hand-rolled on purpose: records are flat (no nesting beyond one object
// per line), field order must be stable so that sorted JSONL output is
// byte-comparable across worker counts, and the container image carries no
// JSON library. The reading half is orchestrator::parse_json
// (json_value.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hsfi::orchestrator {

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included). Control characters become \u00XX.
[[nodiscard]] std::string json_escape(std::string_view s);

/// Append-only single-level JSON object with insertion-ordered fields.
class JsonObject {
 public:
  void add(std::string_view key, std::string_view value);
  void add(std::string_view key, const char* value) {
    add(key, std::string_view(value));
  }
  void add_u64(std::string_view key, std::uint64_t value);
  void add_i64(std::string_view key, std::int64_t value);
  void add_bool(std::string_view key, bool value);
  /// Fixed-point decimal with `decimals` fractional digits — deterministic
  /// formatting, unlike shortest-round-trip double printing.
  void add_fixed(std::string_view key, double value, int decimals);

  /// The complete object, e.g. {"run":0,"outcome":"ok"}.
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view k);
  std::string body_;
};

/// One record of the bench-record schema (BENCH_sim_kernel.json; the
/// kernel bench, bench_adaptive and run_sweep --bench-out all write it):
/// {"bench", "metric", "value", "unit", "commit"}, `value` printed with
/// `decimals` fractional digits.
struct BenchRecord {
  std::string bench;
  std::string metric;
  double value = 0;
  int decimals = 0;
  std::string unit;
};

/// The commit bench records are stamped with: HSFI_COMMIT when set (the
/// before/after measurement scripts pin it), else `git rev-parse --short
/// HEAD`, else "unknown".
[[nodiscard]] std::string bench_commit();

/// Writes `records` to `path` as a JSON array, one object per line, each
/// stamped with bench_commit(). Returns false (with a message on stderr)
/// when the file cannot be written.
bool write_bench_records(const std::string& path,
                         const std::vector<BenchRecord>& records);

}  // namespace hsfi::orchestrator
