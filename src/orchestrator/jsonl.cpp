#include "orchestrator/jsonl.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace hsfi::orchestrator {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonObject::key(std::string_view k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += json_escape(k);
  body_ += "\":";
}

void JsonObject::add(std::string_view k, std::string_view value) {
  key(k);
  body_ += '"';
  body_ += json_escape(value);
  body_ += '"';
}

void JsonObject::add_u64(std::string_view k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
}

void JsonObject::add_i64(std::string_view k, std::int64_t value) {
  key(k);
  body_ += std::to_string(value);
}

void JsonObject::add_bool(std::string_view k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
}

void JsonObject::add_fixed(std::string_view k, double value, int decimals) {
  key(k);
  // JSON has no NaN/Infinity literals; printf would emit bare "nan"/"inf"
  // and corrupt the line for every standard parser.
  if (!std::isfinite(value)) {
    body_ += "null";
    return;
  }
  // Room for every digit of the largest double: a shorter buffer would
  // silently cut the number short.
  char buf[400];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  body_ += buf;
}

std::string bench_commit() {
  if (const char* env = std::getenv("HSFI_COMMIT"); env != nullptr && *env) {
    return env;
  }
  std::string commit = "unknown";
  if (std::FILE* pipe = popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buffer[64] = {};
    if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
      std::string line(buffer);
      while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
        line.pop_back();
      }
      if (!line.empty()) commit = line;
    }
    pclose(pipe);
  }
  return commit;
}

bool write_bench_records(const std::string& path,
                         const std::vector<BenchRecord>& records) {
  const std::string commit = bench_commit();
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  out << "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    JsonObject o;
    o.add("bench", r.bench);
    o.add("metric", r.metric);
    o.add_fixed("value", r.value, r.decimals);
    o.add("unit", r.unit);
    o.add("commit", commit);
    out << (i == 0 ? "  " : ",\n  ") << o.str();
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

}  // namespace hsfi::orchestrator
