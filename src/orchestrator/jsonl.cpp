#include "orchestrator/jsonl.hpp"

#include <cmath>
#include <cstdio>

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

}  // namespace hsfi::orchestrator
