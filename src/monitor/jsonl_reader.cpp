#include "monitor/jsonl_reader.hpp"

#include <fstream>

#include "orchestrator/json_value.hpp"

namespace hsfi::monitor {

namespace {

/// The u64 counter a record key folds into; nullptr for every other key.
std::uint64_t* counter(ParsedRecord& rec, const std::string& key) {
  if (key == "run") return &rec.run;
  if (key == "seed") return &rec.seed;
  if (key == "round") return &rec.round;
  if (key == "injections") return &rec.injections;
  if (key == "duplicates") return &rec.duplicates;
  for (const auto m : analysis::all_manifestations()) {
    if (key == analysis::jsonl_key(m)) return &rec.manifestations[m];
  }
  return nullptr;
}

/// The string field a record key fills; nullptr for every other key.
std::string* text(ParsedRecord& rec, const std::string& key) {
  if (key == "name") return &rec.name;
  if (key == "outcome") return &rec.outcome;
  if (key == "medium") return &rec.medium;
  if (key == "strategy") return &rec.strategy;
  return nullptr;
}

}  // namespace

std::optional<ParsedRecord> parse_record(std::string_view line) {
  const auto doc = orchestrator::parse_json(line);
  if (!doc || doc->kind != orchestrator::JsonValue::Kind::kObject) {
    return std::nullopt;
  }
  ParsedRecord rec;
  for (const auto& [key, value] : doc->fields) {
    // A string or a fraction where a folded counter belongs is schema
    // drift, not an ignorable extra: reject the line rather than guess.
    if (auto* dst = counter(rec, key)) {
      if (!value.as_u64(*dst)) return std::nullopt;
    } else if (auto* dst_text = text(rec, key)) {
      if (value.kind != orchestrator::JsonValue::Kind::kString) {
        return std::nullopt;
      }
      *dst_text = value.text;
    }
    // other fields (sent, loss_pct, error, wall_ms, ...) are skipped
  }
  if (rec.name.empty() || rec.outcome.empty()) return std::nullopt;
  return rec;
}

std::size_t JsonlTailer::poll(
    const std::function<void(const ParsedRecord&)>& deliver) {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return 0;  // shard not started yet

  // Truncation/rotation check: a file shorter than the saved offset is a
  // new incarnation, not a continuation. Seeking blindly would park the
  // cursor at EOF and the tailer would silently read nothing forever —
  // and the torn-line carry from the old file must not be glued onto the
  // new file's first line.
  in.seekg(0, std::ios::end);
  const auto size = static_cast<std::uint64_t>(in.tellg());
  if (size < offset_) {
    offset_ = 0;
    partial_.clear();
    ++truncations_;
  }
  in.seekg(static_cast<std::streamoff>(offset_));
  if (!in) return 0;

  std::string chunk;
  char buffer[4096];
  while (in.read(buffer, sizeof(buffer)) || in.gcount() > 0) {
    chunk.append(buffer, static_cast<std::size_t>(in.gcount()));
    if (in.eof()) break;
  }
  offset_ += chunk.size();

  std::size_t delivered = 0;
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = chunk.find('\n', start);
    if (nl == std::string::npos) break;
    partial_.append(chunk, start, nl - start);
    start = nl + 1;
    if (!partial_.empty()) {
      if (const auto rec = parse_record(partial_)) {
        deliver(*rec);
        ++delivered;
      } else {
        ++malformed_;
      }
    }
    partial_.clear();
  }
  partial_.append(chunk, start, chunk.size() - start);
  return delivered;
}

}  // namespace hsfi::monitor
