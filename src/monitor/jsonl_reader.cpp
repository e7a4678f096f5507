#include "monitor/jsonl_reader.hpp"

#include <fstream>

namespace hsfi::monitor {

std::size_t JsonlTailer::poll(
    const std::function<void(const orchestrator::RunRecord&)>& deliver) {
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
      if (const auto rec = orchestrator::parse_jsonl(partial_)) {
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
