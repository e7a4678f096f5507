#include "fc/sequence.hpp"

#include <utility>

namespace hsfi::fc {

std::vector<FcFrame> SequenceBuilder::build(const FcHeader& header,
                                            std::vector<std::uint8_t> payload,
                                            std::size_t chunk) {
  if (chunk == 0 || chunk > kFcMaxPayload) chunk = kFcMaxPayload;
  std::vector<FcFrame> frames;
  const std::size_t count =
      payload.empty() ? 1 : (payload.size() + chunk - 1) / chunk;
  frames.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    FcFrame f;
    f.header = header;
    f.header.seq_cnt = static_cast<std::uint16_t>(i);
    const std::size_t begin = i * chunk;
    const std::size_t end =
        begin + chunk < payload.size() ? begin + chunk : payload.size();
    f.payload.assign(payload.begin() + static_cast<std::ptrdiff_t>(begin),
                     payload.begin() + static_cast<std::ptrdiff_t>(end));
    f.sof = i == 0 ? OrderedSet::kSofI3 : OrderedSet::kSofN3;
    f.eof = i + 1 == count ? OrderedSet::kEofT : OrderedSet::kEofN;
    frames.push_back(std::move(f));
  }
  return frames;
}

void SequenceReassembler::feed(FcFrame frame) {
  const Key key{frame.header.s_id, frame.header.seq_id};
  auto it = open_.find(key);

  if (frame.sof == OrderedSet::kSofI3) {
    // A fresh initiation preempts any unfinished sequence with this key.
    if (it != open_.end()) {
      ++stats_.sequences_aborted;
      open_.erase(it);
    }
    if (frame.header.seq_cnt != 0) {
      ++stats_.frames_rejected;
      return;
    }
    Open open;
    open.next_cnt = 1;
    open.payload = std::move(frame.payload);
    ++stats_.frames_accepted;
    if (frame.eof == OrderedSet::kEofT) {
      ++stats_.sequences_completed;
      if (handler_) handler_(frame.header.s_id, frame.header.seq_id,
                             std::move(open.payload));
      return;
    }
    open_.emplace(key, std::move(open));
    return;
  }

  // Continuation frame: must belong to an open sequence and be in order.
  if (it == open_.end()) {
    ++stats_.frames_rejected;
    return;
  }
  if (frame.header.seq_cnt != it->second.next_cnt) {
    // Class 3 cannot recover a hole: abandon the sequence.
    ++stats_.frames_rejected;
    ++stats_.sequences_aborted;
    open_.erase(it);
    return;
  }
  ++stats_.frames_accepted;
  it->second.next_cnt = static_cast<std::uint16_t>(it->second.next_cnt + 1);
  it->second.payload.insert(it->second.payload.end(), frame.payload.begin(),
                            frame.payload.end());
  if (frame.eof == OrderedSet::kEofT) {
    ++stats_.sequences_completed;
    auto payload = std::move(it->second.payload);
    open_.erase(it);
    if (handler_) handler_(frame.header.s_id, frame.header.seq_id,
                           std::move(payload));
  }
}

}  // namespace hsfi::fc
