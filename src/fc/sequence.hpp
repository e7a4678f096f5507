// FC-2 sequences: payloads larger than one frame travel as an ordered run
// of frames sharing SEQ_ID, numbered by SEQ_CNT, delimited SOFi3...EOFn /
// SOFn3...EOFn / ... / SOFn3...EOFt.
//
// SequenceBuilder splits a payload into frames; SequenceReassembler
// collects arriving frames per (S_ID, SEQ_ID), enforces in-order SEQ_CNT,
// and delivers the whole payload at the terminating EOFt. A gap in the
// count or a new sequence arriving over an unfinished one aborts the old
// one — class 3 has no retransmission, so a lost middle frame costs the
// sequence, which is exactly the failure surface an injector campaign on
// an FC link measures.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "fc/frame.hpp"

namespace hsfi::fc {

class SequenceBuilder {
 public:
  /// Splits `payload` into frames of at most `chunk` payload bytes (the
  /// header fields other than SEQ_CNT/delimiters are copied from `header`).
  [[nodiscard]] static std::vector<FcFrame> build(const FcHeader& header,
                                                  std::vector<std::uint8_t> payload,
                                                  std::size_t chunk = kFcMaxPayload);
};

class SequenceReassembler {
 public:
  struct Stats {
    std::uint64_t sequences_completed = 0;
    std::uint64_t sequences_aborted = 0;  ///< count gap or preemption
    std::uint64_t frames_accepted = 0;
    std::uint64_t frames_rejected = 0;    ///< out-of-order SEQ_CNT
  };

  /// Called with the originator id, sequence id, and complete payload.
  using Handler = std::function<void(std::uint32_t s_id, std::uint8_t seq_id,
                                     std::vector<std::uint8_t> payload)>;

  explicit SequenceReassembler(Handler handler) : handler_(std::move(handler)) {}

  /// Feed a received frame (CRC-valid; the port already checked). Taken by
  /// value: a first frame's payload moves into the open sequence.
  void feed(FcFrame frame);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t open_sequences() const noexcept {
    return open_.size();
  }

 private:
  struct Open {
    std::uint16_t next_cnt = 0;
    std::vector<std::uint8_t> payload;
  };

  using Key = std::pair<std::uint32_t, std::uint8_t>;  // s_id, seq_id
  std::map<Key, Open> open_;
  Handler handler_;
  Stats stats_;
};

}  // namespace hsfi::fc
