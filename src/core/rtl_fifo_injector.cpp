#include "core/rtl_fifo_injector.hpp"

#include <cassert>

#include "myrinet/control.hpp"

namespace hsfi::core {

RtlFifoInjector::RtlFifoInjector(Params params) : params_(params) {
  assert(params_.latency_chars >= 4);
  assert(params_.fifo_capacity > params_.latency_chars);
  assert(params_.fifo_capacity <= ram_.size());
  // Compare registers power up holding IDLE control characters.
  for (auto& w : window_) {
    w = Word{myrinet::encoding(myrinet::ControlSymbol::kIdle), true};
  }
}

bool RtlFifoInjector::pending_payload() const noexcept {
  for (std::size_t i = 0; i < count_; ++i) {
    const Word& w = ram_[wrap(rd_ptr_ + i)];
    if (!(w.control && w.data == 0x00)) return true;
  }
  return false;
}

RtlFifoInjector::Result RtlFifoInjector::clock(std::optional<link::Symbol> in) {
  Result result;

  // ===== Odd clock edge (Fig. 2: FIFO push and pull) ====================
  // Combinational inputs computed from current-state registers:
  const Word incoming =
      in ? Word{in->data, in->control}
         : Word{myrinet::encoding(myrinet::ControlSymbol::kIdle), true};
  const bool do_push = count_ < params_.fifo_capacity;
  const std::size_t count_after_push = count_ + (do_push ? 1 : 0);
  const bool do_pull = count_after_push > params_.latency_chars;

  // Register updates (RAM write port A, read port B, pointers, counter,
  // compare shift registers):
  if (do_push) {
    ram_[wr_ptr_] = incoming;
    wr_ptr_ = wrap(wr_ptr_ + 1);
  }
  if (do_pull) {
    const Word& w = ram_[rd_ptr_];
    result.out = link::Symbol{w.data, w.control};
    rd_ptr_ = wrap(rd_ptr_ + 1);
  }
  count_ = count_after_push - (do_pull ? 1 : 0);
  window_[3] = window_[2];
  window_[2] = window_[1];
  window_[1] = window_[0];
  window_[0] = incoming;
  if (in) ++char_counter_;

  // ===== Even clock edge (Fig. 3: inject data in FIFO) ==================
  if (!in) return result;  // the inject phase idles with the wire

  const std::uint8_t stride =
      config_.compare_stride == 0 ? 1 : config_.compare_stride;
  if (char_counter_ % stride != 0) return result;

  // Trigger LFSR free-runs on every evaluated compare cycle.
  bool lfsr_ok = true;
  if (config_.lfsr_mask != 0) {
    const std::uint16_t bit = static_cast<std::uint16_t>(
        ((lfsr_ >> 0) ^ (lfsr_ >> 2) ^ (lfsr_ >> 3) ^ (lfsr_ >> 5)) & 1);
    lfsr_ = static_cast<std::uint16_t>((lfsr_ >> 1) | (bit << 15));
    lfsr_ok = (lfsr_ & config_.lfsr_mask) == 0;
  }

  // Masked compare of the window registers (window_[0] = newest = lane 0).
  std::uint32_t window_data = 0;
  std::uint8_t window_ctl = 0;
  for (int lane = 3; lane >= 0; --lane) {
    window_data = (window_data << 8) | window_[static_cast<std::size_t>(lane)].data;
    window_ctl = static_cast<std::uint8_t>(
        (window_ctl << 1) |
        (window_[static_cast<std::size_t>(lane)].control ? 1 : 0));
  }
  const bool data_ok =
      ((window_data ^ config_.compare_data) & config_.compare_mask) == 0;
  const bool ctl_ok = ((window_ctl ^ config_.compare_ctl) &
                       config_.compare_ctl_mask & 0x0F) == 0;
  const bool matched = data_ok && ctl_ok && lfsr_ok;
  result.matched = matched;

  bool fire = false;
  if (inject_now_) {
    fire = true;
    inject_now_ = false;
  } else if (matched) {
    switch (config_.match_mode) {
      case MatchMode::kOff: break;
      case MatchMode::kOn: fire = true; break;
      case MatchMode::kOnce:
        if (!once_done_) {
          fire = true;
          once_done_ = true;
        }
        break;
    }
  }
  if (!fire || count_ == 0) return result;

  // Overwrite the newest (up to) four RAM words — the matched window, all
  // still resident because latency_chars >= 4.
  const std::size_t lanes = count_ < 4 ? count_ : 4;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    Word& w = ram_[wrap(wr_ptr_ + params_.fifo_capacity - 1 - lane)];
    const auto shift = static_cast<unsigned>(8 * lane);
    const auto lane_data =
        static_cast<std::uint8_t>(config_.corrupt_data >> shift);
    const auto lane_mask =
        static_cast<std::uint8_t>(config_.corrupt_mask >> shift);
    const std::uint8_t ctl_bit = static_cast<std::uint8_t>(1u << lane);
    switch (config_.corrupt_mode) {
      case CorruptMode::kToggle:
        w.data ^= lane_data;
        if ((config_.corrupt_ctl & ctl_bit) != 0) w.control = !w.control;
        break;
      case CorruptMode::kReplace:
        w.data = static_cast<std::uint8_t>((w.data & ~lane_mask) |
                                           (lane_data & lane_mask));
        if ((config_.corrupt_ctl_mask & ctl_bit) != 0) {
          w.control = (config_.corrupt_ctl & ctl_bit) != 0;
        }
        break;
    }
  }
  result.injected = true;
  return result;
}

}  // namespace hsfi::core
