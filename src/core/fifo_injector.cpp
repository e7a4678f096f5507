#include "core/fifo_injector.hpp"

#include <cassert>

#include "myrinet/control.hpp"

namespace hsfi::core {

FifoInjector::FifoInjector() : FifoInjector(Params{}) {}

FifoInjector::FifoInjector(Params params) : params_(params) {
  assert(params_.latency_chars >= 4 &&
         "window must still be resident on the even clock");
  assert(params_.fifo_capacity > params_.latency_chars);
  ring_.resize(params_.fifo_capacity);
}

void FifoInjector::rearm() noexcept {
  once_done_ = false;
  inject_now_ = false;
}

bool FifoInjector::compare_matches() const noexcept {
  const bool data_ok =
      ((window_data_ ^ config_.compare_data) & config_.compare_mask) == 0;
  const bool ctl_ok =
      ((window_ctl_ ^ config_.compare_ctl) & config_.compare_ctl_mask & 0x0F) == 0;
  return data_ok && ctl_ok;
}

void FifoInjector::corrupt_window() {
  // The window is the four newest FIFO entries; the newest corresponds to
  // corrupt-vector bits [7:0].
  const std::size_t n = count_ < 4 ? count_ : 4;
  for (std::size_t lane = 0; lane < n; ++lane) {
    link::Symbol& s = ring_at(count_ - 1 - lane);
    const auto shift = static_cast<unsigned>(8 * lane);
    const auto lane_data =
        static_cast<std::uint8_t>(config_.corrupt_data >> shift);
    const auto lane_mask =
        static_cast<std::uint8_t>(config_.corrupt_mask >> shift);
    const std::uint8_t ctl_bit = static_cast<std::uint8_t>(1u << lane);
    switch (config_.corrupt_mode) {
      case CorruptMode::kToggle:
        s.data ^= lane_data;
        if ((config_.corrupt_ctl & ctl_bit) != 0) s.control = !s.control;
        break;
      case CorruptMode::kReplace:
        s.data = static_cast<std::uint8_t>((s.data & ~lane_mask) |
                                           (lane_data & lane_mask));
        if ((config_.corrupt_ctl_mask & ctl_bit) != 0) {
          s.control = (config_.corrupt_ctl & ctl_bit) != 0;
        }
        break;
    }
  }
}

bool FifoInjector::lfsr_permits() noexcept {
  if (config_.lfsr_mask == 0) return true;
  // 16-bit Fibonacci LFSR, taps 16,14,13,11 (maximal length).
  const std::uint16_t bit = static_cast<std::uint16_t>(
      ((lfsr_ >> 0) ^ (lfsr_ >> 2) ^ (lfsr_ >> 3) ^ (lfsr_ >> 5)) & 1);
  lfsr_ = static_cast<std::uint16_t>((lfsr_ >> 1) | (bit << 15));
  return (lfsr_ & config_.lfsr_mask) == 0;
}

bool FifoInjector::pending_payload() const noexcept {
  for (std::size_t i = 0; i < count_; ++i) {
    if (!is_idle_character(ring_at(i))) return true;
  }
  return false;
}

FifoInjector::EvenResult FifoInjector::even_clock() {
  EvenResult result;
  // The LFSR free-runs on every compare cycle regardless of the match.
  const bool lfsr_ok = lfsr_permits();
  result.matched = compare_matches() && lfsr_ok;
  if (result.matched) ++stats_.matches;

  bool fire = false;
  if (inject_now_) {
    fire = true;
    inject_now_ = false;
    ++stats_.forced;
  } else if (result.matched) {
    switch (config_.match_mode) {
      case MatchMode::kOff:
        break;
      case MatchMode::kOn:
        fire = true;
        break;
      case MatchMode::kOnce:
        if (!once_done_) {
          fire = true;
          once_done_ = true;
        }
        break;
    }
  }

  if (fire && count_ > 0) {
    corrupt_window();
    ++stats_.injections;
    result.fired = true;
  }
  return result;
}

FifoInjector::Result FifoInjector::clock(std::optional<link::Symbol> in) {
  Result result;

  // --- Odd clock: push, pop, shift compare registers. -----------------
  // On an idle wire the free-running clock pushes an IDLE character, so
  // every character spends exactly latency_chars clock pairs in the device.
  const link::Symbol pushed =
      in.value_or(myrinet::to_symbol(myrinet::ControlSymbol::kIdle));
  if (in.has_value()) ++stats_.characters;
  push_ring(pushed);
  window_data_ = (window_data_ << 8) | pushed.data;
  window_ctl_ = static_cast<std::uint8_t>(((window_ctl_ << 1) & 0x0F) |
                                          (pushed.control ? 1u : 0u));
  if (count_ > params_.latency_chars) result.out = pop_ring();

  // --- Even clock: evaluate compare, corrupt in the FIFO. --------------
  // Idle ticks skip the inject phase: corrupting synthesized filler has no
  // counterpart on a wire that carries no characters (and would otherwise
  // manufacture payload out of nothing during the drain).
  if (!in.has_value()) return result;

  // Word-granular hardware evaluates the compare once per 32-bit segment.
  const std::uint8_t stride =
      config_.compare_stride == 0 ? 1 : config_.compare_stride;
  if (stats_.characters % stride != 0) return result;

  const EvenResult even = even_clock();
  result.matched = even.matched;
  result.injected = even.fired;
  return result;
}

void FifoInjector::clock_burst(std::span<const link::Symbol> in,
                               BatchResult& result) {
  result.out.clear();
  result.fires.clear();
  if (in.empty()) return;

  const std::size_t n = in.size();
  const std::size_t latency = params_.latency_chars;
  const std::uint64_t stride =
      config_.compare_stride == 0 ? 1 : config_.compare_stride;

  // A trigger is possible only when something is armed; the match result is
  // a foregone conclusion (and the LFSR frozen) when every compare input is
  // don't-care. Together those make the whole even phase arithmetic.
  const bool armed =
      inject_now_ || config_.match_mode == MatchMode::kOn ||
      (config_.match_mode == MatchMode::kOnce && !once_done_);
  const bool trivially_matched = config_.compare_mask == 0 &&
                                 (config_.compare_ctl_mask & 0x0F) == 0 &&
                                 config_.lfsr_mask == 0;

  if (!armed && trivially_matched) {
    // --- Fast path: no even clock can fire; the burst reduces to bulk
    // ring traffic plus counter arithmetic. ------------------------------
    const std::uint64_t chars0 = stats_.characters;
    stats_.characters += n;
    // Every compare cycle in (chars0, chars0 + n] matches.
    stats_.matches +=
        (chars0 + n) / stride - chars0 / stride;

    // Per-character semantics: push, then pop while occupancy exceeds the
    // pipeline depth. Over the burst that pops the oldest `pops` characters
    // of the combined ring-then-input stream, in order.
    const std::size_t total = count_ + n;
    const std::size_t pops = total > latency ? total - latency : 0;
    const std::size_t from_ring = pops < count_ ? pops : count_;
    for (std::size_t i = 0; i < from_ring; ++i) {
      result.out.push_back(ring_[head_]);
      head_ = wrap(head_ + 1);
      --count_;
    }
    const std::size_t from_in = pops - from_ring;
    result.out.insert(result.out.end(), in.begin(),
                      in.begin() + static_cast<std::ptrdiff_t>(from_in));

    // The ring ends up holding the last min(total, latency) characters of
    // the stream: what survived the pops plus the undelivered input tail.
    for (std::size_t i = from_in; i < n; ++i) push_ring(in[i]);

    // Compare registers always track the newest four characters.
    const std::size_t wstart = n > 4 ? n - 4 : 0;
    for (std::size_t i = wstart; i < n; ++i) {
      window_data_ = (window_data_ << 8) | in[i].data;
      window_ctl_ = static_cast<std::uint8_t>(
          ((window_ctl_ << 1) & 0x0F) | (in[i].control ? 1u : 0u));
    }
    return;
  }

  // --- General tier: the per-character pipeline, inlined on the ring. ----
  for (std::size_t i = 0; i < n; ++i) {
    const link::Symbol pushed = in[i];
    ++stats_.characters;
    push_ring(pushed);
    window_data_ = (window_data_ << 8) | pushed.data;
    window_ctl_ = static_cast<std::uint8_t>(((window_ctl_ << 1) & 0x0F) |
                                            (pushed.control ? 1u : 0u));
    if (count_ > latency) result.out.push_back(pop_ring());

    if (stats_.characters % stride != 0) continue;
    if (even_clock().fired) {
      result.fires.push_back(static_cast<std::uint32_t>(i));
    }
  }
}

}  // namespace hsfi::core
