#include "fc/port.hpp"

#include <utility>

namespace hsfi::fc {

FcPort::FcPort(sim::Simulator& simulator, std::string name, Config config)
    : simulator_(simulator),
      name_(std::move(name)),
      config_(config) {
  state_.credits = config.bb_credit;
}

void FcPort::attach(link::Channel& rx, link::Channel& tx) {
  rx.attach(*this);
  tx_ = &tx;
}

bool FcPort::send(FcFrame frame) {
  if (state_.tx_queue.size() >= config_.tx_queue_frames) {
    ++state_.stats.tx_queue_drops;
    return false;
  }
  std::vector<link::Symbol> symbols = tx_pool_.acquire();
  frame_to_symbols_into(frame, symbols);
  state_.tx_queue.push_back(std::move(symbols));
  schedule_pump_tx();
  return true;
}

void FcPort::inject_rrdy(std::size_t count) {
  if (tx_ == nullptr) return;
  const auto rrdy = ordered_set_symbol_array(OrderedSet::kRRdy);
  for (std::size_t i = 0; i < count; ++i) {
    tx_->transmit(rrdy);
  }
}

void FcPort::schedule_pump_tx() {
  if (state_.tx_pump_scheduled) return;
  state_.tx_pump_scheduled = true;
  simulator_.schedule_now([this] {
    state_.tx_pump_scheduled = false;
    pump_tx();
  });
}

void FcPort::pump_tx() {
  if (tx_ == nullptr) return;
  const auto ahead_limit =
      config_.character_period *
      static_cast<sim::Duration>(config_.max_tx_ahead_chars);
  for (;;) {
    if (state_.tx_offset >= state_.tx_current.size()) {
      if (state_.tx_queue.empty()) return;
      if (state_.credits == 0) {
        if (!state_.stalled_reported) {
          ++state_.stats.credit_stall_events;
          state_.stalled_reported = true;
          emit_event(sim::Observed::kFcCreditStall, simulator_.now());
        }
        schedule_credit_recovery();
        return;  // resumes when an R_RDY returns a credit
      }
      state_.stalled_reported = false;
      --state_.credits;
      state_.tx_current = std::move(state_.tx_queue.front());
      state_.tx_queue.pop_front();
      state_.tx_offset = 0;
    }
    const sim::SimTime free_at = tx_->transmitter_free_at();
    if (free_at > simulator_.now() + ahead_limit) {
      if (!state_.tx_pump_scheduled) {
        state_.tx_pump_scheduled = true;
        simulator_.schedule_at(free_at - ahead_limit, [this] {
          state_.tx_pump_scheduled = false;
          pump_tx();
        });
      }
      return;
    }
    const std::size_t n = std::min(
        config_.chunk_symbols, state_.tx_current.size() - state_.tx_offset);
    tx_->transmit(std::span<const link::Symbol>(
        state_.tx_current.data() + state_.tx_offset, n));
    state_.tx_offset += n;
    if (state_.tx_offset >= state_.tx_current.size()) {
      ++state_.stats.frames_sent;
      tx_pool_.release(std::move(state_.tx_current));
      state_.tx_current.clear();
      state_.tx_offset = 0;
    }
  }
}

void FcPort::on_burst(const link::Burst& burst) {
  // Control symbols and partial ordered sets go through the per-symbol feed
  // (they carry all the protocol state transitions); a data run between
  // them lands in the open frame body, or counts as stray data outside one.
  const std::size_t n = burst.symbols.size();
  std::size_t i = 0;
  while (i < n) {
    if (!state_.set_accum.empty() || burst.symbols[i].control) {
      feed(burst.symbols[i], burst.arrival(i));
      ++i;
      continue;
    }
    const std::size_t run_end = link::find_next_control(burst, i);
    if (state_.in_frame) {
      link::append_data(burst, i, run_end, state_.body);
    } else {
      for (std::size_t j = i; j < run_end; ++j) {
        ++state_.stats.stray_data;
        emit_event(sim::Observed::kFcStrayData, burst.arrival(j));
      }
    }
    i = run_end;
  }
}

void FcPort::feed(link::Symbol s, sim::SimTime when) {
  if (!state_.set_accum.empty()) {
    state_.set_accum.push_back(Char8{s.data, s.control});
    if (state_.set_accum.size() == 4) {
      const auto os = parse_ordered_set(
          std::span<const Char8, 4>(state_.set_accum.data(), 4));
      state_.set_accum.clear();
      if (!os) {
        ++state_.stats.malformed_sets;
        emit_event(sim::Observed::kFcMalformedSet, when);
        // A broken SOF/EOF poisons any open frame.
        if (state_.in_frame) {
          state_.in_frame = false;
          state_.body.clear();
        }
        return;
      }
      handle_ordered_set(*os, when);
    }
    return;
  }
  if (s.control && Char8{s.data, true} == K(28, 5)) {
    state_.set_accum.push_back(Char8{s.data, true});
    return;
  }
  if (!s.control && state_.in_frame) {
    state_.body.push_back(s.data);
    return;
  }
  ++state_.stats.stray_data;
  emit_event(sim::Observed::kFcStrayData, when);
}

void FcPort::handle_ordered_set(OrderedSet os, sim::SimTime when) {
  switch (os) {
    case OrderedSet::kIdle:
      break;
    case OrderedSet::kRRdy:
      ++state_.stats.rrdy_received;
      ++state_.credits;
      // A credit came back, so the peer is alive: any pending stall
      // timeout was a false alarm.
      cancel_credit_recovery();
      schedule_pump_tx();
      break;
    case OrderedSet::kSofI3:
    case OrderedSet::kSofN3:
      state_.in_frame = true;
      state_.sof_seen = os;
      state_.body.clear();
      break;
    case OrderedSet::kEofN:
    case OrderedSet::kEofT:
      if (state_.in_frame) complete_frame(os, when);
      state_.in_frame = false;
      break;
  }
}

void FcPort::complete_frame(OrderedSet eof, sim::SimTime when) {
  FcParsed parsed = parse_frame_body(state_.body);
  state_.body.clear();
  parsed.frame.sof = state_.sof_seen;
  parsed.frame.eof = eof;
  if (parsed.status == FcParseStatus::kCrcError) {
    ++state_.stats.crc_errors;
    emit_event(sim::Observed::kFcCrcError, when);
    return;
  }
  if (parsed.status != FcParseStatus::kOk) {
    ++state_.stats.malformed_sets;
    emit_event(sim::Observed::kFcMalformedSet, when);
    return;
  }
  if (state_.rx_buffers.size() >= config_.rx_buffers) {
    ++state_.stats.rx_overflows;  // sender overran our advertised credit
    emit_event(sim::Observed::kFcRxOverflow, when);
    return;
  }
  state_.rx_buffers.push_back(std::move(parsed.frame));
  schedule_rx_drain();
}

void FcPort::schedule_credit_recovery() {
  if (config_.credit_recovery_timeout <= 0) return;
  if (state_.credit_recovery_event != sim::kInvalidEventId) return;
  state_.credit_recovery_event = simulator_.schedule_in(
      config_.credit_recovery_timeout, [this] {
        state_.credit_recovery_event = sim::kInvalidEventId;
        if (state_.credits != 0) return;  // recovered on its own meanwhile
        // No R_RDY for a full timeout: the returns were corrupted in
        // flight and class 3 will never resend them. Reset to the login
        // value, the way a real port's link timeout + credit recovery
        // brings a wedged link back.
        state_.credits = config_.bb_credit;
        ++state_.stats.credit_recoveries;
        schedule_pump_tx();
      });
}

void FcPort::cancel_credit_recovery() {
  if (state_.credit_recovery_event == sim::kInvalidEventId) return;
  simulator_.cancel(state_.credit_recovery_event);
  state_.credit_recovery_event = sim::kInvalidEventId;
}

void FcPort::reset_for_campaign() {
  state_.stats = Stats{};
  state_.credits = config_.bb_credit;
  state_.stalled_reported = false;
  cancel_credit_recovery();
  state_.tx_queue.clear();
  state_.tx_current.clear();
  state_.tx_offset = 0;
  state_.set_accum.clear();
  state_.in_frame = false;
  state_.body.clear();
  state_.rx_buffers.clear();
  // Pending pump/drain wakeups stay scheduled; both no-op on empty state.
}

void FcPort::schedule_rx_drain() {
  if (state_.rx_drain_scheduled || state_.rx_buffers.empty()) return;
  state_.rx_drain_scheduled = true;
  simulator_.schedule_in(config_.rx_processing_time, [this] {
    state_.rx_drain_scheduled = false;
    if (state_.rx_buffers.empty()) return;
    FcFrame frame = std::move(state_.rx_buffers.front());
    state_.rx_buffers.pop_front();
    ++state_.stats.frames_received;
    // Buffer freed: return a credit to the sender.
    if (tx_ != nullptr) {
      tx_->transmit(ordered_set_symbol_array(OrderedSet::kRRdy));
      ++state_.stats.rrdy_sent;
    }
    if (handler_) handler_(std::move(frame), simulator_.now());
    schedule_rx_drain();
  });
}

}  // namespace hsfi::fc
