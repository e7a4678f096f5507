#include "fc/port.hpp"

#include <utility>

namespace hsfi::fc {

FcPort::FcPort(sim::Simulator& simulator, std::string name, Config config)
    : simulator_(simulator),
      name_(std::move(name)),
      config_(config),
      credits_(config.bb_credit) {}

void FcPort::attach(link::Channel& rx, link::Channel& tx) {
  rx.attach(*this);
  tx_ = &tx;
}

bool FcPort::send(FcFrame frame) {
  if (tx_queue_.size() >= config_.tx_queue_frames) {
    ++stats_.tx_queue_drops;
    return false;
  }
  std::vector<link::Symbol> symbols = tx_pool_.acquire();
  frame_to_symbols_into(frame, symbols);
  tx_queue_.push_back(std::move(symbols));
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
  if (tx_pump_scheduled_) return;
  tx_pump_scheduled_ = true;
  simulator_.schedule_now([this] {
    tx_pump_scheduled_ = false;
    pump_tx();
  });
}

void FcPort::pump_tx() {
  if (tx_ == nullptr) return;
  const auto ahead_limit =
      config_.character_period *
      static_cast<sim::Duration>(config_.max_tx_ahead_chars);
  for (;;) {
    if (tx_offset_ >= tx_current_.size()) {
      if (tx_queue_.empty()) return;
      if (credits_ == 0) {
        if (!stalled_reported_) {
          ++stats_.credit_stall_events;
          stalled_reported_ = true;
          emit_event(Event::kCreditStall, simulator_.now());
        }
        schedule_credit_recovery();
        return;  // resumes when an R_RDY returns a credit
      }
      stalled_reported_ = false;
      --credits_;
      tx_current_ = std::move(tx_queue_.front());
      tx_queue_.pop_front();
      tx_offset_ = 0;
    }
    const sim::SimTime free_at = tx_->transmitter_free_at();
    if (free_at > simulator_.now() + ahead_limit) {
      if (!tx_pump_scheduled_) {
        tx_pump_scheduled_ = true;
        simulator_.schedule_at(free_at - ahead_limit, [this] {
          tx_pump_scheduled_ = false;
          pump_tx();
        });
      }
      return;
    }
    const std::size_t n =
        std::min(config_.chunk_symbols, tx_current_.size() - tx_offset_);
    tx_->transmit(
        std::span<const link::Symbol>(tx_current_.data() + tx_offset_, n));
    tx_offset_ += n;
    if (tx_offset_ >= tx_current_.size()) {
      ++stats_.frames_sent;
      tx_pool_.release(std::move(tx_current_));
      tx_current_.clear();
      tx_offset_ = 0;
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
    if (!set_accum_.empty() || burst.symbols[i].control) {
      feed(burst.symbols[i], burst.arrival(i));
      ++i;
      continue;
    }
    const std::size_t run_end = link::find_next_control(burst, i);
    if (in_frame_) {
      link::append_data(burst, i, run_end, body_);
    } else {
      for (std::size_t j = i; j < run_end; ++j) {
        ++stats_.stray_data;
        emit_event(Event::kStrayData, burst.arrival(j));
      }
    }
    i = run_end;
  }
}

void FcPort::feed(link::Symbol s, sim::SimTime when) {
  if (!set_accum_.empty()) {
    set_accum_.push_back(Char8{s.data, s.control});
    if (set_accum_.size() == 4) {
      const auto os = parse_ordered_set(
          std::span<const Char8, 4>(set_accum_.data(), 4));
      set_accum_.clear();
      if (!os) {
        ++stats_.malformed_sets;
        emit_event(Event::kMalformedSet, when);
        // A broken SOF/EOF poisons any open frame.
        if (in_frame_) {
          in_frame_ = false;
          body_.clear();
        }
        return;
      }
      handle_ordered_set(*os, when);
    }
    return;
  }
  if (s.control && Char8{s.data, true} == K(28, 5)) {
    set_accum_.push_back(Char8{s.data, true});
    return;
  }
  if (!s.control && in_frame_) {
    body_.push_back(s.data);
    return;
  }
  ++stats_.stray_data;
  emit_event(Event::kStrayData, when);
}

void FcPort::handle_ordered_set(OrderedSet os, sim::SimTime when) {
  switch (os) {
    case OrderedSet::kIdle:
      break;
    case OrderedSet::kRRdy:
      ++stats_.rrdy_received;
      ++credits_;
      // A credit came back, so the peer is alive: any pending stall
      // timeout was a false alarm.
      cancel_credit_recovery();
      schedule_pump_tx();
      break;
    case OrderedSet::kSofI3:
    case OrderedSet::kSofN3:
      in_frame_ = true;
      sof_seen_ = os;
      body_.clear();
      break;
    case OrderedSet::kEofN:
    case OrderedSet::kEofT:
      if (in_frame_) complete_frame(os, when);
      in_frame_ = false;
      break;
  }
}

void FcPort::complete_frame(OrderedSet eof, sim::SimTime when) {
  FcParsed parsed = parse_frame_body(body_);
  body_.clear();
  parsed.frame.sof = sof_seen_;
  parsed.frame.eof = eof;
  if (parsed.status == FcParseStatus::kCrcError) {
    ++stats_.crc_errors;
    emit_event(Event::kCrcError, when);
    return;
  }
  if (parsed.status != FcParseStatus::kOk) {
    ++stats_.malformed_sets;
    emit_event(Event::kMalformedSet, when);
    return;
  }
  if (rx_buffers_.size() >= config_.rx_buffers) {
    ++stats_.rx_overflows;  // sender overran our advertised credit
    emit_event(Event::kRxOverflow, when);
    return;
  }
  rx_buffers_.push_back(std::move(parsed.frame));
  schedule_rx_drain();
}

void FcPort::schedule_credit_recovery() {
  if (config_.credit_recovery_timeout <= 0) return;
  if (credit_recovery_event_ != sim::kInvalidEventId) return;
  credit_recovery_event_ = simulator_.schedule_in(
      config_.credit_recovery_timeout, [this] {
        credit_recovery_event_ = sim::kInvalidEventId;
        if (credits_ != 0) return;  // recovered on its own meanwhile
        // No R_RDY for a full timeout: the returns were corrupted in
        // flight and class 3 will never resend them. Reset to the login
        // value, the way a real port's link timeout + credit recovery
        // brings a wedged link back.
        credits_ = config_.bb_credit;
        ++stats_.credit_recoveries;
        schedule_pump_tx();
      });
}

void FcPort::cancel_credit_recovery() {
  if (credit_recovery_event_ == sim::kInvalidEventId) return;
  simulator_.cancel(credit_recovery_event_);
  credit_recovery_event_ = sim::kInvalidEventId;
}

void FcPort::reset_for_campaign() {
  stats_ = Stats{};
  credits_ = config_.bb_credit;
  stalled_reported_ = false;
  cancel_credit_recovery();
  tx_queue_.clear();
  tx_current_.clear();
  tx_offset_ = 0;
  set_accum_.clear();
  in_frame_ = false;
  body_.clear();
  rx_buffers_.clear();
  // Pending pump/drain wakeups stay scheduled; both no-op on empty state.
}

void FcPort::schedule_rx_drain() {
  if (rx_drain_scheduled_ || rx_buffers_.empty()) return;
  rx_drain_scheduled_ = true;
  simulator_.schedule_in(config_.rx_processing_time, [this] {
    rx_drain_scheduled_ = false;
    if (rx_buffers_.empty()) return;
    FcFrame frame = std::move(rx_buffers_.front());
    rx_buffers_.pop_front();
    ++stats_.frames_received;
    // Buffer freed: return a credit to the sender.
    if (tx_ != nullptr) {
      tx_->transmit(ordered_set_symbol_array(OrderedSet::kRRdy));
      ++stats_.rrdy_sent;
    }
    if (handler_) handler_(std::move(frame), simulator_.now());
    schedule_rx_drain();
  });
}

}  // namespace hsfi::fc
