#include "myrinet/switch.hpp"

#include "myrinet/packet.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace hsfi::myrinet {

Switch::Switch(sim::Simulator& simulator, std::string name, Config config)
    : simulator_(simulator),
      name_(std::move(name)),
      config_(config) {
  ports_.reserve(config_.num_ports);
  for (std::size_t i = 0; i < config_.num_ports; ++i) {
    auto port = std::make_unique<Port>();
    port->sink.self = this;
    port->sink.port = i;
    port->slack = std::make_unique<SlackBuffer>(
        simulator_, config_.slack,
        [this, i](ControlSymbol c) { send_flow(i, c); });
    port->gate = std::make_unique<FlowGate>(
        simulator_, config_.short_timeout, [this, i] {
          const std::size_t owner = ports_[i]->owner_input;
          if (owner != Port::kFree) schedule_pump(owner);
        });
    ports_.push_back(std::move(port));
  }
}

Switch::~Switch() = default;

void Switch::attach_port(std::size_t port, link::Channel& rx,
                         link::Channel& tx) {
  assert(port < ports_.size());
  rx.attach(ports_[port]->sink);
  ports_[port]->tx = &tx;
}

Switch::PortStats Switch::port_stats(std::size_t port) const {
  assert(port < ports_.size());
  PortStats stats = ports_[port]->stats;
  stats.slack_overflow = ports_[port]->slack->overflow_drops();
  return stats;
}

SlackBuffer& Switch::input_slack(std::size_t port) {
  assert(port < ports_.size());
  return *ports_[port]->slack;
}

void Switch::send_flow(std::size_t port, ControlSymbol c) {
  Port& p = *ports_[port];
  if (p.tx == nullptr) return;
  if (c == ControlSymbol::kStop) ++p.stats.flow_stops_sent;
  if (c == ControlSymbol::kGo) ++p.stats.flow_gos_sent;
  p.tx->transmit(to_symbol(c));
}

void Switch::on_burst(std::size_t port, const link::Burst& burst) {
  Port& p = *ports_[port];
  const std::size_t n = burst.symbols.size();
  // Data runs between control symbols go into the slack with one bulk
  // insert each. Flow-control symbols received on this port steer this
  // port's *output* gate; they never enter the forwarding path.
  std::size_t i = 0;
  while (i < n) {
    const std::size_t c = link::find_next_control(burst, i);
    if (c > i) {
      const std::size_t accepted =
          p.slack->push_run({burst.symbols.data() + i, c - i});
      // Rejected tail: per-symbol pushes keep exact drop accounting and
      // per-symbol overflow event timestamps.
      for (std::size_t j = i + accepted; j < c; ++j) {
        if (!p.slack->push(burst.symbols[j]) && port_event_) {
          port_event_(port, PortEvent::kSlackOverflow, burst.arrival(j));
        }
      }
    }
    if (c == n) break;
    const auto symbol = burst.symbols[c];
    const auto decoded = decode_control(symbol.data);
    if (decoded == ControlSymbol::kStop || decoded == ControlSymbol::kGo) {
      p.gate->on_flow(*decoded);
    } else if (!p.slack->push(symbol) && port_event_) {
      port_event_(port, PortEvent::kSlackOverflow, burst.arrival(c));
    }
    i = c + 1;
  }
  schedule_pump(port);
}

void Switch::schedule_pump(std::size_t port) {
  Port& p = *ports_[port];
  if (p.pump_scheduled) return;
  p.pump_scheduled = true;
  simulator_.schedule_now([this, port] {
    ports_[port]->pump_scheduled = false;
    pump(port);
  });
}

bool Switch::acquire_output(std::size_t out, std::size_t in) {
  Port& o = *ports_[out];
  if (o.owner_input == Port::kFree) {
    o.owner_input = in;
    return true;
  }
  if (o.owner_input == in) return true;
  if (std::find(o.waiters.begin(), o.waiters.end(), in) == o.waiters.end()) {
    o.waiters.push_back(in);
  }
  return false;
}

void Switch::release_output(std::size_t out) {
  // Hand the output directly to the oldest waiter (round-robin fairness):
  // merely marking it free would let the releasing input re-acquire it in
  // the same pump pass and starve blocked inputs indefinitely.
  Port& o = *ports_[out];
  if (!o.waiters.empty()) {
    o.owner_input = o.waiters.front();
    o.waiters.pop_front();
    schedule_pump(o.owner_input);
  } else {
    o.owner_input = Port::kFree;
  }
}

bool Switch::output_ready(std::size_t out, std::size_t in,
                          std::size_t queued_chars) {
  Port& o = *ports_[out];
  if (o.tx == nullptr) return false;
  if (!o.gate->open()) return false;  // pump resumes via the gate callback
  const auto ahead_limit =
      config_.character_period *
      static_cast<sim::Duration>(config_.max_tx_ahead_chars);
  const sim::SimTime now = simulator_.now();
  const sim::SimTime channel_free = o.tx->transmitter_free_at();
  // Effective wire-commit time includes characters batched but not yet
  // handed to the channel (this pump pass runs in zero simulated time).
  const sim::SimTime free_at =
      (channel_free > now ? channel_free : now) +
      config_.character_period *
          static_cast<sim::Duration>(o.pending_chars + queued_chars);
  if (free_at > now + ahead_limit) {
    // Too much already committed to the wire; try again once it drains.
    Port& i = *ports_[in];
    if (!i.pump_scheduled) {
      i.pump_scheduled = true;
      simulator_.schedule_at(free_at - ahead_limit, [this, in] {
        ports_[in]->pump_scheduled = false;
        pump(in);
      });
    }
    return false;
  }
  return true;
}

void Switch::arm_long_timeout(std::size_t port) {
  Port& p = *ports_[port];
  p.long_timeout_event =
      simulator_.schedule_in(config_.long_timeout, [this, port] {
        Port& q = *ports_[port];
        q.long_timeout_event = sim::kInvalidEventId;
        if (q.state != InState::kConnected) return;
        // Reclaim the held path: terminate the downstream packet. "The
        // sending host will then terminate the packet and consume the
        // remainder of the unsent packet" — the sender resynchronizes at
        // its next packet boundary, so the input returns to idle and
        // treats what follows as a fresh header.
        ++q.stats.long_timeouts;
        if (port_event_) {
          port_event_(port, PortEvent::kLongTimeout, simulator_.now());
        }
        if (trace_ && trace_->enabled(sim::LogLevel::kWarn)) {
          trace_->add(simulator_.now(), sim::LogLevel::kWarn, name_,
                      "long-period timeout reclaimed input " +
                          std::to_string(port) + " -> output " +
                          std::to_string(q.out_port));
        }
        std::vector<link::Symbol> tail;
        if (q.held) tail.push_back(link::data_symbol(*q.held));
        tail.push_back(to_symbol(ControlSymbol::kGap));
        Port& o = *ports_[q.out_port];
        if (o.tx != nullptr) o.tx->transmit(tail);
        release_output(q.out_port);
        q.held.reset();
        q.state = InState::kIdle;
        schedule_pump(port);
      });
}

void Switch::close_connection(Port& p) {
  if (p.long_timeout_event != sim::kInvalidEventId) {
    simulator_.cancel(p.long_timeout_event);
    p.long_timeout_event = sim::kInvalidEventId;
  }
  release_output(p.out_port);
  p.held.reset();
  p.state = InState::kIdle;
}

void Switch::pump(std::size_t port) {
  Port& p = *ports_[port];
  std::vector<link::Symbol>& batch = pump_batch_;
  batch.clear();
  std::size_t batch_out = Port::kFree;  // output the batch belongs to

  const auto flush = [&] {
    if (batch.empty() || batch_out == Port::kFree) return;
    Port& o = *ports_[batch_out];
    if (o.tx != nullptr) {
      o.pending_chars += batch.size();
      simulator_.schedule_in(
          config_.forwarding_latency,
          [this, out = batch_out, b = std::move(batch)]() mutable {
            Port& q = *ports_[out];
            q.pending_chars -= b.size() < q.pending_chars ? b.size()
                                                          : q.pending_chars;
            if (q.tx != nullptr) q.tx->transmit(b);
            batch_pool_.release(std::move(b));
          });
    }
    batch = batch_pool_.acquire();
  };

  for (;;) {
    const link::Symbol* front = p.slack->front();
    if (front == nullptr) break;

    switch (p.state) {
      case InState::kIdle: {
        if (front->control) {
          p.slack->pop();  // GAP/IDLE/noise between packets: transparent
          break;
        }
        const std::uint8_t head = front->data;
        const auto out = static_cast<std::size_t>(head & kRoutePortMask);
        if (out >= ports_.size() || ports_[out]->tx == nullptr) {
          ++p.stats.invalid_route;
          if (port_event_) {
            port_event_(port, PortEvent::kInvalidRoute, simulator_.now());
          }
          p.slack->pop();
          p.state = InState::kConsuming;
          break;
        }
        if (!acquire_output(out, port)) return;  // blocked: destination busy
        p.slack->pop();
        p.state = InState::kConnected;
        p.out_port = out;
        p.crc_in.reset();
        p.crc_in.update(head);
        p.crc_out.reset();
        p.held.reset();
        batch_out = out;
        arm_long_timeout(port);
        break;
      }
      case InState::kConnected: {
        if (!output_ready(p.out_port, port, batch.size())) {
          flush();
          return;  // blocked: STOP from downstream or wire backlog
        }
        batch_out = p.out_port;
        if (!front->control) {
          const std::uint8_t b = front->data;
          p.slack->pop();
          if (p.held) {
            batch.push_back(link::data_symbol(*p.held));
            p.crc_in.update(*p.held);
            p.crc_out.update(*p.held);
          }
          p.held = b;
          break;
        }
        const auto decoded = decode_control(front->data);
        p.slack->pop();
        if (decoded == ControlSymbol::kGap) {
          // End of packet: the held byte is the incoming CRC; rewrite it
          // syndrome-preservingly for the shortened packet.
          if (p.held) {
            batch.push_back(link::data_symbol(
                patch_crc(*p.held, p.crc_in.value(), p.crc_out.value())));
          }
          batch.push_back(to_symbol(ControlSymbol::kGap));
          ++p.stats.packets_routed;
          flush();
          close_connection(p);
          batch_out = Port::kFree;
        }
        // IDLE / undecodable inside a packet: transparent, not forwarded.
        break;
      }
      case InState::kConsuming: {
        const bool is_gap =
            front->control &&
            decode_control(front->data) == ControlSymbol::kGap;
        p.slack->pop();
        if (is_gap) {
          ++p.stats.packets_consumed;
          p.state = InState::kIdle;
        }
        break;
      }
    }
  }
  flush();
}

Switch::State Switch::capture_state() const {
  State state;
  state.ports.reserve(ports_.size());
  for (const auto& p : ports_) {
    state.ports.push_back(
        {p->slack->capture_state(), p->gate->capture_state(), *p});
  }
  return state;
}

void Switch::restore_state(const State& state) {
  assert(state.ports.size() == ports_.size());
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    Port& p = *ports_[i];
    p.slack->restore_state(state.ports[i].slack);
    p.gate->restore_state(state.ports[i].gate);
    static_cast<PortFields&>(p) = state.ports[i].fields;
  }
}

}  // namespace hsfi::myrinet
