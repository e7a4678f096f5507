#include "link/channel.hpp"

#include <algorithm>
#include <utility>

namespace hsfi::link {

Channel::Channel(sim::Simulator& simulator, std::string name,
                 sim::Duration character_period,
                 sim::Duration propagation_delay)
    : simulator_(simulator),
      name_(std::move(name)),
      character_period_(character_period),
      propagation_delay_(propagation_delay) {}

sim::SimTime Channel::transmit(std::span<const Symbol> symbols) {
  if (symbols.empty()) return simulator_.now();
  const sim::SimTime start = std::max(state_.tx_free_at, simulator_.now());
  const auto n = static_cast<sim::Duration>(symbols.size());
  state_.tx_free_at = start + character_period_ * n;
  state_.symbols_sent += symbols.size();

  if (!state_.connected) {
    state_.symbols_lost += symbols.size();
    return state_.tx_free_at;
  }
  if (sink_ == nullptr) return state_.tx_free_at;

  std::vector<Symbol> buffer = pool_.acquire();
  buffer.assign(symbols.begin(), symbols.end());

  // Deliver when the *first* symbol's trailing edge arrives; the sink uses
  // Burst::arrival() for per-symbol times within the burst. The closure owns
  // the symbol payload by value (snapshots deep-copy pending actions, so a
  // forked run replays the delivery from its own copy); the capture stays
  // small enough for the Action's inline buffer. The symbol buffer goes
  // back on the freelist as soon as on_burst returns (see the Burst
  // lifetime contract in channel.hpp).
  SymbolSink* sink = sink_;
  const sim::SimTime arrive = start + propagation_delay_;
  simulator_.schedule_at(
      arrive + character_period_,
      [this, sink, arrive, buf = std::move(buffer)]() mutable {
        deliver(sink, arrive, std::move(buf));
      });
  return state_.tx_free_at;
}

void Channel::deliver(SymbolSink* sink, sim::SimTime start,
                      std::vector<Symbol>&& symbols) {
  Burst burst;
  burst.start = start;
  burst.period = character_period_;
  burst.symbols = std::move(symbols);
  sink->on_burst(burst);
  pool_.release(std::move(burst.symbols));
}

}  // namespace hsfi::link
