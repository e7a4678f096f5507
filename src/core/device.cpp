#include "core/device.hpp"

#include <utility>
#include <vector>

namespace hsfi::core {

std::string_view to_string(Direction d) noexcept {
  switch (d) {
    case Direction::kLeftToRight: return "L>R";
    case Direction::kRightToLeft: return "R>L";
  }
  return "?";
}

/// One direction of the device: receives bursts on the ingress segment,
/// clocks them through the FIFO injector and (optionally) the CRC
/// repatcher, and retransmits on the egress segment. A drain timer plays
/// the role of the free-running FPGA clock so residual characters (packet
/// tails) leave the FIFO when the wire goes idle.
struct InjectorDevice::Pipeline final : link::SymbolSink {
  sim::Simulator* simulator = nullptr;
  sim::Duration character_period = 0;
  link::Channel* out = nullptr;
  /// This direction's entry in the device's State.
  State::PipeState& st;
  /// Firings are observed as (device name, direction).
  std::string_view where;
  std::uint32_t unit = 0;
  /// Egress staging buffer, reused across bursts/drain ticks so the
  /// steady-state forwarding path allocates nothing per burst.
  std::vector<link::Symbol> scratch;
  /// clock_burst() output, reused across bursts for the same reason.
  FifoInjector::BatchResult batch;

  explicit Pipeline(State::PipeState& state) : st(state) {}

  void cancel_drain() {
    if (st.drain_event != sim::kInvalidEventId) {
      simulator->cancel(st.drain_event);
      st.drain_event = sim::kInvalidEventId;
    }
  }

  void schedule_drain() {
    if (st.drain_event != sim::kInvalidEventId || !st.fifo.pending_payload()) {
      return;
    }
    st.drain_event = simulator->schedule_in(character_period, [this] {
      st.drain_event = sim::kInvalidEventId;
      scratch.clear();
      emit(st.fifo.clock(std::nullopt), simulator->now(), scratch);
      transmit(scratch);
      schedule_drain();
    });
  }

  void emit(const FifoInjector::Result& r, sim::SimTime when,
            std::vector<link::Symbol>& outs) {
    if (r.injected) {
      st.capture.trigger(when);
      fired(when);
    }
    if (!r.out) return;
    // IDLE characters (the free-running clock's filler) are never placed on
    // the egress channel: our channels model idle wire time implicitly, so
    // transmitting them would consume serialization capacity that the real
    // wire's idles do not (they ARE the idle capacity).
    if (is_idle_character(*r.out)) return;
    st.repatch.feed_into(*r.out, st.fifo.config().crc_repatch, outs);
  }

  void fired(sim::SimTime when) {
    simulator->observe(when, sim::Observed::kInjectorFired, where, unit);
  }

  void transmit(const std::vector<link::Symbol>& outs) {
    if (out != nullptr && !outs.empty()) out->transmit(outs);
  }

  void on_burst(const link::Burst& burst) override {
    cancel_drain();
    scratch.clear();
    scratch.reserve(burst.symbols.size());

    // Batched path: one clock_burst() call runs the whole odd/even pipeline,
    // then the taps replay against it. Per-character semantics (pinned by
    // the clock_burst property test and the golden digests):
    //   - capture/stats feed the *input* symbol stream, which the injector
    //     never mutates (corruption happens to the FIFO-resident copies);
    //   - a trigger at fire index f lands after the capture feed of
    //     symbol f, with the exact arrival timestamp burst.arrival(f);
    //   - the egress stream is the popped characters in order, minus the
    //     IDLE filler, through the CRC repatcher when it is active.
    st.fifo.clock_burst(burst.symbols, batch);
    st.stats.feed_burst(burst);

    const std::span<const link::Symbol> in(burst.symbols);
    if (batch.fires.empty()) {
      st.capture.feed_run(in);
    } else {
      std::size_t prev = 0;
      for (const std::uint32_t f : batch.fires) {
        st.capture.feed_run(in.subspan(prev, f + 1 - prev));
        const auto when = burst.arrival(f);
        st.capture.trigger(when);
        fired(when);
        prev = f + 1;
      }
      st.capture.feed_run(in.subspan(prev));
    }

    if (!st.fifo.config().crc_repatch && !st.repatch.has_held()) {
      // Repatch stage is stateless-transparent: strip IDLE filler directly.
      for (const auto s : batch.out) {
        if (!is_idle_character(s)) scratch.push_back(s);
      }
    } else {
      for (const auto s : batch.out) {
        if (is_idle_character(s)) continue;
        st.repatch.feed_into(s, st.fifo.config().crc_repatch, scratch);
      }
    }

    transmit(scratch);
    schedule_drain();
  }
};

InjectorDevice::InjectorDevice(sim::Simulator& simulator, std::string name,
                               Config config)
    : simulator_(simulator), name_(std::move(name)), config_(config) {
  for (std::size_t i = 0; i < pipes_.size(); ++i) {
    state_.pipes[i].fifo = FifoInjector(config_.fifo);
    state_.pipes[i].capture = CaptureBuffer(config_.capture);
    pipes_[i] = std::make_unique<Pipeline>(state_.pipes[i]);
    pipes_[i]->simulator = &simulator_;
    pipes_[i]->character_period = config_.character_period;
    pipes_[i]->where = name_;
    pipes_[i]->unit = static_cast<std::uint32_t>(i);
  }
}

InjectorDevice::~InjectorDevice() = default;

void InjectorDevice::attach_left(link::Channel& rx, link::Channel& tx) {
  rx.attach(*pipes_[index(Direction::kLeftToRight)]);
  pipes_[index(Direction::kRightToLeft)]->out = &tx;
}

void InjectorDevice::attach_right(link::Channel& rx, link::Channel& tx) {
  rx.attach(*pipes_[index(Direction::kRightToLeft)]);
  pipes_[index(Direction::kLeftToRight)]->out = &tx;
}

void InjectorDevice::apply(Direction d, const InjectorConfig& config) {
  auto& fifo = state_.pipes[index(d)].fifo;
  fifo.config() = config;
  fifo.rearm();
  simulator_.observe(simulator_.now(), sim::Observed::kInjectorApplied, name_,
                     static_cast<std::uint32_t>(index(d)));
}

const InjectorConfig& InjectorDevice::config(Direction d) const {
  return state_.pipes[index(d)].fifo.config();
}

void InjectorDevice::inject_now(Direction d) {
  state_.pipes[index(d)].fifo.inject_now();
}

void InjectorDevice::rearm(Direction d) { state_.pipes[index(d)].fifo.rearm(); }

const FifoInjector::Stats& InjectorDevice::fifo_stats(Direction d) const {
  return state_.pipes[index(d)].fifo.stats();
}

const CaptureBuffer& InjectorDevice::capture(Direction d) const {
  return state_.pipes[index(d)].capture;
}

const StreamStats& InjectorDevice::stream_stats(Direction d) const {
  return state_.pipes[index(d)].stats;
}

std::uint64_t InjectorDevice::frames_crc_patched(Direction d) const {
  return state_.pipes[index(d)].repatch.frames_patched();
}

void InjectorDevice::clear_stats() {
  for (auto& pipe : state_.pipes) {
    pipe.fifo.clear_stats();
    pipe.stats.clear();
    pipe.capture.clear();
  }
}

}  // namespace hsfi::core
