#include "nftape/fc_fabric.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "sim/rng.hpp"

namespace hsfi::nftape {

namespace {

using analysis::Manifestation;

/// FC outcome classes mapped into the shared 8-class taxonomy (the DESIGN
/// §9 table): the CRC-32 drop is the CRC-8 drop's twin, a mangled ordered
/// set is delimiter damage (the marker analogue), credit exhaustion stalls
/// the sender the way the paper's STOP-symbol faults throttle Myrinet
/// (timeout class), and a class-3 no-route discard is a misroute.
Manifestation classify(fc::FcPort::Event e) {
  switch (e) {
    case fc::FcPort::Event::kCrcError:
      return Manifestation::kCrcDropped;
    case fc::FcPort::Event::kMalformedSet:
      return Manifestation::kMarkerError;
    case fc::FcPort::Event::kRxOverflow:
    case fc::FcPort::Event::kStrayData:
      return Manifestation::kDroppedOther;
    case fc::FcPort::Event::kCreditStall:
      return Manifestation::kTimeout;
  }
  return Manifestation::kDroppedOther;
}

}  // namespace

/// The "SCSI-like" message program: each tick submits `burst_size`
/// payloads, each split by SequenceBuilder into SOFi3...EOFt multi-frame
/// sequences with cycling SEQ_ID/OX_ID, paced and jittered exactly like
/// host::UdpFlood so the Knob axes (udp-us, burst) mean the same thing on
/// either medium.
class FcFabric::SequenceFlood {
 public:
  struct Config {
    std::uint32_t s_id = 0;
    std::uint32_t d_id = 0;
    std::size_t payload_size = 64;
    std::uint8_t fill = 0x5A;
    std::size_t chunk = 128;
    sim::Duration interval = sim::microseconds(100);
    std::size_t burst_size = 1;
    double jitter = 0.0;
    std::uint64_t seed = 1;
    std::uint32_t stream = 0;
  };

  SequenceFlood(sim::Simulator& simulator, fc::FcPort& port, Config config)
      : simulator_(simulator),
        port_(port),
        config_(config),
        rng_(config.seed, config.stream) {}

  ~SequenceFlood() {
    if (event_ != sim::kInvalidEventId) simulator_.cancel(event_);
  }

  SequenceFlood(const SequenceFlood&) = delete;
  SequenceFlood& operator=(const SequenceFlood&) = delete;

  void start() {
    if (running_) return;
    running_ = true;
    tick();
  }

  void stop() {
    running_ = false;
    if (event_ != sim::kInvalidEventId) {
      simulator_.cancel(event_);
      event_ = sim::kInvalidEventId;
    }
  }

  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }

 private:
  void tick() {
    event_ = sim::kInvalidEventId;
    if (!running_) return;
    const std::size_t burst = config_.burst_size == 0 ? 1 : config_.burst_size;
    for (std::size_t i = 0; i < burst; ++i) {
      fc::FcHeader h;
      h.d_id = config_.d_id;
      h.s_id = config_.s_id;
      h.seq_id = static_cast<std::uint8_t>(sent_ & 0xFF);
      h.ox_id = static_cast<std::uint16_t>(sent_ & 0xFFFF);
      auto frames = fc::SequenceBuilder::build(
          h, std::vector<std::uint8_t>(config_.payload_size, config_.fill),
          config_.chunk);
      // A full transmit queue drops the frame (counted by the port); the
      // receiver's reassembler then aborts the sequence — class 3 has no
      // retransmission.
      for (auto& f : frames) port_.send(std::move(f));
      ++sent_;
    }
    sim::Duration wait = config_.interval * static_cast<sim::Duration>(burst);
    if (config_.jitter > 0.0) {
      const double span = config_.jitter * static_cast<double>(wait);
      wait += static_cast<sim::Duration>((rng_.uniform() - 0.5) * span);
      if (wait < 1) wait = 1;
    }
    event_ = simulator_.schedule_in(wait, [this] { tick(); });
  }

  sim::Simulator& simulator_;
  fc::FcPort& port_;
  Config config_;
  bool running_ = false;
  std::uint64_t sent_ = 0;
  sim::EventId event_ = sim::kInvalidEventId;
  sim::Rng rng_;
};

FcFabric::FcFabric(TestbedConfig config)
    : config_([&config] {
        config.injector_config.character_period = config.fc.character_period;
        return config;
      }()),
      board_(sim_, config_, config_.fc.character_period, "fcable") {
  fc::FcPort::Config pc;
  pc.bb_credit = config_.fc.bb_credit;
  pc.rx_buffers = config_.fc.rx_buffers;
  pc.character_period = config_.fc.character_period;
  pc.rx_processing_time = config_.fc.rx_processing_time;
  pc.credit_recovery_timeout = config_.fc.credit_recovery_timeout;

  fc::FcFabric::Config ec;
  ec.num_ports = std::max<std::size_t>(config_.nodes, 8);
  ec.port = pc;
  element_ = std::make_unique<fc::FcFabric>(sim_, "fe0", ec);

  for (std::size_t i = 0; i < config_.nodes; ++i) {
    auto node = std::make_unique<Node>();
    const auto ends = board_.ends(i);
    fc::FcPort::Config npc = pc;
    npc.port_id = port_id_of(i);
    node->port =
        std::make_unique<fc::FcPort>(sim_, "np" + std::to_string(i), npc);
    node->port->attach(ends.node_rx, ends.node_tx);
    element_->attach_port(i, ends.element_rx, ends.element_tx);
    element_->set_route(static_cast<std::uint8_t>(i + 1), i);
    nodes_.push_back(std::move(node));
  }
}

FcFabric::~FcFabric() = default;

fc::FcPort& FcFabric::node_port(std::size_t i) { return *nodes_.at(i)->port; }

void FcFabric::start() {
  // Nothing to boot: FC has no mapping protocol in this model, and the
  // N_Ports hold their BB credit from construction (fabric login is
  // assumed done — the paper's campaigns start from an operational link).
}

void FcFabric::settle(sim::Duration span) {
  sim_.run_until(sim_.now() + span);
}

void FcFabric::reset_to_known_good(std::uint64_t seed) {
  // The workload RNG streams are derived from the seed at start_workload
  // time and the ports hold no stochastic state, so the reset is exactly
  // the restoration of flow control and statistics.
  (void)seed;
  for (auto& node : nodes_) {
    node->port->reset_for_campaign();
    node->delivered = 0;
  }
  element_->reset_for_campaign();
  board_.clear_stats();
}

void FcFabric::attach_monitors(analysis::ManifestationAnalyzer& analyzer) {
  analyzer_ = &analyzer;
  board_.report_injections(&analyzer);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto src = static_cast<std::uint32_t>(i);
    nodes_[i]->port->on_event(
        [&analyzer, src](fc::FcPort::Event e, sim::SimTime when) {
          analyzer.record_observation(when, classify(e), src);
        });
  }
  for (std::size_t p = 0; p < element_->num_ports(); ++p) {
    const auto src = 200 + static_cast<std::uint32_t>(p);
    element_->port(p).on_event(
        [&analyzer, src](fc::FcPort::Event e, sim::SimTime when) {
          analyzer.record_observation(when, classify(e), src);
        });
  }
  element_->on_discard([&analyzer](const fc::FcFrame&, sim::SimTime when) {
    analyzer.record_observation(when, Manifestation::kMisrouted, 300);
  });
}

void FcFabric::detach_monitors() {
  for (auto& node : nodes_) node->port->on_event(nullptr);
  for (std::size_t p = 0; p < element_->num_ports(); ++p) {
    element_->port(p).on_event(nullptr);
  }
  element_->on_discard(nullptr);
  board_.report_injections(nullptr);
  analyzer_ = nullptr;
}

void FcFabric::start_workload(const WorkloadSpec& workload, std::uint64_t seed,
                              analysis::ManifestationAnalyzer& analyzer) {
  workload_ = workload;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = *nodes_[i];
    node.delivered = 0;
    // A reassembled sequence cleared CRC-32 and in-order SEQ_CNT; a
    // payload_intact failure past that is corruption nothing noticed.
    const auto src = 400 + static_cast<std::uint32_t>(i);
    node.reassembler = std::make_unique<fc::SequenceReassembler>(
        [this, &node, &analyzer, src, workload](
            std::uint32_t, std::uint8_t, std::vector<std::uint8_t> payload) {
          ++node.delivered;
          if (!payload_intact(workload, payload)) {
            analyzer.record_observation(
                sim_.now(), Manifestation::kPayloadCorruptedDelivered, src);
          }
        });
    node.port->on_frame([this, i](fc::FcFrame frame, sim::SimTime when) {
      Node& n = *nodes_[i];
      const auto& st = n.reassembler->stats();
      const auto bad_before = st.sequences_aborted + st.frames_rejected;
      n.reassembler->feed(std::move(frame));
      // An abort or rejection here is a sequence-level loss event; when it
      // trails a CRC drop the analyzer files it as the cascade's secondary
      // effect, when the frame vanished silently it is the only observable.
      if (analyzer_ != nullptr &&
          st.sequences_aborted + st.frames_rejected > bad_before) {
        analyzer_->record_observation(when, Manifestation::kDroppedOther,
                                      100 + static_cast<std::uint32_t>(i));
      }
    });
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (std::size_t j = 0; j < nodes_.size(); ++j) {
      if (i == j) continue;
      if (!workload.all_to_all && !(i < 2 && j < 2)) continue;
      SequenceFlood::Config fcfg;
      fcfg.s_id = port_id_of(i);
      fcfg.d_id = port_id_of(j);
      fcfg.payload_size = workload.payload_size;
      fcfg.fill = workload.payload_fill;
      fcfg.chunk = config_.fc.frame_chunk;
      fcfg.interval = workload.udp_interval;
      fcfg.burst_size = workload.burst_size;
      fcfg.jitter = workload.jitter;
      fcfg.seed = sim::derive_seed(seed, 100 + i * 16 + j);
      fcfg.stream = static_cast<std::uint32_t>(3000 + i * 16 + j);
      floods_.push_back(std::make_unique<SequenceFlood>(
          sim_, *nodes_[i]->port, fcfg));
    }
  }
  for (auto& f : floods_) f->start();
}

void FcFabric::stop_workload() {
  for (auto& f : floods_) f->stop();
}

void FcFabric::clear_workload() {
  floods_.clear();
  for (auto& node : nodes_) {
    node->port->on_frame(nullptr);
    node->reassembler.reset();
  }
}

void FcFabric::arm_scenario(const scenario::ScenarioSpec& spec,
                            std::uint64_t seed,
                            analysis::ManifestationAnalyzer& analyzer) {
  std::vector<scenario::FcNodeHooks> hooks;
  hooks.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    hooks.push_back({nodes_[i]->port.get(), port_id_of(i)});
  }
  scenario::FcScenarioDriver::Params params;
  params.frame_chunk = config_.fc.frame_chunk;
  params.payload_size = workload_.payload_size;
  params.payload_fill = workload_.payload_fill;
  scenario_driver_ = std::make_unique<scenario::FcScenarioDriver>(
      sim_, std::move(hooks), params);
  scenario_driver_->arm(spec, seed, analyzer);
}

void FcFabric::disarm_scenario() {
  if (scenario_driver_) scenario_driver_->disarm();
}

FabricCounters FcFabric::snapshot() const {
  FabricCounters s;
  for (const auto& node : nodes_) {
    const auto& ps = node->port->stats();
    s.crc_errors += ps.crc_errors;
    s.marker_errors += ps.malformed_sets;
    s.ring_overflows += ps.rx_overflows;
    s.tx_drops += ps.tx_queue_drops;
    s.credit_stalls += ps.credit_stall_events;
    s.messages_received += node->delivered;
    if (node->reassembler) {
      s.sequences_aborted += node->reassembler->stats().sequences_aborted +
                             node->reassembler->stats().frames_rejected;
    }
  }
  for (std::size_t p = 0; p < element_->num_ports(); ++p) {
    const auto& ps = element_->port(p).stats();
    s.crc_errors += ps.crc_errors;
    s.marker_errors += ps.malformed_sets;
    s.ring_overflows += ps.rx_overflows;
    s.tx_drops += ps.tx_queue_drops;
    s.credit_stalls += ps.credit_stall_events;
  }
  s.unroutable += element_->stats().frames_discarded;
  for (const auto& f : floods_) s.messages_sent += f->sent();
  s.injections += board_.injections();
  if (scenario_driver_) {
    s.scenario_steps = scenario_driver_->fired();
    s.injections += s.scenario_steps;
  }
  return s;
}

sim::Duration FcFabric::recovery_time() const {
  // No mapping protocol to rerun: in-flight frames drain and BB credits
  // return within a handful of frame times at 1.0625 Gb/s.
  return sim::milliseconds(5);
}

namespace {
/// The FC fabric's snapshot payload. Workload state (floods, reassemblers,
/// delivered counts) is per-run: empty at the quiescent settle boundary
/// where snapshots are taken, and reset by reset_to_known_good.
struct FcSnapshot final : FabricSnapshot {
  sim::Simulator::Snapshot sim;
  fc::FcFabric::State element;
  std::vector<fc::FcPort::State> ports;
  InjectorBoard::State board;
};
}  // namespace

std::unique_ptr<FabricSnapshot> FcFabric::capture_snapshot() {
  auto snap = std::make_unique<FcSnapshot>();
  snap->sim = sim_.snapshot();
  snap->element = element_->capture_state();
  snap->ports.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    snap->ports.push_back(node->port->capture_state());
  }
  snap->board = board_.capture_state();
  return snap;
}

void FcFabric::restore_snapshot(const FabricSnapshot& base) {
  const auto& snap = static_cast<const FcSnapshot&>(base);
  sim_.restore(snap.sim);
  element_->restore_state(snap.element);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i]->port->restore_state(snap.ports.at(i));
  }
  board_.restore_state(snap.board);
}

std::unique_ptr<Fabric> make_fabric(Medium medium,
                                    const TestbedConfig& config) {
  switch (medium) {
    case Medium::kMyrinet:
      return std::make_unique<MyrinetFabric>(config);
    case Medium::kFc:
      return std::make_unique<FcFabric>(config);
  }
  return std::make_unique<MyrinetFabric>(config);
}

}  // namespace hsfi::nftape
