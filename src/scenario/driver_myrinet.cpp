#include "scenario/driver_myrinet.hpp"

#include <algorithm>
#include <utility>

#include "myrinet/control.hpp"
#include "myrinet/crc8.hpp"
#include "myrinet/packet.hpp"

namespace hsfi::scenario {

namespace {

/// Phantom mapper address: higher than any real MCP, so every node treats
/// the forged announce as coming from the rightful controller and
/// suppresses its own mapping rounds (the election rule turned weapon).
constexpr myrinet::McpAddress kPhantomMapper = ~myrinet::McpAddress{0};

/// Truncation keeps route + marker + type + a few payload bytes so the
/// shortened frame still parses as a data packet at the destination — the
/// loss shows up at the UDP layer (bad length/checksum), not the wire.
constexpr std::size_t kMinTruncatedBody = 8;

}  // namespace

struct MyrinetScenarioDriver::State {
  sim::Simulator* simulator = nullptr;
  myrinet::Switch* network_switch = nullptr;
  std::vector<MyrinetNodeHooks> nodes;
  bool armed = false;
  std::uint64_t fired = 0;
  /// Outstanding truncations per node, consumed by the tx mutators.
  std::vector<std::uint64_t> truncate_pending;

  /// Static so scheduled events hold only the shared state block, never the
  /// (destructible) driver.
  static void fire(const std::shared_ptr<State>& st, const Step& step);
};

void MyrinetScenarioDriver::State::fire(const std::shared_ptr<State>& st,
                                        const Step& step) {
  if (!st->armed || st->nodes.empty()) return;
  const auto node = static_cast<std::size_t>(step.node) % st->nodes.size();
  switch (step.kind) {
    case StepKind::kForgedAnnounce:
    case StepKind::kStaleAnnounce: {
      myrinet::NetworkMap map = st->nodes[node].mcp->network_map();
      if (step.kind == StepKind::kForgedAnnounce) {
        // Rotate the physical addresses across the ports: every route the
        // victims derive from this map delivers to the wrong host.
        if (map.size() >= 2) {
          for (std::size_t i = 0; i + 1 < map.size(); ++i) {
            std::swap(map[i].eth, map[i + 1].eth);
          }
        }
      } else {
        // Drop `count` entries: the removed nodes silently vanish from the
        // network ("removed... until the next mapping packet", §4.3.2) —
        // except the phantom's suppression delays that next packet.
        const auto cut = std::min<std::size_t>(
            step.count == 0 ? 1 : step.count, map.size());
        const auto first = map.size() > cut ? node % (map.size() - cut) : 0;
        map.erase(map.begin() + static_cast<std::ptrdiff_t>(first),
                  map.begin() + static_cast<std::ptrdiff_t>(first + cut));
      }
      myrinet::Delivered announce;
      announce.status = myrinet::DeliveryStatus::kOk;
      announce.type = myrinet::kTypeMapping;
      announce.payload = myrinet::make_announce_payload(kPhantomMapper, map);
      const auto when = st->simulator->now();
      for (const auto& hooks : st->nodes) {
        hooks.mcp->on_mapping_frame(announce, when);
      }
      break;
    }
    case StepKind::kLyingGo:
      st->network_switch->inject_flow(node, myrinet::ControlSymbol::kGo);
      break;
    case StepKind::kLyingStop:
      st->network_switch->inject_flow(node, myrinet::ControlSymbol::kStop);
      break;
    case StepKind::kTruncateFrames:
      st->truncate_pending[node] += step.count == 0 ? 1 : step.count;
      break;
    default:
      return;  // FC step in a Myrinet scenario: validated away upstream
  }
  ++st->fired;
  st->simulator->observe(st->simulator->now(), sim::Observed::kScenarioStep,
                         "scenario", static_cast<std::uint32_t>(node));
}

MyrinetScenarioDriver::MyrinetScenarioDriver(
    sim::Simulator& simulator, myrinet::Switch& network_switch,
    std::vector<MyrinetNodeHooks> nodes)
    : state_(std::make_shared<State>()) {
  state_->simulator = &simulator;
  state_->network_switch = &network_switch;
  state_->nodes = std::move(nodes);
  state_->truncate_pending.assign(state_->nodes.size(), 0);
}

MyrinetScenarioDriver::~MyrinetScenarioDriver() { disarm(); }

void MyrinetScenarioDriver::arm(const ScenarioSpec& spec, std::uint64_t seed) {
  (void)seed;
  disarm();
  state_->armed = true;
  state_->fired = 0;
  std::fill(state_->truncate_pending.begin(), state_->truncate_pending.end(),
            std::uint64_t{0});

  // Tx mutators go in at arm time — even for a step-free scenario the hook
  // indirection is installed, which is exactly what the scenario_overhead
  // bench A/Bs against a bare run.
  for (std::size_t i = 0; i < state_->nodes.size(); ++i) {
    state_->nodes[i].nic->set_tx_mutator(
        [st = state_, i](std::vector<std::uint8_t> bytes) {
          if (!st->armed || st->truncate_pending[i] == 0 ||
              bytes.size() <= kMinTruncatedBody + 1) {
            return bytes;
          }
          --st->truncate_pending[i];
          bytes.pop_back();  // trailing CRC-8
          const std::size_t cut =
              std::min(bytes.size() - kMinTruncatedBody, bytes.size() / 2);
          bytes.resize(bytes.size() - cut);
          bytes.push_back(myrinet::crc8(bytes));  // repatch: valid again
          return bytes;
        });
  }

  for (const auto& step : spec.steps) {
    if (medium_of(step.kind) != Medium::kMyrinet) continue;
    state_->simulator->schedule_in(
        step.at, [st = state_, step] { State::fire(st, step); });
  }
}

void MyrinetScenarioDriver::disarm() {
  if (!state_->armed) return;
  state_->armed = false;
  for (auto& hooks : state_->nodes) hooks.nic->set_tx_mutator(nullptr);
}

std::uint64_t MyrinetScenarioDriver::fired() const noexcept {
  return state_->fired;
}

}  // namespace hsfi::scenario
