#include "myrinet/mcp.hpp"

#include <algorithm>
#include <utility>

namespace hsfi::myrinet {

std::vector<std::uint8_t> make_scout_payload(McpAddress mapper,
                                             std::uint8_t mapper_port) {
  std::vector<std::uint8_t> p;
  p.push_back(static_cast<std::uint8_t>(MappingOp::kScout));
  put_u64(p, mapper);
  p.push_back(mapper_port);
  return p;
}

std::vector<std::uint8_t> make_reply_payload(McpAddress replier,
                                             const EthAddr& eth,
                                             std::uint8_t replier_port) {
  std::vector<std::uint8_t> p;
  p.push_back(static_cast<std::uint8_t>(MappingOp::kReply));
  put_u64(p, replier);
  put_eth(p, eth);
  p.push_back(replier_port);
  return p;
}

std::vector<std::uint8_t> make_announce_payload(McpAddress mapper,
                                                const NetworkMap& map) {
  std::vector<std::uint8_t> p;
  p.push_back(static_cast<std::uint8_t>(MappingOp::kAnnounce));
  put_u64(p, mapper);
  p.push_back(static_cast<std::uint8_t>(map.size()));
  for (const auto& e : map) {
    p.push_back(e.port);
    put_u64(p, e.mcp);
    put_eth(p, e.eth);
  }
  return p;
}

Mcp::Mcp(sim::Simulator& simulator, HostInterface& nic, Config config)
    : simulator_(simulator),
      nic_(nic),
      config_(config) {
  reseed(config_.seed);
}

void Mcp::start(sim::Duration phase) {
  simulator_.schedule_in(phase, [this] { begin_round(); });
}

bool Mcp::acting_controller() const noexcept {
  return simulator_.now() >= state_.suppressed_until;
}

void Mcp::begin_round() {
  // Always reschedule the next period first so mapping survives any path
  // through this round.
  simulator_.schedule_in(config_.map_period, [this] { begin_round(); });

  if (!acting_controller() || state_.round_open) return;
  ++state_.stats.rounds_initiated;
  simulator_.observe(simulator_.now(), sim::Observed::kMappingRoundBegun,
                     "mcp", config_.switch_port,
                     state_.stats.rounds_initiated);
  state_.round_open = true;
  state_.duplicate_controller_seen = false;
  state_.collected.clear();
  state_.collected.push_back(
      MapEntry{config_.switch_port, config_.address, config_.eth});

  for (std::size_t port = 0; port < config_.switch_ports; ++port) {
    if (port == config_.switch_port) continue;
    send_mapping(static_cast<std::uint8_t>(port),
                 make_scout_payload(config_.address, config_.switch_port));
  }
  simulator_.schedule_in(config_.reply_window, [this] { finish_round(); });
}

void Mcp::finish_round() {
  if (!state_.round_open) return;
  state_.round_open = false;

  // A higher address surfaced mid-round: defer to it.
  const bool higher_seen = std::any_of(
      state_.collected.begin(), state_.collected.end(),
      [this](const MapEntry& e) { return e.mcp > config_.address; });
  if (higher_seen) {
    state_.suppressed_until = simulator_.now() + config_.suppress_period;
    return;
  }

  NetworkMap map = state_.collected;
  if (state_.duplicate_controller_seen) {
    // "The controller is confused by the appearance of what it believes is
    // another controller, and is unable to generate a consistent map. Each
    // attempt to resolve the network fails in an apparently random fashion."
    ++state_.stats.confused_rounds;
    map = damaged_map(state_.collected);
    simulator_.observe(simulator_.now(), sim::Observed::kMappingConfused,
                       "mcp", config_.switch_port, map.size());
  }
  std::sort(map.begin(), map.end(),
            [](const MapEntry& a, const MapEntry& b) { return a.port < b.port; });

  ++state_.stats.maps_announced;
  const auto payload = make_announce_payload(config_.address, map);
  for (std::size_t port = 0; port < config_.switch_ports; ++port) {
    if (port == config_.switch_port) continue;
    send_mapping(static_cast<std::uint8_t>(port), payload);
  }
  install_map(std::move(map));
}

void Mcp::on_mapping_frame(const Delivered& frame, sim::SimTime when) {
  (void)when;
  if (frame.payload.empty()) return;
  switch (static_cast<MappingOp>(frame.payload[0])) {
    case MappingOp::kScout: handle_scout(frame); break;
    case MappingOp::kReply: handle_reply(frame); break;
    case MappingOp::kAnnounce: handle_announce(frame); break;
    default: break;  // unrecognized mapping op: dropped like a reserved type
  }
}

void Mcp::handle_scout(const Delivered& frame) {
  if (frame.payload.size() < 10) return;
  const McpAddress mapper = get_u64(frame.payload, 1);
  const std::uint8_t mapper_port = frame.payload[9];
  if (mapper > config_.address) {
    state_.suppressed_until = simulator_.now() + config_.suppress_period;
  }
  ++state_.stats.scouts_answered;
  send_mapping(mapper_port, make_reply_payload(config_.address, config_.eth,
                                               config_.switch_port));
}

void Mcp::handle_reply(const Delivered& frame) {
  if (frame.payload.size() < 16) return;
  if (!state_.round_open) {
    ++state_.stats.replies_late;
    return;
  }
  ++state_.stats.replies_collected;
  MapEntry entry;
  entry.mcp = get_u64(frame.payload, 1);
  entry.eth = get_eth(frame.payload, 9);
  entry.port = frame.payload[15];
  if (entry.mcp == config_.address) state_.duplicate_controller_seen = true;
  // One entry per port: a later reply from the same port replaces.
  const auto it = std::find_if(
      state_.collected.begin(), state_.collected.end(),
      [&entry](const MapEntry& e) { return e.port == entry.port; });
  if (it != state_.collected.end()) {
    *it = entry;
  } else {
    state_.collected.push_back(entry);
  }
}

void Mcp::handle_announce(const Delivered& frame) {
  if (frame.payload.size() < 10) return;
  const McpAddress mapper = get_u64(frame.payload, 1);
  if (mapper > config_.address) {
    state_.suppressed_until = simulator_.now() + config_.suppress_period;
  }
  const std::size_t count = frame.payload[9];
  if (frame.payload.size() < 10 + count * 15) return;
  NetworkMap map;
  map.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t off = 10 + i * 15;
    MapEntry e;
    e.port = frame.payload[off];
    e.mcp = get_u64(frame.payload, off + 1);
    e.eth = get_eth(frame.payload, off + 9);
    map.push_back(e);
  }
  ++state_.stats.maps_installed;
  install_map(std::move(map));
}

void Mcp::install_map(NetworkMap map) {
  std::sort(map.begin(), map.end(),
            [](const MapEntry& a, const MapEntry& b) { return a.port < b.port; });
  simulator_.observe(simulator_.now(), sim::Observed::kMapInstalled, "mcp",
                     config_.switch_port, map.size());
  state_.map = std::move(map);
  state_.last_install = simulator_.now();
}

std::optional<std::vector<std::uint8_t>> Mcp::resolve_route(
    const EthAddr& dest) const {
  const auto it = std::find_if(state_.map.begin(), state_.map.end(),
                               [&dest](const MapEntry& e) { return e.eth == dest; });
  if (it == state_.map.end()) return std::nullopt;
  return resolve_route_port(it->port);
}

std::optional<std::vector<std::uint8_t>> Mcp::resolve_route_port(
    std::uint8_t port) const {
  // Single-switch topology: one hop, delivered to a host.
  return std::vector<std::uint8_t>{route_to_host(port)};
}

void Mcp::send_mapping(std::uint8_t dest_port,
                       std::vector<std::uint8_t> payload) {
  Packet p;
  p.route = {route_to_host(dest_port)};
  p.marker = 0x00;
  p.type = kTypeMapping;
  p.payload = std::move(payload);
  nic_.send(p);
}

NetworkMap Mcp::damaged_map(const NetworkMap& collected) {
  // Each confused attempt damages the map differently: entries vanish or get
  // routed to wrong ports, never settling ("the faulty map was not static").
  NetworkMap out;
  for (const auto& e : collected) {
    const std::uint32_t die = state_.rng.below(3);
    if (die == 0) continue;  // node dropped from the map
    MapEntry d = e;
    if (die == 1) {
      d.port = static_cast<std::uint8_t>(
          state_.rng.below(static_cast<std::uint32_t>(config_.switch_ports)));
    }
    out.push_back(d);
  }
  return out;
}

}  // namespace hsfi::myrinet
