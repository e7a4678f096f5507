#include "host/node.hpp"

#include <algorithm>
#include <utility>

namespace hsfi::host {

Host::Host(sim::Simulator& simulator, myrinet::HostInterface& nic,
           Config config)
    : simulator_(simulator),
      nic_(nic),
      config_(config) {
  myrinet::Mcp::Config mc;
  mc.address = config_.mcp_address;
  mc.eth = config_.eth;
  mc.switch_port = config_.switch_port;
  mc.switch_ports = config_.switch_ports;
  mc.map_period = config_.map_period;
  mc.reply_window = config_.map_reply_window;
  mc.seed = config_.seed;
  mcp_ = std::make_unique<myrinet::Mcp>(simulator_, nic_, mc);
  reseed(config_.seed);

  nic_.on_deliver([this](myrinet::Delivered frame, sim::SimTime when) {
    on_deliver(std::move(frame), when);
  });
}

void Host::start(sim::Duration mapping_phase) { mcp_->start(mapping_phase); }

void Host::seed_peer(HostId id, const myrinet::EthAddr& eth) {
  fields_.peers[id] = eth;
}

std::optional<myrinet::EthAddr> Host::peer(HostId id) const {
  const auto it = fields_.peers.find(id);
  if (it == fields_.peers.end()) return std::nullopt;
  return it->second;
}

void Host::bind(std::uint16_t port, UdpHandler handler) {
  fields_.sockets[port] = std::move(handler);
}

void Host::enable_echo() {
  bind(kEchoPort, [this](HostId src, const UdpDatagram& request, sim::SimTime) {
    UdpDatagram reply;
    reply.src_port = kEchoPort;
    reply.dst_port = request.src_port;
    reply.payload = request.payload;
    ++fields_.stats.echo_replies;
    send_udp(src, std::move(reply));
  });
}

bool Host::send_udp(HostId dest, UdpDatagram dgram) {
  const auto dest_eth = peer(dest);
  if (!dest_eth) {
    ++fields_.stats.drop_unknown_peer;
    note_drop(sim::Observed::kHostUnknownPeer, simulator_.now());
    return false;
  }
  const auto route = mcp_->resolve_route(*dest_eth);
  if (!route) {
    ++fields_.stats.drop_unroutable;  // "removed from the network"
    note_drop(sim::Observed::kHostUnroutable, simulator_.now());
    return false;
  }

  DataFrame frame;
  frame.dst_eth = *dest_eth;
  frame.src_eth = config_.eth;
  frame.dst_id = dest;
  frame.src_id = config_.id;
  frame.proto = Proto::kUdp;
  frame.body = encode_udp(dgram);

  myrinet::Packet packet;
  packet.route = *route;
  packet.marker = 0x00;
  packet.type = myrinet::kTypeData;
  packet.payload = encode_frame(frame);

  ++fields_.stats.udp_sent;
  // The stack serializes datagram preparation: each send occupies the host
  // for send_stack_time before the NIC sees it.
  const sim::SimTime now = simulator_.now();
  const sim::SimTime start = std::max(fields_.stack_free_at, now);
  fields_.stack_free_at =
      start + config_.send_stack_time + fields_.boot_offset;
  simulator_.schedule_at(
      fields_.stack_free_at, [this, packet = std::move(packet)] {
        if (!nic_.send(packet)) ++fields_.stats.nic_refused;
      });
  return true;
}

void Host::on_deliver(myrinet::Delivered frame, sim::SimTime when) {
  if (frame.type == myrinet::kTypeMapping) {
    mcp_->on_mapping_frame(frame, when);
    return;
  }
  if (frame.type == myrinet::kTypeData) {
    on_data_frame(frame, when);
    return;
  }
  // "most packet types are reserved for relatively obscure protocols" — a
  // corrupted type falls here and is dropped without side effects.
  ++fields_.stats.drop_unknown_type;
  note_drop(sim::Observed::kHostUnknownType, when);
}

void Host::on_data_frame(const myrinet::Delivered& frame, sim::SimTime when) {
  const auto parsed = parse_frame(frame.payload);
  if (!parsed) {
    ++fields_.stats.drop_malformed;
    note_drop(sim::Observed::kHostMalformed, when);
    return;
  }
  if (parsed->dst_eth != config_.eth || parsed->dst_id != config_.id) {
    ++fields_.stats.drop_misaddressed;
    note_drop(sim::Observed::kHostMisaddressed, when);
    return;
  }
  // Address learning: remember where this peer claims to live. This is the
  // surface the sender-address-corruption campaign attacks.
  fields_.peers[parsed->src_id] = parsed->src_eth;

  if (parsed->proto != Proto::kUdp) {
    ++fields_.stats.drop_malformed;
    note_drop(sim::Observed::kHostMalformed, when);
    return;
  }
  const auto udp = decode_udp(parsed->body);
  if (udp.error) {
    switch (*udp.error) {
      case UdpParseError::kBadChecksum:
        ++fields_.stats.drop_bad_checksum;
        note_drop(sim::Observed::kHostBadChecksum, when);
        break;
      case UdpParseError::kBadLength:
        ++fields_.stats.drop_bad_length;
        note_drop(sim::Observed::kHostBadLength, when);
        break;
      case UdpParseError::kTooShort:
        ++fields_.stats.drop_malformed;
        note_drop(sim::Observed::kHostMalformed, when);
        break;
    }
    return;
  }
  const auto socket = fields_.sockets.find(udp.datagram->dst_port);
  if (socket == fields_.sockets.end()) {
    ++fields_.stats.drop_unbound_port;
    note_drop(sim::Observed::kHostUnboundPort, when);
    return;
  }
  ++fields_.stats.udp_delivered;
  socket->second(parsed->src_id, *udp.datagram, when);
}

}  // namespace hsfi::host
