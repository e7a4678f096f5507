#include "fc/fabric.hpp"

#include <utility>

namespace hsfi::fc {

FcFabric::FcFabric(sim::Simulator& simulator, std::string name, Config config)
    : simulator_(simulator), name_(std::move(name)) {
  ports_.reserve(config.num_ports);
  for (std::size_t i = 0; i < config.num_ports; ++i) {
    auto port = std::make_unique<FcPort>(
        simulator_, name_ + ".p" + std::to_string(i), config.port);
    port->on_frame([this](FcFrame frame, sim::SimTime when) {
      forward(std::move(frame), when);
    });
    ports_.push_back(std::move(port));
  }
}

void FcFabric::attach_port(std::size_t port, link::Channel& rx,
                           link::Channel& tx) {
  ports_.at(port)->attach(rx, tx);
}

void FcFabric::set_route(std::uint8_t domain, std::size_t port) {
  routes_[domain] = port;
}

void FcFabric::reset_for_campaign() {
  stats_ = Stats{};
  for (auto& p : ports_) p->reset_for_campaign();
}

void FcFabric::forward(FcFrame frame, sim::SimTime when) {
  const auto domain = static_cast<std::uint8_t>(frame.header.d_id >> 16);
  const auto it = routes_.find(domain);
  if (it == routes_.end() || it->second >= ports_.size()) {
    ++stats_.frames_discarded;  // class 3: silently discarded
    simulator_.observe(when, sim::Observed::kFcDiscard, name_, 0,
                       frame.header.d_id);
    return;
  }
  ++stats_.frames_forwarded;
  // send() applies the egress link's own BB credit; a full queue there
  // counts as that port's tx_queue_drop.
  ports_[it->second]->send(std::move(frame));
}

}  // namespace hsfi::fc
