#include "sim/simulator.hpp"

namespace hsfi::sim {

bool Simulator::step(SimTime until) {
  if (queue_.empty()) return false;
  if (queue_.next_time() > until) {
    now_ = until;
    return false;
  }
  auto fired = queue_.pop();
  now_ = fired.when;
  ++executed_;
  if (observer_) observer_(fired.when, executed_, fired.seq);
  fired.action();
  return true;
}

void Simulator::notify(const Observation& observation) {
  for (Observer* observer : observers_) observer->on_observation(observation);
}

std::uint64_t Simulator::run_until(SimTime until) {
  stop_requested_ = false;
  std::uint64_t n = 0;
  while (!stop_requested_ && step(until)) ++n;
  return n;
}

}  // namespace hsfi::sim
