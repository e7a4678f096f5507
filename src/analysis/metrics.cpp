#include "analysis/metrics.hpp"

#include <algorithm>
#include <utility>

namespace hsfi::analysis {

namespace {

std::vector<sim::Duration> default_bounds() {
  return {sim::microseconds(1),    sim::microseconds(10),
          sim::microseconds(100),  sim::milliseconds(1),
          sim::milliseconds(10),   sim::milliseconds(100)};
}

}  // namespace

Histogram::Histogram() : Histogram(default_bounds()) {}

Histogram::Histogram(std::vector<sim::Duration> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1, 0) {}

void Histogram::add(sim::Duration value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  sum_ += value;
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0 || other.bounds_ != bounds_) return;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (count_ == 0 || other.max_ > max_) max_ = other.max_;
  sum_ += other.sum_;
  count_ += other.count_;
}

std::string Histogram::render() const {
  std::string out;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    out += "  ";
    out += i < bounds_.size() ? "<= " + sim::format_time(bounds_[i])
                              : "> " + sim::format_time(bounds_.back());
    out += ": ";
    out += std::to_string(buckets_[i]);
    out += '\n';
  }
  if (count_ == 0) out = "  (empty)\n";
  return out;
}

void Histogram::clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = min_ = max_ = 0;
}

}  // namespace hsfi::analysis
