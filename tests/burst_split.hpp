// Test helper: hands a symbol stream to a sink as consecutive bursts of
// chosen sizes, stamped the way a channel would deliver them, so split
// tests can compare one burst, one-symbol bursts and random splits.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "link/channel.hpp"
#include "sim/time.hpp"

namespace hsfi::testutil {

/// Cuts `stream` into consecutive bursts of the sizes `next_size()` returns
/// and passes each to `on_burst`. Burst starts follow the stream position,
/// so symbol j arrives at (j + 1) * period however the stream is split.
template <typename NextSize, typename OnBurst>
void split_into_bursts(const std::vector<link::Symbol>& stream,
                       sim::Duration period, NextSize next_size,
                       OnBurst on_burst) {
  std::size_t i = 0;
  while (i < stream.size()) {
    const std::size_t n = std::min<std::size_t>(next_size(), stream.size() - i);
    link::Burst burst;
    burst.start = period * static_cast<sim::Duration>(i);
    burst.period = period;
    burst.symbols.assign(stream.begin() + static_cast<std::ptrdiff_t>(i),
                         stream.begin() + static_cast<std::ptrdiff_t>(i + n));
    on_burst(burst);
    i += n;
  }
}

}  // namespace hsfi::testutil
