// Statistics gathering on the monitored stream.
//
// Paper §3.2: "the FPGA can gather statistics about the fault injection
// campaign. For instance, data-link packet data such as source and
// destination identifier numbers can be monitored, with counters
// incremented for each packet seen with these identifiers."
//
// The monitor deframes the stream it watches and, for data packets whose
// payload is long enough to carry the host stack's destination/source
// identifiers (two 48-bit physical addresses, as in §4.3.3), counts packets
// per (src, dst) pair. Control symbols and packet types are counted too.
//
// Deframing follows Fig. 8 (a GAP closes a non-empty frame; GO/STOP are
// counted, not framed) with one monitor-only bound: a partial frame that
// grows past kMaxOpenFrame bytes is dropped and counted as oversize, and
// bytes are discarded until the next GAP. A stream with no GAP at all —
// Fibre Channel traffic seen through Myrinet eyes — therefore holds at most
// kMaxOpenFrame bytes. The bound is per symbol, so counts do not depend on
// how the stream is split into bursts.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "link/channel.hpp"
#include "myrinet/addr.hpp"
#include "myrinet/packet.hpp"
#include "sim/time.hpp"

namespace hsfi::core {

class StreamStats {
 public:
  struct Counters {
    std::uint64_t characters = 0;
    std::uint64_t control_symbols = 0;
    std::uint64_t gaps = 0;
    std::uint64_t stops = 0;
    std::uint64_t gos = 0;
    std::uint64_t frames = 0;
    std::uint64_t data_frames = 0;
    std::uint64_t mapping_frames = 0;
    std::uint64_t other_frames = 0;
    std::uint64_t crc_bad_frames = 0;
    std::uint64_t oversize = 0;  ///< partial frames dropped past kMaxOpenFrame
  };

  /// Largest partial frame the monitor holds (bytes). Myrinet frames,
  /// merged ones included, stay far below it.
  static constexpr std::size_t kMaxOpenFrame = 64 * 1024;

  /// Feeds a received burst: counts every symbol and deframes data runs
  /// in bulk, control symbols one at a time.
  void feed_burst(const link::Burst& burst);

  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }

  /// Packets seen per (destination, source) identifier pair.
  using PairKey = std::pair<std::uint64_t, std::uint64_t>;  // dst, src as u64
  [[nodiscard]] const std::map<PairKey, std::uint64_t>& pair_counts()
      const noexcept {
    return pairs_;
  }

  void clear();

  /// Serial "STAT" readout.
  [[nodiscard]] std::string render() const;

  /// Bytes held in the current partial frame.
  [[nodiscard]] std::size_t open_frame_size() const noexcept {
    return frame_.size();
  }

 private:
  void on_frame(const std::vector<std::uint8_t>& frame);

  std::vector<std::uint8_t> frame_;  ///< partial frame since the last GAP
  bool discarding_ = false;          ///< dropping an oversize frame's tail
  Counters counters_;
  std::map<PairKey, std::uint64_t> pairs_;
};

}  // namespace hsfi::core
