// The model's one observation stream.
//
// The paper's board monitors as well as injects: it triggers its capture
// buffer at each firing (§3.3), and §4.4's failure analysis reads what each
// node's monitors saw. Every component reports what happened as one
// Observation on the Simulator it already holds (Simulator::observe);
// subscribers (the manifestation analyzer, tests, tools) attach to the
// simulator. With no subscriber an emit site costs one branch and builds
// nothing. A kind names an effect or a trace point, never a taxonomy
// class: classifying is the subscriber's business (src/analysis).
#pragma once

#include <cstdint>
#include <string_view>

#include "sim/time.hpp"

namespace hsfi::sim {

/// Every reported effect and trace point. Each group notes its emitter's
/// `where` and what `unit` and `detail` carry there (0 when unstated).
enum class Observed : std::uint8_t {
  // Injector device (where: device name; unit: direction index).
  kInjectorFired,    ///< a window was corrupted; when = first character
  kInjectorApplied,  ///< a configuration was applied to one direction
  // Myrinet NIC (where: NIC name): errors it consumes itself.
  kNicCrcError,
  kNicMarkerError,
  kNicTooShort,
  kNicRingOverflow,
  // Host stack (where: "host"; unit: host id): one per drop counter.
  kHostUnknownPeer,  ///< send: no address for that host id
  kHostUnroutable,   ///< send: not in the Myrinet map
  kHostMisaddressed,
  kHostBadChecksum,
  kHostBadLength,
  kHostMalformed,
  kHostUnknownType,
  kHostUnboundPort,
  // MCP (where: "mcp"; unit: its switch port).
  kMappingRoundBegun,  ///< detail: the round number
  kMapInstalled,       ///< detail: the map's entry count
  kMappingConfused,    ///< duplicate controller; detail: damaged map size
  // Myrinet switch (where: switch name; unit: input port).
  kSlackOverflow,  ///< one symbol lost, input slack full
  kLongTimeout,    ///< held path reclaimed; detail: the output port
  kInvalidRoute,   ///< detail: the absent output port the head named
  // FC port (where: port name).
  kFcCrcError,
  kFcMalformedSet,  ///< K28.5-led set that parsed to nothing
  kFcRxOverflow,    ///< sender overran the advertised credit
  kFcCreditStall,   ///< BB credit exhausted; transmit blocked
  kFcStrayData,     ///< data characters outside any frame
  // FC fabric element (where: element name; detail: the frame's D_ID).
  kFcDiscard,  ///< class-3 discard, no route
  // Campaign workload and scenario drivers (unit: node index).
  kPayloadCorrupted,  ///< where "sink": delivered, but not the payload sent
  kSequenceAborted,   ///< where "reassembler": a frame aborted its sequence
  kFrameRejected,     ///< where "reassembler": out-of-order frame rejected
  kScenarioStep,      ///< where "scenario": a protocol step fired
};

struct Observation {
  SimTime when = 0;
  Observed kind = Observed::kInjectorFired;
  /// The emitter's name ("nic0", "sw0", "fe0.p3", "fi0") or a fixed label
  /// for emitters without a unique one. Valid only during the call.
  std::string_view where;
  std::uint32_t unit = 0;
  std::uint64_t detail = 0;
};

/// A stream subscriber (Simulator::subscribe).
class Observer {
 public:
  virtual void on_observation(const Observation& observation) = 0;

 protected:
  ~Observer() = default;
};

}  // namespace hsfi::sim
