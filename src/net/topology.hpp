#pragma once

#include <cstddef>
#include <string>

#include "net/ethernet.hpp"
#include "sim/time.hpp"

namespace dlb::net {

/// Network topology of the simulated cluster.
///
///  - kShared: every workstation on one shared Ethernet segment (the paper's
///    testbed; the byte-identical default).  The network is one rack.
///  - kSwitched: racks of shared segments under a non-blocking crossbar
///    core — the hierarchical LAN that makes P = 4k-64k tractable.  A
///    cross-rack frame occupies its source rack segment, cuts through the
///    switch fabric (a fixed latency, no shared resource), then serializes
///    through the crossbar's output port for the destination rack and the
///    destination rack segment.
enum class TopologyKind { kShared, kSwitched };

/// Shape of the switched topology.  Rack segments reuse the EthernetParams
/// cost model; the crossbar's costs are the constants below.
struct SwitchedParams {
  /// Workstations per rack segment (the last rack may be smaller).
  int rack_size = 32;
};

// Crossbar costs: an early switching fabric an order of magnitude faster
// than the 10base-T segments it aggregates.

/// Switch-fabric cut-through latency, source port to output port.  Also the
/// engine's conservative lookahead: it is the minimum virtual latency of any
/// cross-rack (hence any cross-shard) interaction.
inline constexpr sim::SimTime kCutThrough = sim::from_micros(20.0);
/// Per-frame overhead of an output port (header processing, arbitration).
inline constexpr sim::SimTime kPortOverhead = sim::from_micros(5.0);
/// Output-port serialization bandwidth.
inline constexpr double kPortBandwidthBytesPerSec = 100e6;

/// Time a crossbar output port is held by one `bytes`-sized frame.
[[nodiscard]] constexpr sim::SimTime port_occupancy(std::size_t bytes) noexcept {
  return kPortOverhead + sim::from_seconds(static_cast<double>(bytes) / kPortBandwidthBytesPerSec);
}

/// One output port of the crossbar core: a FIFO, capacity-1 resource like a
/// rack segment, but with switch-port costs and no propagation term (the
/// fabric's flight time is already paid by kCutThrough).
class CrossbarPort {
 public:
  /// Reserves the port for one frame; returns when its last byte has left.
  /// Throws std::overflow_error when that is past SimTime's range.
  sim::SimTime transmit(std::size_t bytes, sim::SimTime ready_at) {
    const sim::SimTime start = ready_at > free_at_ ? ready_at : free_at_;
    const sim::SimTime occupancy = port_occupancy(bytes);
    check_busy_horizon("CrossbarPort", bytes, start, occupancy);
    free_at_ = start + occupancy;
    return free_at_;
  }

 private:
  sim::SimTime free_at_ = 0;
};

/// Rack of a workstation: contiguous blocks of `rack_size` stations.
[[nodiscard]] int rack_of(int station, int rack_size) noexcept;

/// Number of racks needed for `stations` workstations (last rack may be
/// partial when rack_size does not divide stations).
[[nodiscard]] int rack_count(int stations, int rack_size) noexcept;

/// Engine shard owning a rack: contiguous balanced blocks (the same
/// `i * n / m` split the segment map uses), so racks — and therefore
/// workstations — of one shard are contiguous and block sizes differ by at
/// most one.  Requires 1 <= shards <= racks.
[[nodiscard]] int shard_of_rack(int rack, int racks, int shards) noexcept;

/// Parses "--topology=" values; throws std::invalid_argument on anything
/// but "shared" or "switched".
[[nodiscard]] TopologyKind parse_topology(const std::string& name);

[[nodiscard]] const char* topology_name(TopologyKind kind) noexcept;

}  // namespace dlb::net
