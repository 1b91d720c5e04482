#pragma once

#include <cstddef>

#include "sim/time.hpp"

namespace dlb::net {

/// Shared-medium Ethernet + PVM software-stack cost model (LogP-flavoured).
///
/// A message costs:
///   sender CPU          o_s   (pvm_pack + send syscall; occupies the sender)
///   medium occupancy    tau_m + bytes / bandwidth   (serialized, FIFO)
///   propagation         prop  (does not occupy the medium)
///   receiver CPU        o_r   (unpack; occupies the receiver at consume time)
///
/// Defaults are calibrated to the paper's measured PVM numbers (§6.1):
/// one small-message end-to-end latency  o_s + tau_m + prop + o_r = 2414.5 us,
/// and bandwidth 0.96 MB/s.  The split between the terms is chosen so the
/// measured pattern costs have the paper's Fig. 4 shape: one-to-all and
/// all-to-one linear in P, all-to-all quadratic and roughly 4-6x one-to-all
/// at P = 16.
struct EthernetParams {
  sim::SimTime sender_overhead = sim::from_micros(1000.0);    // o_s
  sim::SimTime receiver_overhead = sim::from_micros(1000.0);  // o_r
  sim::SimTime medium_overhead = sim::from_micros(400.0);     // tau_m
  sim::SimTime propagation = sim::from_micros(14.5);          // prop
  double bandwidth_bytes_per_sec = 0.96e6;                    // B

  /// End-to-end latency of a `bytes`-sized message on an idle network.
  [[nodiscard]] sim::SimTime message_latency(std::size_t bytes) const noexcept {
    return sender_overhead + medium_occupancy(bytes) + propagation + receiver_overhead;
  }

  /// Time the shared medium is held by one `bytes`-sized message.
  [[nodiscard]] sim::SimTime medium_occupancy(std::size_t bytes) const noexcept {
    return medium_overhead +
           sim::from_seconds(static_cast<double>(bytes) / bandwidth_bytes_per_sec);
  }
};

/// Sender CPU per *additional* destination of a multicast, as a fraction of
/// o_s: pvm_mcast packs the buffer once, so follow-up sends skip the packing
/// and pay only the transmit syscall.
inline constexpr double kMulticastExtraFraction = 0.4;

/// Wire size of a DLB profile / instruction message (a handful of scalars
/// plus the PVM header).  Used consistently by protocols, characterization,
/// and the cost model.
inline constexpr std::size_t kControlMessageBytes = 64;

}  // namespace dlb::net
