#pragma once

#include <cstddef>

#include "net/params.hpp"
#include "sim/time.hpp"

namespace dlb::net {

/// Throws std::overflow_error, naming the frame and its start, unless a
/// `bytes`-sized frame that takes a `wire` at `start` and is done with it
/// `hold` later ends inside SimTime's range.  Medium and port reservations
/// call it before they move their busy horizon.
void check_busy_horizon(const char* wire, std::size_t bytes, sim::SimTime start,
                        sim::SimTime hold);

/// The shared 10base-T segment: a FIFO, capacity-1 transmission medium.
/// Reservation is analytic (no coroutine round trip): a transmit handed over
/// at `ready_at` starts when the medium frees up and holds it for its
/// occupancy.  Contention between concurrent broadcasts is what makes the
/// all-to-all pattern quadratic — the effect the paper's global/local
/// trade-off rests on.
class Ethernet {
 public:
  explicit Ethernet(EthernetParams params) noexcept : params_(params) {}

  /// Reserves the medium for one message; returns its delivery time
  /// (transmission end + propagation).  Throws std::overflow_error, naming
  /// the frame and its start, when that time is past SimTime's range.
  sim::SimTime transmit(std::size_t bytes, sim::SimTime ready_at);

  [[nodiscard]] const EthernetParams& params() const noexcept { return params_; }

 private:
  EthernetParams params_;
  sim::SimTime free_at_ = 0;
};

}  // namespace dlb::net
