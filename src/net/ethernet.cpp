#include "net/ethernet.hpp"

#include <algorithm>

namespace dlb::net {

sim::SimTime Ethernet::transmit(std::size_t bytes, sim::SimTime ready_at) noexcept {
  const sim::SimTime occupancy = params_.medium_occupancy(bytes);
  const sim::SimTime start = std::max(ready_at, free_at_);
  free_at_ = start + occupancy;
  return free_at_ + params_.propagation;
}

}  // namespace dlb::net
