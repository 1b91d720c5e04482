#include "net/ethernet.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace dlb::net {

void check_busy_horizon(const char* wire, std::size_t bytes, sim::SimTime start,
                        sim::SimTime hold) {
  if (start <= sim::kTimeInfinity - hold) return;
  std::ostringstream what;
  what << wire << ": a frame of " << bytes << " bytes at " << sim::to_seconds(start)
       << " s is not done before the end of virtual time";
  throw std::overflow_error(what.str());
}

sim::SimTime Ethernet::transmit(std::size_t bytes, sim::SimTime ready_at) {
  const sim::SimTime occupancy = params_.medium_occupancy(bytes);
  const sim::SimTime start = std::max(ready_at, free_at_);
  check_busy_horizon("Ethernet", bytes, start, occupancy + params_.propagation);
  free_at_ = start + occupancy;
  return free_at_ + params_.propagation;
}

}  // namespace dlb::net
