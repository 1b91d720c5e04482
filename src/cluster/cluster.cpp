#include "cluster/cluster.hpp"

#include <algorithm>
#include <stdexcept>

#include "support/rng.hpp"

namespace dlb::cluster {

Cluster::Cluster(ClusterParams params)
    : params_(std::move(params)), engine_(), network_(engine_, params_.network) {
  if (params_.procs < 1) throw std::invalid_argument("Cluster: need at least one processor");
  if (!params_.speeds.empty() &&
      params_.speeds.size() != static_cast<std::size_t>(params_.procs)) {
    throw std::invalid_argument("Cluster: speeds size != procs");
  }
  if (params_.engine_shards < 1) {
    throw std::invalid_argument("Cluster: engine_shards < 1");
  }
  // A shared topology leaves the network one rack.
  if (params_.topology == net::TopologyKind::kSwitched) {
    if (params_.switched.rack_size < 1) {
      throw std::invalid_argument("Cluster: switched rack_size must be >= 1");
    }
    const int racks = net::rack_count(params_.procs, params_.switched.rack_size);
    // One shard cannot own less than a rack; a shared topology never shards
    // at all (see ClusterParams::engine_shards).
    const int shards = std::min(params_.engine_shards, racks);
    engine_.configure_shards(shards, net::kCutThrough);
    network_.set_switched(params_.procs, params_.switched, shards);
  }

  const support::Rng root(params_.seed);
  stations_.reserve(static_cast<std::size_t>(params_.procs));
  for (int i = 0; i < params_.procs; ++i) {
    const double speed = station_speed(params_, i);
    load::LoadFunction lf = station_load(params_, root, i);
    stations_.push_back(std::make_unique<Workstation>(i, speed, params_.base_ops_per_sec,
                                                      std::move(lf), engine_, network_));
  }
}

load::LoadFunction station_load(const ClusterParams& params, const support::Rng& root, int i) {
  return load::LoadFunction(params.load, root.fork(static_cast<std::uint64_t>(i)));
}

double station_speed(const ClusterParams& params, int i) {
  return params.speeds.empty() ? 1.0 : params.speeds[static_cast<std::size_t>(i)];
}

}  // namespace dlb::cluster
