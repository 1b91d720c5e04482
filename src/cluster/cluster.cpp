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
  if (params_.network_segments < 1 || params_.network_segments > params_.procs) {
    throw std::invalid_argument("Cluster: network_segments out of range");
  }
  if (params_.engine_shards < 1) {
    throw std::invalid_argument("Cluster: engine_shards < 1");
  }
  if (params_.topology == net::TopologyKind::kSwitched) {
    if (params_.network_segments != 1) {
      throw std::invalid_argument("Cluster: switched topology excludes network_segments");
    }
    const int racks = net::rack_count(params_.procs, params_.switched.rack_size);
    // One shard cannot own less than a rack; a shared topology never shards
    // at all (see ClusterParams::engine_shards).
    const int shards = std::min(params_.engine_shards, racks);
    engine_.configure_shards(shards, params_.switched.cut_through);
    network_.set_switched(params_.procs, params_.switched, shards);
  }
  if (params_.network_segments > 1) {
    std::vector<int> segment_of(static_cast<std::size_t>(params_.procs));
    for (int i = 0; i < params_.procs; ++i) {
      segment_of[static_cast<std::size_t>(i)] =
          static_cast<int>(static_cast<std::int64_t>(i) * params_.network_segments /
                           params_.procs);
    }
    network_.set_segments(params_.network_segments, std::move(segment_of),
                          params_.bridge_latency);
  }

  const support::Rng root(params_.seed);
  stations_.reserve(static_cast<std::size_t>(params_.procs));
  for (int i = 0; i < params_.procs; ++i) {
    const double speed =
        params_.speeds.empty() ? 1.0 : params_.speeds[static_cast<std::size_t>(i)];
    load::LoadFunction lf =
        params_.external_load
            ? load::LoadFunction(params_.load, root.fork(static_cast<std::uint64_t>(i)))
            : load::constant_load(0, params_.load.persistence);
    stations_.push_back(std::make_unique<Workstation>(i, speed, params_.base_ops_per_sec,
                                                      std::move(lf), engine_, network_,
                                                      params_.cpu_quantum));
  }
}

std::vector<std::vector<int>> Cluster::kblock_groups(int procs, int group_size) {
  if (procs < 1) throw std::invalid_argument("kblock_groups: procs < 1");
  if (group_size < 1 || group_size > procs) {
    throw std::invalid_argument("kblock_groups: group_size out of range");
  }
  std::vector<std::vector<int>> groups;
  for (int start = 0; start < procs; start += group_size) {
    std::vector<int> group;
    for (int i = start; i < std::min(start + group_size, procs); ++i) group.push_back(i);
    groups.push_back(std::move(group));
  }
  return groups;
}

}  // namespace dlb::cluster
