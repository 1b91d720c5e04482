#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/workstation.hpp"
#include "load/load_function.hpp"
#include "net/network.hpp"
#include "net/params.hpp"
#include "sim/engine.hpp"
#include "support/rng.hpp"

namespace dlb::cluster {

/// Configuration of a simulated network of workstations.
struct ClusterParams {
  int procs = 4;
  /// Basic operations per second of the base (speed 1.0) processor.  The
  /// paper measures work in "basic operations per iteration" (§4.1); this
  /// constant maps it to time.  Default approximates a SPARC-LX-class node.
  double base_ops_per_sec = 20e6;
  /// Relative speeds S_i; empty means homogeneous 1.0 (the paper's testbed
  /// was homogeneous SPARC LXs; heterogeneity is exercised in ablations).
  std::vector<double> speeds;
  /// External load model; max_load = 0 gives dedicated machines (load
  /// level 0 everywhere).
  load::LoadParams load;
  std::uint64_t seed = 42;
  net::EthernetParams network;
  /// Network topology.  kShared (default) is the paper's single broadcast
  /// domain: the network stays one rack.  kSwitched splits it into racks of
  /// `switched.rack_size` shared segments under a crossbar core.
  net::TopologyKind topology = net::TopologyKind::kShared;
  net::SwitchedParams switched;
  /// Engine shards for intra-cell parallelism.  Only the switched topology
  /// can shard (its cut-through latency is the conservative lookahead);
  /// requesting shards on a shared cluster silently runs unsharded — a
  /// single broadcast domain has zero cross-partition lookahead, so there is
  /// nothing to overlap.  Clamped to the rack count.  The shard count never
  /// changes simulated results, only wall-clock time.
  int engine_shards = 1;
};

/// Load function of station `i`: stream `i` forked from `root`, which must be
/// support::Rng(params.seed) (paper §4.1: "each processor has an independent
/// load function").  The cluster builds its stations from it, and the model
/// rebuilds the same realization.  The caller seeds `root` once for all
/// stations.
[[nodiscard]] load::LoadFunction station_load(const ClusterParams& params,
                                              const support::Rng& root, int i);

/// Relative speed S_i of station `i` (1.0 when `speeds` is empty).
[[nodiscard]] double station_speed(const ClusterParams& params, int i);

/// A network of workstations: one engine, one network (one shared Ethernet,
/// or racks of them under a crossbar), P stations.
/// Station i runs at station_speed(params, i) under station_load(params, root, i).
class Cluster {
 public:
  explicit Cluster(ClusterParams params);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] net::Network& network() noexcept { return network_; }
  [[nodiscard]] int size() const noexcept { return static_cast<int>(stations_.size()); }
  [[nodiscard]] Workstation& station(int i) { return *stations_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] const ClusterParams& params() const noexcept { return params_; }

  /// Engine shard owning station `i` (always 0 on a shared topology or a
  /// single-shard engine).  Runtime wraps each spawn in a ShardScope on this.
  [[nodiscard]] int shard_of(int i) const { return network_.shard_of(i); }

 private:
  ClusterParams params_;
  sim::Engine engine_;
  net::Network network_;
  std::vector<std::unique_ptr<Workstation>> stations_;
};

}  // namespace dlb::cluster
