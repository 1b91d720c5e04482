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
  /// OS scheduling quantum: a computing coroutine releases the CPU at this
  /// granularity so a collocated process (the centralized load balancer) is
  /// delayed by at most one quantum, approximating Unix timesharing.
  /// 0 disables preemption (compute holds the CPU to completion).
  sim::SimTime cpu_quantum = sim::from_seconds(0.02);
  /// External load model; `external_load = false` gives dedicated machines
  /// (load level 0 everywhere).
  load::LoadParams load;
  bool external_load = true;
  std::uint64_t seed = 42;
  net::EthernetParams network;
  /// Number of Ethernet segments; stations are assigned to segments in
  /// contiguous blocks (station i on segment i * segments / procs).  1 means
  /// the paper's single shared LAN.
  int network_segments = 1;
  sim::SimTime bridge_latency = sim::from_micros(500.0);
  /// Network topology.  kShared (default) is the paper's single broadcast
  /// domain (optionally bridged via network_segments); kSwitched is racks of
  /// shared segments under a crossbar core, and excludes network_segments.
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

/// A network of workstations: one engine, one shared Ethernet, P stations.
/// Each station's load function draws from an independent stream forked from
/// the root seed (paper §4.1: "each processor has an independent load
/// function").
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

  /// K-block fixed group partition (paper §3.5): processors {0..P-1} split
  /// into contiguous blocks of size `group_size` (the last group takes the
  /// remainder).  group_size == P yields the single global group.
  [[nodiscard]] static std::vector<std::vector<int>> kblock_groups(int procs, int group_size);

 private:
  ClusterParams params_;
  sim::Engine engine_;
  net::Network network_;
  std::vector<std::unique_ptr<Workstation>> stations_;
};

}  // namespace dlb::cluster
