#pragma once

#include <cstddef>
#include <memory>

#include "cluster/cluster.hpp"
#include "core/run_stats.hpp"
#include "core/types.hpp"
#include "fault/injector.hpp"
#include "obs/recorder.hpp"

namespace dlb::core {

/// The DLB run-time system (§5.1): executes an annotated application on a
/// cluster under one strategy — equal initial partition, per-loop dynamic
/// load balancing, sequential inter-loop phases — and collects the DLB
/// statistics the paper's master gathers (synchronizations, redistributions,
/// work moved).
///
/// A Runtime consumes a *fresh* cluster (virtual time 0, no events executed);
/// the constructor enforces this and run() may be called once.  To compare
/// strategies, build one cluster per run with the same seed: the
/// external-load realizations are identical, which is how the paper compares
/// schemes under the same load.  Distinct Cluster/Runtime pairs share no
/// mutable state, so independent runs may execute concurrently on different
/// threads (see exp::Runner).
///
/// When DlbConfig::faults is armed, the Runtime owns a FaultInjector seeded
/// from the cluster seed, arms it against the engine and network, and routes
/// every loop through the fault-tolerant protocol (ft_protocol.hpp); the
/// sequential phases take the injector and run on the survivors, mastered
/// by the lowest live rank.  A disarmed plan takes the exact fault-free code
/// path.
class Runtime {
 public:
  Runtime(cluster::Cluster& cluster, AppDescriptor app, DlbConfig config);

  /// Executes the whole application and returns its statistics.
  [[nodiscard]] RunResult run();

  /// Executes a single loop of the application (the paper's Table 2 ranks
  /// TRFD's two loops independently).
  [[nodiscard]] RunResult run_single_loop(std::size_t loop_index);

 private:
  [[nodiscard]] LoopRunStats execute_loop(const LoopDescriptor& loop, int loop_index);
  void execute_phase(const SequentialPhase& phase, const LoopRunStats& previous);
  void finish_result(RunResult& result);

  cluster::Cluster& cluster_;
  AppDescriptor app_;
  DlbConfig config_;
  std::shared_ptr<obs::Recorder> obs_;             // only when observe or record_trace
  std::unique_ptr<fault::FaultInjector> injector_;  // only when faults armed
  std::size_t arena_live_at_start_ = 0;
  bool consumed_ = false;
};

/// Convenience: builds a cluster from `params`, runs `app` under `config`,
/// returns the result.  One-shot equivalent of the Runtime flow.
[[nodiscard]] RunResult run_app(const cluster::ClusterParams& params, const AppDescriptor& app,
                                const DlbConfig& config);

/// Convenience for the per-loop rankings: run only loop `loop_index`.
[[nodiscard]] RunResult run_app_loop(const cluster::ClusterParams& params,
                                     const AppDescriptor& app, const DlbConfig& config,
                                     std::size_t loop_index);

}  // namespace dlb::core
