#pragma once

#include <cstdint>

#include "cluster/cluster.hpp"
#include "core/run_stats.hpp"
#include "core/types.hpp"
#include "sim/time.hpp"

namespace dlb::core {

/// Open-stream runtime entry: runs a persistent cluster as a service.
///
/// `Runtime` consumes one fresh cluster per application run — virtual time
/// starts at zero and the engine drains exactly once.  Service mode instead
/// keeps a single cluster alive over an unbounded virtual-time horizon and
/// admits loop jobs one after another into the running structure: each
/// `run_loop` call spawns the chosen strategy's protocol coroutines at the
/// current virtual time, drains the engine (the load functions are lazily
/// generated, so the queue empties between jobs), and returns that job's
/// per-loop statistics.  `advance_to` moves idle time forward between
/// arrivals, so external-load realizations are sampled at the true absolute
/// virtual time of each admission.
///
/// The stream entry is deliberately narrower than `Runtime`: no fault
/// injection, tracing or observation hooks (those layers assume one loop per
/// engine lifetime).  A sharded engine works like an unsharded one: every
/// shard leaves a run at the engine's time, so each admission starts at the
/// same instant on every shard, and an idle advance is one trivial window.
class StreamRuntime {
 public:
  StreamRuntime(cluster::Cluster& cluster, DlbConfig base_config);

  /// Advances idle virtual time up to `at` (no-op when `at` is in the past).
  void advance_to(sim::SimTime at);

  /// Admits one loop job at the current virtual time under `strategy` and
  /// runs it to completion.  Work conservation (every iteration executed
  /// exactly once) is re-checked per job, as in `Runtime`.
  [[nodiscard]] LoopRunStats run_loop(const LoopDescriptor& loop, Strategy strategy);

  [[nodiscard]] sim::SimTime now() const noexcept { return engine_.now(); }
  [[nodiscard]] std::uint64_t loops_run() const noexcept { return loops_run_; }

 private:
  cluster::Cluster& cluster_;
  sim::Engine& engine_;
  DlbConfig base_config_;
  std::uint64_t loops_run_ = 0;
};

}  // namespace dlb::core
