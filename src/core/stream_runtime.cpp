#include "core/stream_runtime.hpp"

#include <stdexcept>

#include "core/protocol.hpp"

namespace dlb::core {

StreamRuntime::StreamRuntime(cluster::Cluster& cluster, DlbConfig base_config)
    : cluster_(cluster), engine_(cluster.engine()), base_config_(base_config) {
  if (base_config_.observe || base_config_.record_trace || base_config_.faults.armed()) {
    throw std::invalid_argument(
        "StreamRuntime: observability, tracing and fault injection assume one loop per engine "
        "lifetime and are not available in service mode");
  }
  base_config_.strategy = Strategy::kNoDlb;  // placeholder; run_loop sets the real one
  base_config_.validate(cluster_.size());
}

void StreamRuntime::advance_to(sim::SimTime at) {
  auto& engine = cluster_.engine();
  if (at <= engine.now()) return;
  // A scheduled no-op is the idle clock tick: run() pops it and leaves the
  // engine parked at exactly `at` with an empty queue.  On a sharded engine
  // the tick is one trivial window on shard 0, and run() moves every shard's
  // clock to `at`.
  {
    sim::Engine::ShardScope scope(engine, 0);
    engine.schedule_at(at, [] {});
  }
  engine.run();
}

LoopRunStats StreamRuntime::run_loop(const LoopDescriptor& loop, Strategy strategy) {
  if (strategy == Strategy::kAuto) {
    throw std::invalid_argument(
        "StreamRuntime: Strategy::kAuto is resolved by the online selector before admission");
  }
  DlbConfig config = base_config_;
  config.strategy = strategy;

  LoopContext ctx = LoopContext::make(loop, config, cluster_);
  LoopRunStats stats = drive_loop(ctx);
  ++loops_run_;
  return stats;
}

}  // namespace dlb::core
