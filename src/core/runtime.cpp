#include "core/runtime.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/ft_protocol.hpp"
#include "core/protocol.hpp"
#include "sim/frame_arena.hpp"
#include "sim/time.hpp"

namespace dlb::core {

Runtime::Runtime(cluster::Cluster& cluster, AppDescriptor app, DlbConfig config)
    : cluster_(cluster), app_(std::move(app)), config_(config) {
  app_.validate();
  config_.validate(cluster_.size());
  if (config_.strategy == Strategy::kAuto) {
    throw std::invalid_argument(
        "Runtime: Strategy::kAuto is resolved by decision::Selector before running");
  }
  if (cluster_.engine().events_executed() != 0 || cluster_.engine().now() != 0) {
    throw std::logic_error(
        "Runtime: cluster already consumed (its engine has executed events); a Cluster/Engine "
        "pair is single-run — build a fresh Cluster for every run");
  }
  if (cluster_.engine().is_sharded() &&
      (config_.observe || config_.record_trace || config_.faults.armed())) {
    // These layers sample global engine state mid-run or inject cross-station
    // actions outside the ingress channel; they force the unsharded engine.
    throw std::invalid_argument(
        "Runtime: observability, tracing and fault injection require an unsharded engine "
        "(run with --shards=1)");
  }
  if (config_.observe || config_.record_trace) {
    obs_ = std::make_shared<obs::Recorder>(config_.record_trace);
    cluster_.network().set_recorder(obs_.get());
    arena_live_at_start_ = sim::FrameArena::stats().live;
  }
  if (config_.faults.armed()) {
    injector_ = std::make_unique<fault::FaultInjector>(config_.faults, cluster_.size(),
                                                       cluster_.params().seed);
    injector_->arm(cluster_.engine(), cluster_.network());
    // Baseline handlers.  run_ft_loop chains its bookkeeping after this death
    // handler for the duration of each loop and restores it on exit.
    injector_->set_death_handler([this](int p) {
      cluster_.station(p).power_off();
      cluster_.station(p).mailbox().cancel_waiters();
      if (obs_) obs_->instant(p, obs::InstantKind::kDeath, cluster_.engine().now());
    });
    injector_->set_rejoin_handler([this](int p) {
      cluster_.station(p).power_on();
      if (obs_) obs_->instant(p, obs::InstantKind::kRejoin, cluster_.engine().now());
    });
  }
}

LoopRunStats Runtime::execute_loop(const LoopDescriptor& loop, int loop_index) {
  LoopContext ctx = LoopContext::make(loop, config_, cluster_);
  ctx.obs = obs_.get();
  if (injector_ != nullptr) return run_ft_loop(ctx, *injector_, loop_index);
  return drive_loop(ctx);
}

void Runtime::execute_phase(const SequentialPhase& phase, const LoopRunStats& previous) {
  auto& engine = cluster_.engine();
  // Armed, the lowest surviving rank masters the phase and only live
  // stations take part.
  const fault::FaultInjector* injector = injector_.get();
  const int master = injector != nullptr ? injector->first_alive() : 0;
  const sim::SimTime phase_began = engine.now();
  {
    sim::Engine::ShardScope scope(engine, cluster_.shard_of(master));
    engine.spawn(phase_master(cluster_, phase, master, injector));
  }
  for (int p = 0; p < cluster_.size(); ++p) {
    if (p == master || (injector != nullptr && !injector->alive(p))) continue;
    const double gather_bytes =
        static_cast<double>(previous.executed_per_proc[static_cast<std::size_t>(p)]) *
        phase.gather_bytes_per_iteration;
    sim::Engine::ShardScope scope(engine, cluster_.shard_of(p));
    engine.spawn(phase_slave(cluster_, p, gather_bytes, master, injector));
  }
  engine.run();
  if (obs_) {
    // One span on the master's track covering the whole gather/compute/scatter.
    obs_->phase(master, obs::PhaseKind::kSequential, phase_began, engine.now());
  }
}

void Runtime::finish_result(RunResult& result) {
  if (injector_ != nullptr) {
    // engine.now() is inflated by dead stations' drained residue — the
    // survivors' loop finish times are the real makespan.
    double makespan = 0.0;
    for (const auto& loop : result.loops) makespan = std::max(makespan, loop.finish_seconds);
    result.exec_seconds = makespan;
    result.faults = injector_->stats();
  } else {
    result.exec_seconds = sim::to_seconds(cluster_.engine().now());
  }
  result.messages = cluster_.network().messages_sent();
  result.bytes = cluster_.network().bytes_sent();
  if (obs_) {
    // End-of-run engine/arena gauges, then the canonical snapshot.  The
    // arena counter is a delta so a cell's metrics do not depend on which
    // pool thread (with what allocation history) it landed on.
    auto& metrics = obs_->metrics();
    metrics.gauge("engine.events").set(static_cast<double>(cluster_.engine().events_executed()));
    metrics.gauge("engine.peak_queue")
        .set(static_cast<double>(cluster_.engine().peak_queue_depth()));
    const auto arena = sim::FrameArena::stats();
    metrics.gauge("arena.live_delta")
        .set(static_cast<double>(arena.live) - static_cast<double>(arena_live_at_start_));
    result.obs = obs_;
    result.metrics = metrics.snapshot();
  }
}

RunResult Runtime::run() {
  if (consumed_) throw std::logic_error("Runtime: run() may be called once");
  consumed_ = true;

  RunResult result;
  result.app_name = app_.name;
  result.strategy_name = strategy_name(config_.strategy);
  for (std::size_t i = 0; i < app_.loops.size(); ++i) {
    if (injector_ != nullptr) injector_->process_boundary_rejoins();
    result.loops.push_back(execute_loop(app_.loops[i], static_cast<int>(i)));
    if (!app_.phases.empty() && i + 1 < app_.loops.size()) {
      execute_phase(app_.phases[i], result.loops.back());
    }
  }
  finish_result(result);
  return result;
}

RunResult Runtime::run_single_loop(std::size_t loop_index) {
  if (consumed_) throw std::logic_error("Runtime: run() may be called once");
  consumed_ = true;
  if (loop_index >= app_.loops.size()) {
    throw std::out_of_range("Runtime: loop index out of range");
  }

  RunResult result;
  result.app_name = app_.name + "/" + app_.loops[loop_index].name;
  result.strategy_name = strategy_name(config_.strategy);
  result.loops.push_back(execute_loop(app_.loops[loop_index], static_cast<int>(loop_index)));
  finish_result(result);
  return result;
}

RunResult run_app(const cluster::ClusterParams& params, const AppDescriptor& app,
                  const DlbConfig& config) {
  cluster::Cluster cluster(params);
  Runtime runtime(cluster, app, config);
  return runtime.run();
}

RunResult run_app_loop(const cluster::ClusterParams& params, const AppDescriptor& app,
                       const DlbConfig& config, std::size_t loop_index) {
  cluster::Cluster cluster(params);
  Runtime runtime(cluster, app, config);
  return runtime.run_single_loop(loop_index);
}

}  // namespace dlb::core
