#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "fault/plan.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "support/rng.hpp"

namespace dlb::fault {

/// Counters accumulated over one run.  The injector owns the frame-level
/// numbers; the fault-tolerant protocol increments the recovery-side ones
/// through its injector reference so every fault metric lands in one place.
struct FaultStats {
  int crashes = 0;
  int revocations = 0;
  int rejoins = 0;
  std::int64_t dropped_frames = 0;  // wire loss + frames to/from dead stations
  std::int64_t retries = 0;         // protocol retransmissions after timeout
  std::int64_t recoveries = 0;      // ownership-reclaim events
  std::int64_t iterations_recovered = 0;
};

/// Ground truth of workstation liveness plus the machinery that flips it:
/// scheduled faults fire from the protocol's `on_progress` notifications,
/// and the per-frame loss draw rides the network's drop hook.  Everything
/// draws from a stream forked off the cell seed, so a fault scenario replays
/// bit-identically and never perturbs the load streams.
///
/// The injector knows nothing about protocols or clusters: reactions to a
/// death/rejoin (mailbox flush, CPU power-off, ownership reclaim) are
/// injected as handlers by whoever runs the simulation.
class FaultInjector {
 public:
  /// `seed` is the experiment cell seed; the loss stream is forked from it
  /// with a fixed salt.  Procs named `-1` in specs resolve to procs-1.
  FaultInjector(const FaultPlan& plan, int procs, std::uint64_t seed);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Installs the loss hook.  Call once, before the first protocol process
  /// is spawned.
  void arm(sim::Engine& engine, net::Network& network);

  [[nodiscard]] bool alive(int p) const { return alive_.at(static_cast<std::size_t>(p)) != 0; }
  /// Lowest surviving rank — the deterministic successor-election rule.
  /// Throws std::runtime_error when every workstation is gone.
  [[nodiscard]] int first_alive() const;
  [[nodiscard]] std::vector<int> alive_procs() const;
  [[nodiscard]] int procs() const noexcept { return procs_; }

  /// Protocol notification: `covered` of `total` iterations of the app's loop
  /// `loop_index` are now complete.  Fires the pending faults whose progress
  /// the first loop (index 0) has reached, which may kill the calling proc
  /// itself — callers re-check `alive` afterwards.
  void on_progress(int loop_index, std::int64_t covered, std::int64_t total);

  /// Reaction hooks, run synchronously inside the fault event.  Installing a
  /// death handler returns the previous one, so a caller can chain to it and
  /// restore it afterwards.
  std::function<void(int)> set_death_handler(std::function<void(int)> handler) {
    return std::exchange(on_death_, std::move(handler));
  }
  void set_rejoin_handler(std::function<void(int)> handler) { on_rejoin_ = std::move(handler); }

  /// Applies a fault now (also used directly by tests).
  void kill(int p, FaultKind kind, double down_seconds);
  /// Ends a revocation now.
  void revive(int p);

  /// Revoked stations whose down time has elapsed rejoin here — the runtime
  /// calls this between loops, because work is only re-partitioned at loop
  /// boundaries and a mid-loop revival would have nothing to do anyway.
  /// Keeping revival off the event queue also keeps the virtual clock honest:
  /// a pending far-future revive event would otherwise drag `engine.now()`
  /// past the real makespan when the queue drains.
  void process_boundary_rejoins();

  [[nodiscard]] FaultStats& stats() noexcept { return stats_; }
  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }

 private:
  void fire(const FaultSpec& spec);

  FaultPlan plan_;
  int procs_;
  sim::Engine* engine_ = nullptr;
  support::Rng loss_rng_;
  std::vector<char> alive_;
  std::vector<sim::SimTime> revoked_until_;  // 0: not revoked
  std::vector<FaultSpec> pending_;
  std::function<void(int)> on_death_;
  std::function<void(int)> on_rejoin_;
  FaultStats stats_;
};

}  // namespace dlb::fault
