#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/ownership.hpp"
#include "core/policy.hpp"
#include "core/run_stats.hpp"
#include "core/types.hpp"
#include "fault/injector.hpp"
#include "obs/recorder.hpp"
#include "sim/process.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace dlb::core {

/// Message tags of the DLB wire protocol (the paper's run-time library): one
/// table for the fault-free and the fault-tolerant protocol.  No tag names a
/// group: every frame goes to a member of the sender's own group, or to the
/// balancer on the group's own profile tag, so a station's mailbox only ever
/// holds its own group's traffic.  The FT slave waits on [kTagInterrupt,
/// kTagHeartbeat] and its coordinator on [kTagInterrupt, kTagProfile], one
/// receive each, so those six tags stay contiguous and in this order.
inline constexpr int kTagInterrupt = 100;  // finisher -> active peers; FT re-ping
inline constexpr int kTagOutcome = 101;    // balancer's (FT: coordinator's) verdict -> group
inline constexpr int kTagWork = 102;       // work shipment between slaves
inline constexpr int kTagAck = 103;        // FT shipment acknowledgement
inline constexpr int kTagHeartbeat = 104;  // FT liveness beacon
inline constexpr int kTagProfile = 105;    // slave -> peers (FT: -> coordinator)
inline constexpr int kTagPhaseData = 106;  // sequential-phase gather
inline constexpr int kTagPhaseScatter = 107;
inline constexpr int kTagIntrinsic = 108;  // per-iteration algorithm traffic (IC)
/// Centralized strategies send profiles to the balancer on their group's own
/// tag, far above the table, so the balancer waits on every group at once and
/// then collects the first group's profiles by tag.
inline constexpr int kTagCentralProfileBase = 1000;

[[nodiscard]] constexpr int central_profile_tag(int group) noexcept {
  return kTagCentralProfileBase + group;
}

/// The name of a protocol tag, for trace flow arrows: every table tag has its
/// own, every central-profile tag reads "profile", and any other tag "".
[[nodiscard]] const char* tag_name(int tag) noexcept;

/// Interrupt: "I am out of work; synchronize" (§3.1).
struct InterruptMsg {
  int round = 0;
};

/// Performance profile (§3.2): iterations/second since the last sync point
/// plus the remaining iterations.
struct ProfileMsg {
  int round = 0;
  ProfileSnapshot snapshot;
};

/// The central balancer's verdict for a round, broadcast to the group.  In
/// the distributed strategies every processor derives the same information
/// locally, so no such message exists there.
struct OutcomeMsg {
  int round = 0;
  bool loop_done = false;
  bool moved = false;
  std::vector<Transfer> transfers;
  std::vector<int> active_after;  // group members still active next round
};

/// A work shipment: the migrated iteration ranges.  Under faults the ranges
/// stay in the sender's ledger entry and `ship` names it; fault-free it is 0.
struct WorkMsg {
  int round = 0;
  std::vector<IterRange> ranges;
  std::uint64_t ship = 0;
};

/// Shared state of one load-balanced loop execution.  Owned by the caller
/// that drives the loop; every protocol process holds a reference.
/// Single-threaded simulation makes plain member access safe.
struct LoopContext {
  const LoopDescriptor* loop = nullptr;
  DlbConfig config;
  cluster::Cluster* cluster = nullptr;
  /// K-block groups; global strategies use one group of P.
  std::vector<std::vector<int>> groups;
  std::vector<int> group_of;  // proc id -> group index
  bool centralized = false;
  int balancer_proc = 0;

  // Per-processor runtime state.
  std::vector<IterationSet> owned;
  std::vector<std::int64_t> executed;
  std::vector<sim::SimTime> finished_at;

  LoopRunStats stats;
  /// Sync events staged per group — exactly one actor records a given
  /// group's round, so each inner vector has a single writer even when
  /// groups run on different engine shards — and merged canonically (by
  /// time, group, round) into `stats.events` at loop end.
  std::vector<std::vector<SyncEvent>> events_by_group;
  /// Optional observability recorder (owned by the Runtime); null unless
  /// DlbConfig::observe or record_trace.
  obs::Recorder* obs = nullptr;

  [[nodiscard]] int procs() const { return cluster->size(); }
  /// Base rate in ops/sec (for rate priors).
  [[nodiscard]] double base_rate() const { return cluster->params().base_ops_per_sec; }

  /// Builds the context for one loop under `config` on `cluster`: equal
  /// initial block partition, groups per strategy.
  static LoopContext make(const LoopDescriptor& loop, const DlbConfig& config,
                          cluster::Cluster& cluster);
};

/// Slave-local synchronization state, living in the slave coroutine frame.
struct SlaveState {
  int round = 0;
  std::vector<int> active;  // active processors of my group, ascending
  sim::SimTime window_start = 0;
  std::int64_t done_in_window = 0;
  double last_rate = 0.0;
};

/// The profile `self` reports at a sync point (§3.2).
[[nodiscard]] ProfileSnapshot make_snapshot(LoopContext& ctx, int self, SlaveState& st);

/// Records one synchronization round of `group` in the loop statistics.
void record_event(LoopContext& ctx, int group, int round, int initiator, const Decision& d);

/// `active` without the members in `newly_inactive`, order kept.
[[nodiscard]] std::vector<int> remove_inactive(const std::vector<int>& active,
                                               const std::vector<int>& newly_inactive);

/// Executes one iteration: the computation, then — unless the station was
/// powered off meanwhile — the intrinsic communication to the ring neighbour
/// (IC, §4.1) and the unpack cost of inbound intrinsic traffic that
/// accumulated since the last gap.  A loop without IC gets the station's
/// compute task itself, so its iteration holds no frame of its own.  The
/// caller counts the iteration.
[[nodiscard]] sim::Task<void> execute_iteration(LoopContext& ctx, int self, std::int64_t index);

/// Counts one executed iteration of `self` that began at `began`: the
/// per-processor tally and the compute segment of the activity log.
void count_iteration(LoopContext& ctx, int self, sim::SimTime began);

/// Moves the statistics out of `ctx` at loop end and fills in everything but
/// finish_seconds: the sync events in canonical order, per-processor executed
/// counts and finish times, syncs, redistributions and iterations moved.
[[nodiscard]] LoopRunStats collect_loop_stats(LoopContext& ctx);

/// A DLB slave (the paper's transformed loop of Fig. 3): executes owned
/// iterations one at a time, polls for interrupts between iterations,
/// initiates a synchronization when its work runs out, and takes part in
/// profile exchange and work movement.  One per processor, for every
/// strategy except NoDLB.
[[nodiscard]] sim::Process dlb_slave(LoopContext& ctx, int self);

/// The central load balancer (GCDLB / LCDLB): lives on `ctx.balancer_proc`,
/// serves groups one at a time in profile-arrival order (the LCDLB delay
/// factor emerges from this queueing), computes the new distribution, and
/// broadcasts outcomes.  Exactly one per run for the centralized strategies.
[[nodiscard]] sim::Process central_balancer(LoopContext& ctx);

/// Static slave for the NoDLB baseline: executes its block, no communication.
[[nodiscard]] sim::Process static_slave(LoopContext& ctx, int self);

/// The fault-free loop driver shared by Runtime and svc::run_service: spawns
/// the strategy's processes (each pinned to its station's engine shard),
/// drains the engine, collects the statistics, and checks work conservation
/// — every iteration executed exactly once.
[[nodiscard]] LoopRunStats drive_loop(LoopContext& ctx);

/// Sequential inter-loop phase (TRFD's transpose, §6.3): slaves gather their
/// data to `master`, the master computes, then scatters.  With no injector
/// every wait is a plain receive.  Under an armed injector the waits re-check
/// liveness once a virtual second: the master skips a dead slave's data
/// and stops if it dies itself, and a slave that loses the master proceeds
/// without its scatter (the phase data is modelled, not real).
/// Coroutine parameters are taken by value: the caller's locals may die
/// before the process body resumes, so references would dangle (dlblint
/// coro-ref-param).
[[nodiscard]] sim::Process phase_master(cluster::Cluster& cluster, SequentialPhase phase,
                                        int master, const fault::FaultInjector* injector);
[[nodiscard]] sim::Process phase_slave(cluster::Cluster& cluster, int self, double gather_bytes,
                                       int master, const fault::FaultInjector* injector);

}  // namespace dlb::core
