#include "core/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/groups.hpp"

#include "sim/frame_arena.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace dlb::core {

ProfileSnapshot make_snapshot(LoopContext& ctx, int self, SlaveState& st) {
  auto& me = ctx.cluster->station(self);
  const double elapsed = sim::to_seconds(me.engine().now() - st.window_start);
  double rate = 0.0;
  if (st.done_in_window > 0 && elapsed > 0.0) {
    // The paper's metric: iterations per second since the last sync point.
    rate = static_cast<double>(st.done_in_window) / elapsed;
  } else if (st.last_rate > 0.0) {
    // Nothing finished this window; reuse the previous estimate.
    rate = st.last_rate;
  } else {
    // No history at all (e.g. a processor that started with zero
    // iterations): a dedicated-machine prior from the known bare speed.
    const double mean_ops = std::max(ctx.loop->mean_ops(), 1.0);
    rate = me.speed() * ctx.base_rate() / mean_ops;
  }
  st.last_rate = rate;
  return ProfileSnapshot{self, ctx.owned[static_cast<std::size_t>(self)].size(), rate, true};
}

void record_event(LoopContext& ctx, int group, int round, int initiator, const Decision& d) {
  SyncEvent e;
  e.at_seconds = sim::to_seconds(ctx.cluster->engine().now());
  e.round = round;
  e.group = group;
  e.initiator = initiator;
  e.total_remaining = d.total_remaining;
  e.iterations_moved = d.moved ? d.to_move : 0;
  e.transfer_messages = static_cast<int>(d.transfers.size());
  e.redistributed = d.moved;
  if (ctx.sharded) {
    // Sharded engine: stage per group (single writer per inner vector);
    // Runtime merges canonically at loop end.
    ctx.events_by_group[static_cast<std::size_t>(group)].push_back(e);
    return;
  }
  ctx.stats.events.push_back(e);
}

std::vector<int> remove_inactive(const std::vector<int>& active,
                                 const std::vector<int>& newly_inactive) {
  std::vector<int> out;
  out.reserve(active.size());
  for (const int p : active) {
    if (std::find(newly_inactive.begin(), newly_inactive.end(), p) == newly_inactive.end()) {
      out.push_back(p);
    }
  }
  return out;
}

sim::Task<void> execute_iteration(LoopContext& ctx, int self, std::int64_t index) {
  auto& me = ctx.cluster->station(self);
  co_await me.compute(ctx.loop->ops_of(index));
  if (me.powered_off()) co_return;
  if (ctx.loop->intrinsic_bytes_per_iteration > 0.0) {
    const int neighbor = (self + 1) % ctx.procs();
    if (neighbor != self) {
      co_await me.send(neighbor, kTagIntrinsic, std::any{},
                       static_cast<std::size_t>(ctx.loop->intrinsic_bytes_per_iteration));
    }
    int drained = 0;
    while (me.poll(kTagIntrinsic)) ++drained;
    if (drained > 0) {
      co_await me.busy(drained * ctx.cluster->network().params().receiver_overhead);
    }
  }
}

void count_iteration(LoopContext& ctx, int self, sim::SimTime began) {
  ++ctx.executed[static_cast<std::size_t>(self)];
  if (ctx.trace != nullptr) {
    ctx.trace->record(self, ActivityKind::kCompute, began, ctx.cluster->engine().now());
  }
}

LoopRunStats collect_loop_stats(LoopContext& ctx) {
  LoopRunStats stats = std::move(ctx.stats);
  stats.executed_per_proc = ctx.executed;
  stats.finish_per_proc.reserve(ctx.finished_at.size());
  for (const auto t : ctx.finished_at) stats.finish_per_proc.push_back(sim::to_seconds(t));
  stats.syncs = static_cast<int>(stats.events.size());
  for (const auto& e : stats.events) {
    if (e.redistributed) ++stats.redistributions;
    stats.iterations_moved += e.iterations_moved;
  }
  return stats;
}

namespace {

/// Samples the simulator-health series at a synchronization boundary: the
/// event-queue depth and the arena occupancy.  Sync points are where queue
/// pressure peaks (every member wakes at once), which makes them the
/// interesting sampling instants — and they are deterministic in virtual
/// time, unlike any wall-clock cadence.
void sample_engine_health(LoopContext& ctx) {
  if (ctx.obs == nullptr) return;
  auto& engine = ctx.cluster->engine();
  ctx.obs->sample("engine.queue_depth", engine.now(),
                  static_cast<double>(engine.queue_depth()));
  ctx.obs->sample("arena.live", engine.now(),
                  static_cast<double>(sim::FrameArena::stats().live));
}

enum class SyncStatus { kContinue, kInactive, kLoopDone };

/// How long an armed sequential phase waits before it re-checks liveness:
/// the fault-tolerant protocol's heartbeat timeout.
constexpr sim::SimTime kPhaseLivenessStep = sim::from_seconds(1.0);

/// Executes the round verdict on one slave: ship work out, collect work in,
/// advance the round window.  Shared by the centralized (outcome message)
/// and distributed (locally derived) paths.
sim::Task<SyncStatus> apply_plan(LoopContext& ctx, int self, SlaveState& st, bool loop_done,
                                 bool moved, std::vector<Transfer> transfers,
                                 std::vector<int> active_after) {
  auto& me = ctx.cluster->station(self);
  auto& mine = ctx.owned[static_cast<std::size_t>(self)];
  if (loop_done) co_return SyncStatus::kLoopDone;

  if (moved) {
    const sim::SimTime move_began = me.engine().now();
    std::int64_t iterations_shipped = 0;
    // All outbound shipments first (sends are asynchronous), then collect
    // the inbound ones.  A processor is never both sender and receiver in
    // one plan, so this cannot deadlock.
    for (const auto& t : transfers) {
      if (t.from != self) continue;
      WorkMsg wm;
      wm.round = st.round;
      wm.ranges = mine.take_back(t.count);
      iterations_shipped += t.count;
      const auto bytes =
          ctx.config.control_bytes +
          static_cast<std::size_t>(static_cast<double>(t.count) * ctx.loop->bytes_per_iteration);
      co_await me.send(t.to, kTagWork, wm, bytes);
    }
    for (const auto& t : transfers) {
      if (t.to != self) continue;
      const sim::Message m = co_await me.receive(kTagWork, t.from);
      for (const auto& range : m.as<WorkMsg>().ranges) mine.add(range);
      iterations_shipped += t.count;
    }
    if (ctx.trace != nullptr && move_began != me.engine().now()) {
      ctx.trace->record(self, ActivityKind::kMove, move_began, me.engine().now());
    }
    if (ctx.obs != nullptr && move_began != me.engine().now()) {
      ctx.obs->phase(self, obs::PhaseKind::kShipment, move_began, me.engine().now(),
                     iterations_shipped);
      ctx.obs->metrics().counter("proto.iterations_shipped")
          .add(static_cast<double>(iterations_shipped));
    }
  }

  st.active = active_after;
  ++st.round;
  st.window_start = me.engine().now();
  st.done_in_window = 0;
  const bool still_active =
      std::find(active_after.begin(), active_after.end(), self) != active_after.end();
  co_return still_active ? SyncStatus::kContinue : SyncStatus::kInactive;
}

/// Centralized sync: profile to the balancer, wait for the outcome (Fig. 1
/// left).
sim::Task<SyncStatus> participate_centralized(LoopContext& ctx, int self, SlaveState& st) {
  auto& me = ctx.cluster->station(self);
  const sim::SimTime profile_began = me.engine().now();
  ProfileMsg pm;
  pm.round = st.round;
  pm.group = ctx.group_of[static_cast<std::size_t>(self)];
  pm.snapshot = make_snapshot(ctx, self, st);
  co_await me.send(ctx.balancer_proc, kTagProfile, pm, ctx.config.control_bytes);

  const sim::Message m = co_await me.receive(kTagOutcome, ctx.balancer_proc);
  const auto& out = m.as<OutcomeMsg>();
  if (out.round != st.round) throw std::logic_error("DLB: outcome round mismatch");
  if (ctx.obs != nullptr) {
    // Profile sent until verdict received: the centralized waiting time.
    ctx.obs->phase(self, obs::PhaseKind::kProfile, profile_began, me.engine().now(), st.round);
  }
  co_return co_await apply_plan(ctx, self, st, out.loop_done, out.moved, out.transfers,
                                out.active_after);
}

/// Distributed sync: broadcast the profile to the active peers, collect
/// theirs, and run the (replicated) balancer locally (Fig. 1 right).
sim::Task<SyncStatus> participate_distributed(LoopContext& ctx, int self, SlaveState& st) {
  auto& me = ctx.cluster->station(self);
  const sim::SimTime profile_began = me.engine().now();
  ProfileMsg pm;
  pm.round = st.round;
  pm.group = ctx.group_of[static_cast<std::size_t>(self)];
  pm.snapshot = make_snapshot(ctx, self, st);

  co_await me.multicast(st.active, kTagProfile, pm, ctx.config.control_bytes);
  std::vector<ProfileSnapshot> profiles{pm.snapshot};
  for (const int peer : st.active) {
    if (peer == self) continue;
    const sim::Message m = co_await me.receive(kTagProfile, peer);
    const auto& received = m.as<ProfileMsg>();
    if (received.round != st.round) throw std::logic_error("DLB: profile round mismatch");
    profiles.push_back(received.snapshot);
  }
  std::sort(profiles.begin(), profiles.end(),
            [](const ProfileSnapshot& a, const ProfileSnapshot& b) { return a.proc < b.proc; });
  if (ctx.obs != nullptr) {
    // Profile broadcast until the last peer profile arrived.
    ctx.obs->phase(self, obs::PhaseKind::kProfile, profile_began, me.engine().now(), st.round);
  }

  // The replicated distribution calculation runs on every member in
  // parallel (same deterministic inputs -> same plan everywhere).
  co_await me.compute(ctx.config.decision_ops);
  const Decision d = decide(profiles, ctx.config);
  const bool loop_done = d.total_remaining == 0;
  const std::vector<int> active_after = remove_inactive(st.active, d.newly_inactive);

  if (self == st.active.front()) {
    record_event(ctx, pm.group, st.round, /*initiator=*/-1, d);
  }
  co_return co_await apply_plan(ctx, self, st, loop_done, d.moved, d.transfers, active_after);
}

sim::Task<SyncStatus> participate(LoopContext& ctx, int self, SlaveState& st) {
  return ctx.centralized ? participate_centralized(ctx, self, st)
                         : participate_distributed(ctx, self, st);
}

}  // namespace

LoopContext LoopContext::make(const LoopDescriptor& loop, const DlbConfig& config,
                              cluster::Cluster& cluster) {
  loop.validate();
  config.validate(cluster.size());
  LoopContext ctx;
  ctx.loop = &loop;
  ctx.config = config;
  ctx.cluster = &cluster;
  const int procs = cluster.size();
  ctx.groups = form_groups(procs, config);
  ctx.group_of.assign(static_cast<std::size_t>(procs), 0);
  for (std::size_t g = 0; g < ctx.groups.size(); ++g) {
    for (const int p : ctx.groups[g]) ctx.group_of[static_cast<std::size_t>(p)] = static_cast<int>(g);
  }
  ctx.centralized =
      config.strategy == Strategy::kGCDLB || config.strategy == Strategy::kLCDLB;
  ctx.balancer_proc = 0;
  ctx.owned.reserve(static_cast<std::size_t>(procs));
  for (int p = 0; p < procs; ++p) {
    ctx.owned.push_back(IterationSet::block_partition(loop.iterations, procs, p));
  }
  ctx.executed.assign(static_cast<std::size_t>(procs), 0);
  ctx.finished_at.assign(static_cast<std::size_t>(procs), 0);
  ctx.sharded = cluster.engine().is_sharded();
  if (ctx.sharded) ctx.events_by_group.resize(ctx.groups.size());
  ctx.stats.loop_name = loop.name;
  ctx.stats.start_seconds = sim::to_seconds(cluster.engine().now());
  return ctx;
}

sim::Process dlb_slave(LoopContext& ctx, int self) {
  auto& me = ctx.cluster->station(self);
  auto& mine = ctx.owned[static_cast<std::size_t>(self)];

  SlaveState st;
  st.active = ctx.groups[static_cast<std::size_t>(ctx.group_of[static_cast<std::size_t>(self)])];
  st.window_start = me.engine().now();

  bool running = true;
  while (running) {
    if (!mine.empty()) {
      // Drain pending interrupts; stale rounds are dropped, the current
      // round pulls us into the synchronization (DLB_slave_sync in Fig. 3).
      bool synced = false;
      SyncStatus status = SyncStatus::kContinue;
      while (auto m = me.poll(kTagInterrupt)) {
        if (m->as<InterruptMsg>().round == st.round) {
          const sim::SimTime sync_began = me.engine().now();
          const int sync_round = st.round;
          sample_engine_health(ctx);
          status = co_await participate(ctx, self, st);
          if (ctx.trace != nullptr) {
            ctx.trace->record(self, ActivityKind::kSync, sync_began, me.engine().now());
          }
          if (ctx.obs != nullptr) {
            ctx.obs->phase(self, obs::PhaseKind::kSync, sync_began, me.engine().now(),
                           sync_round);
          }
          synced = true;
          break;
        }
      }
      if (synced) {
        if (status != SyncStatus::kContinue) running = false;
        continue;
      }
      const std::int64_t index = mine.pop_front();
      const sim::SimTime began = me.engine().now();
      co_await execute_iteration(ctx, self, index);
      count_iteration(ctx, self, began);
      ++st.done_in_window;
    } else {
      // Out of work: become the initiator (first finisher, §3.1) — send the
      // interrupt to the other active members, then synchronize like
      // everyone else.
      InterruptMsg im;
      im.round = st.round;
      im.group = ctx.group_of[static_cast<std::size_t>(self)];
      const sim::SimTime sync_began = me.engine().now();
      const int sync_round = st.round;
      if (ctx.obs != nullptr) {
        ctx.obs->instant(self, obs::InstantKind::kInterrupt, sync_began, sync_round);
        ctx.obs->metrics().counter("proto.interrupts").increment();
      }
      sample_engine_health(ctx);
      co_await me.multicast(st.active, kTagInterrupt, im, ctx.config.control_bytes);
      const SyncStatus status = co_await participate(ctx, self, st);
      if (ctx.trace != nullptr) {
        ctx.trace->record(self, ActivityKind::kSync, sync_began, me.engine().now());
      }
      if (ctx.obs != nullptr) {
        ctx.obs->phase(self, obs::PhaseKind::kSync, sync_began, me.engine().now(), sync_round);
      }
      if (status != SyncStatus::kContinue) running = false;
    }
  }
  ctx.finished_at[static_cast<std::size_t>(self)] = me.engine().now();
}

sim::Process central_balancer(LoopContext& ctx) {
  auto& me = ctx.cluster->station(ctx.balancer_proc);
  const auto ngroups = ctx.groups.size();
  std::vector<std::vector<int>> active(ctx.groups);
  std::vector<int> round(ngroups, 0);
  std::size_t done_groups = 0;

  while (done_groups < ngroups) {
    // Serve whichever group's profile arrives first; later groups queue in
    // the mailbox while this one is handled — the LCDLB delay factor g(j).
    const sim::Message first = co_await me.receive(kTagProfile);
    const auto& pm0 = first.as<ProfileMsg>();
    const auto g = static_cast<std::size_t>(pm0.group);
    if (pm0.round != round[g]) throw std::logic_error("DLB: balancer round mismatch");

    std::vector<ProfileSnapshot> profiles{pm0.snapshot};
    for (const int member : active[g]) {
      if (member == pm0.snapshot.proc) continue;
      const sim::Message m = co_await me.receive(kTagProfile, member);
      profiles.push_back(m.as<ProfileMsg>().snapshot);
    }
    std::sort(profiles.begin(), profiles.end(),
              [](const ProfileSnapshot& a, const ProfileSnapshot& b) { return a.proc < b.proc; });

    // The sequential distribution calculation occupies the master's CPU,
    // plus the context-switch / bookkeeping overhead of running the balancer
    // next to a compute slave (§6.2).
    co_await me.compute(ctx.config.decision_ops + ctx.config.balancer_overhead_ops);
    const Decision d = decide(profiles, ctx.config);
    const bool loop_done = d.total_remaining == 0;

    OutcomeMsg out;
    out.round = round[g];
    out.group = pm0.group;
    out.loop_done = loop_done;
    out.moved = d.moved;
    out.transfers = d.transfers;
    out.active_after = remove_inactive(active[g], d.newly_inactive);
    // The outcome goes to every member, including a collocated slave (which
    // receives through the local pvmd like everyone else).
    std::vector<int> recipients = active[g];
    const bool self_in_group =
        std::find(recipients.begin(), recipients.end(), ctx.balancer_proc) != recipients.end();
    co_await me.multicast(recipients, kTagOutcome, out, ctx.config.control_bytes);
    if (self_in_group) {
      co_await me.send(ctx.balancer_proc, kTagOutcome, out, ctx.config.control_bytes);
    }

    record_event(ctx, pm0.group, round[g], pm0.snapshot.proc, d);
    active[g] = out.active_after;
    ++round[g];
    if (loop_done) ++done_groups;
  }
}

sim::Process static_slave(LoopContext& ctx, int self) {
  auto& me = ctx.cluster->station(self);
  auto& mine = ctx.owned[static_cast<std::size_t>(self)];
  while (!mine.empty()) {
    const std::int64_t index = mine.pop_front();
    const sim::SimTime began = me.engine().now();
    co_await execute_iteration(ctx, self, index);
    count_iteration(ctx, self, began);
  }
  ctx.finished_at[static_cast<std::size_t>(self)] = me.engine().now();
}

LoopRunStats drive_loop(LoopContext& ctx) {
  auto& cluster = *ctx.cluster;
  auto& engine = cluster.engine();

  // Each spawn is wrapped in a ShardScope pinning the process (and its
  // coroutine frames) to its station's shard; a no-op on unsharded engines.
  if (ctx.config.strategy == Strategy::kNoDlb) {
    for (int p = 0; p < cluster.size(); ++p) {
      sim::Engine::ShardScope scope(engine, cluster.shard_of(p));
      engine.spawn(static_slave(ctx, p));
    }
  } else {
    if (ctx.centralized) {
      sim::Engine::ShardScope scope(engine, cluster.shard_of(ctx.balancer_proc));
      engine.spawn(central_balancer(ctx));
    }
    for (int p = 0; p < cluster.size(); ++p) {
      sim::Engine::ShardScope scope(engine, cluster.shard_of(p));
      engine.spawn(dlb_slave(ctx, p));
    }
  }
  engine.run();

  if (ctx.sharded) {
    // Merge the per-group staged sync events into the canonical order:
    // time, then group, then round.  The key is unique (a group records at
    // most one event per round), so the result is independent of the shard
    // count and of which worker ran which group.
    auto& events = ctx.stats.events;
    for (auto& staged : ctx.events_by_group) {
      events.insert(events.end(), staged.begin(), staged.end());
    }
    std::stable_sort(events.begin(), events.end(), [](const SyncEvent& a, const SyncEvent& b) {
      if (a.at_seconds != b.at_seconds) return a.at_seconds < b.at_seconds;
      if (a.group != b.group) return a.group < b.group;
      return a.round < b.round;
    });
  }

  LoopRunStats stats = collect_loop_stats(ctx);
  stats.finish_seconds = sim::to_seconds(engine.now());

  std::int64_t executed_total = 0;
  for (const auto n : stats.executed_per_proc) executed_total += n;
  if (executed_total != ctx.loop->iterations) {
    throw std::logic_error("drive_loop: iterations executed != iterations scheduled");
  }
  return stats;
}

sim::Process phase_master(cluster::Cluster& cluster, SequentialPhase phase, int master,
                          const fault::FaultInjector* injector) {
  auto& me = cluster.station(master);
  const auto alive = [injector](int p) { return injector == nullptr || injector->alive(p); };
  for (int p = 0; p < cluster.size(); ++p) {
    if (p == master) continue;
    if (injector == nullptr) {
      (void)co_await me.receive(kTagPhaseData, p);
      continue;
    }
    for (;;) {
      if (!alive(master)) co_return;
      if (!alive(p)) break;  // its share of the data died with it
      auto m = co_await me.receive_until(me.engine().now() + kPhaseLivenessStep, kTagPhaseData,
                                         kTagPhaseData, p);
      if (!alive(master)) co_return;
      if (m) break;
    }
  }
  co_await me.compute(phase.master_ops);
  if (!alive(master)) co_return;
  const double share = phase.scatter_bytes_total / static_cast<double>(cluster.size());
  for (int p = 0; p < cluster.size(); ++p) {
    if (p == master || !alive(p)) continue;
    co_await me.send(p, kTagPhaseScatter, std::any{}, static_cast<std::size_t>(share),
                     /*droppable=*/false);
    if (!alive(master)) co_return;
  }
}

sim::Process phase_slave(cluster::Cluster& cluster, int self, double gather_bytes, int master,
                         const fault::FaultInjector* injector) {
  auto& me = cluster.station(self);
  co_await me.send(master, kTagPhaseData, std::any{}, static_cast<std::size_t>(gather_bytes),
                   /*droppable=*/false);
  if (injector == nullptr) {
    (void)co_await me.receive(kTagPhaseScatter, master);
    co_return;
  }
  for (;;) {
    if (!injector->alive(self)) co_return;
    auto m = co_await me.receive_until(me.engine().now() + kPhaseLivenessStep, kTagPhaseScatter,
                                       kTagPhaseScatter, master);
    if (!injector->alive(self)) co_return;
    if (m) break;
    if (!injector->alive(master)) break;  // degraded: proceed without the scatter
  }
}

}  // namespace dlb::core
