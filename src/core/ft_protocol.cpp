// The fault-tolerant variant of the DLB protocol (DESIGN.md §7).  It speaks
// the fault-free protocol's messages and shares its helpers (protocol.hpp);
// what it adds is what faults need: a ledger of in-flight shipments with ack
// and retry, coordinator rounds and balancer failover, heartbeats, and the
// death sweep with its recruit.
//
// Four process bodies stay forked from their fault-free twins (dlb_slave,
// central_balancer, apply_plan, participate_distributed) because they differ
// in what they do, not only in how: an FT distributed round gathers the
// profiles at a coordinator where the paper's protocol broadcasts every
// profile to every member; the FT balancer takes already-queued profiles
// with a free poll where the fault-free one pays the receive overhead on
// each; and a fault run records no sync, profile or shipment span.  Folding
// them would change the armed output the fault goldens and the benchmark's
// fault digests pin.

#include "core/ft_protocol.hpp"

#include <algorithm>
#include <any>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/ownership.hpp"
#include "core/policy.hpp"
#include "fault/coverage.hpp"
#include "net/params.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim/timer.hpp"

namespace dlb::core {

namespace {

// Tolerance settings, the same for every fault scenario.
/// Heartbeat period; also the idle step of a parked member, of the balancer
/// and of a recovery slave waiting for in-flight work.
constexpr double kHeartbeatPeriodSeconds = 0.25;
constexpr sim::SimTime kHeartbeatPeriod = sim::from_seconds(kHeartbeatPeriodSeconds);
/// Silence from an active peer this long starts a suspicion round.
constexpr sim::SimTime kHeartbeatTimeout = 4 * kHeartbeatPeriod;
/// Backoff windows a receiver waits for a planned shipment before it gives
/// up on a sender stuck in an older round (the sender keeps the work).
constexpr int kMaxRetries = 3;
/// Retry timeout multiplier per attempt; the exponent is capped at
/// kMaxBackoffAttempt.
constexpr double kBackoffFactor = 2.0;
constexpr int kMaxBackoffAttempt = 6;
/// CPU work of one ownership reclaim (a kRecover segment).
constexpr double kRecoverOps = 20e3;

enum class FtStatus { kContinue, kInactive, kLoopDone, kDead };

// ---------------------------------------------------------------------------
// Shared simulation-side state of one fault-tolerant loop execution.
// ---------------------------------------------------------------------------

/// An in-flight work shipment.  The entry is created by the sender at
/// take_back time and removed by the receiver when it folds the ranges into
/// its owned set — so at any instant, every iteration is in exactly one of:
/// somebody's owned set, the coverage ledger, a shipment, or a lost pool.
struct FtShipment {
  std::uint64_t id = 0;
  int from = 0;
  int to = 0;
  int group = 0;
  int round = 0;
  std::vector<IterRange> ranges;
};

struct FtState {
  LoopContext* ctx = nullptr;
  fault::FaultInjector* injector = nullptr;
  fault::CoverageChecker coverage;
  int loop_index = 0;
  /// Group that owns each iteration index (fixed by the initial partition).
  std::vector<int> group_of_iter;

  /// Derived from the loop's longest iteration (auto_ack_timeout_seconds).
  sim::SimTime ack_timeout = 0;

  std::vector<FtShipment> ledger;
  std::uint64_t next_ship = 1;

  // Per-group authoritative state (single-threaded simulation: the
  // coordinator of the moment writes, everyone reads).
  std::vector<IterationSet> lost;  // dead members' work awaiting reclaim
  std::vector<int> round;
  std::vector<std::vector<int>> active;
  std::vector<char> done;
  std::vector<std::optional<OutcomeMsg>> last_outcome;
  std::vector<std::int64_t> group_iters;
  std::vector<std::int64_t> group_covered;
  std::size_t groups_done = 0;

  // Centralized strategies: which station hosts the balancer, and whether an
  // incarnation of it is currently running (failover dedup flag).
  int balancer = 0;
  bool balancer_live = false;

  std::vector<std::vector<sim::SimTime>> last_heard;  // [observer][peer]
  std::vector<std::unique_ptr<sim::CancellableSleep>> hb_sleep;
  /// Iteration each proc has popped but not yet recorded; -1 when none.  A
  /// crash between pop and record would otherwise silently lose that index.
  std::vector<std::int64_t> current_iter;
  bool stop = false;

  /// A recovery slave recruited for a group whose members all died.  It gets
  /// its own owned set so it can coexist with the recruit's regular slave,
  /// and lives as long as its host.
  struct Recovery {
    int proc = 0;
    int group = 0;
    IterationSet owned;
    std::int64_t current = -1;
  };
  std::vector<std::unique_ptr<Recovery>> recoveries;
};

/// Slave-local state, living in the slave coroutine frame: the fault-free
/// round window plus what the fault-tolerant rounds track.
struct FtSlaveState : SlaveState {
  int group = 0;
  int suspicion_round = -1;  // last round we initiated a suspicion sync for
  int pending_sync = -1;     // interrupt round seen while mid-apply
  /// Shipments already folded in, as (round, from) — distinguishes "sender
  /// has not shipped yet" from "already absorbed via a background drain".
  std::vector<std::pair<int, int>> absorbed;
};

bool is_alive(const FtState& ft, int p) { return ft.injector->alive(p); }

/// Retry bookkeeping shared by every retransmission site: the injector's
/// counter always, plus an observability mark when the recorder is armed.
void count_retry(FtState& ft, int proc) {
  ++ft.injector->stats().retries;
  if (ft.ctx->obs != nullptr) {
    ft.ctx->obs->instant(proc, obs::InstantKind::kRetry, ft.ctx->cluster->engine().now());
    ft.ctx->obs->metrics().counter("proto.retries").increment();
  }
}

void note_heard(FtState& ft, int observer, int peer) {
  if (peer < 0 || peer >= ft.ctx->procs()) return;
  ft.last_heard[static_cast<std::size_t>(observer)][static_cast<std::size_t>(peer)] =
      ft.ctx->cluster->engine().now();
}

sim::SimTime backoff_deadline(const FtState& ft, int attempt) {
  double mult = 1.0;
  for (int i = 0; i < std::min(attempt, kMaxBackoffAttempt); ++i) mult *= kBackoffFactor;
  return ft.ctx->cluster->engine().now() +
         sim::from_seconds(sim::to_seconds(ft.ack_timeout) * mult);
}

/// Marks group g finished; the last group to finish stops the heartbeats.
void finalize_group(FtState& ft, int g) {
  if (ft.done[static_cast<std::size_t>(g)] != 0) return;
  ft.done[static_cast<std::size_t>(g)] = 1;
  if (++ft.groups_done < ft.ctx->groups.size()) return;
  ft.stop = true;
  for (auto& sleep : ft.hb_sleep) {
    if (sleep) sleep->cancel();
  }
}

/// Hands one uncovered iteration back to its group's lost pool.
void surrender_index(FtState& ft, std::int64_t i) {
  const int g = ft.group_of_iter[static_cast<std::size_t>(i)];
  if (ft.done[static_cast<std::size_t>(g)] != 0) {
    throw std::logic_error("fault: lost work surfaced in a finished group");
  }
  ft.lost[static_cast<std::size_t>(g)].add({i, i + 1});
}

void surrender_span(FtState& ft, std::int64_t lo, std::int64_t hi) {
  for (std::int64_t i = lo; i < hi; ++i) surrender_index(ft, i);
}

/// Hands an owned set and the iteration in progress (`current`, -1 when
/// none) back to the lost pools.
void surrender_holdings(FtState& ft, IterationSet& owned, std::int64_t& current) {
  for (const auto& r : owned.take_back(owned.size())) surrender_span(ft, r.lo, r.hi);
  if (current >= 0) surrender_index(ft, current);
  current = -1;
}

/// Moves the ledger entries `doomed` selects back to the lost pools.
template <typename Doomed>
void surrender_shipments(FtState& ft, Doomed doomed) {
  for (auto it = ft.ledger.begin(); it != ft.ledger.end();) {
    if (!doomed(*it)) {
      ++it;
      continue;
    }
    for (const auto& r : it->ranges) surrender_span(ft, r.lo, r.hi);
    it = ft.ledger.erase(it);
  }
}

/// Moves ledger entries of group `g` with a dead endpoint back to the lost
/// pool.  Entries created after their receiver died (a transfer planned from
/// a stale profile) are otherwise never swept by the death handler.
void sweep_dead_ledger(FtState& ft, int g) {
  surrender_shipments(ft, [&ft, g](const FtShipment& s) {
    return s.group == g && (!is_alive(ft, s.from) || !is_alive(ft, s.to));
  });
}

bool group_has_ledger(const FtState& ft, int g) {
  return std::any_of(ft.ledger.begin(), ft.ledger.end(),
                     [g](const FtShipment& s) { return s.group == g; });
}

// ---------------------------------------------------------------------------
// Message handling shared by the compute loop and every wait loop.
// ---------------------------------------------------------------------------

/// Handles one message the slave waits on ([kTagInterrupt, kTagHeartbeat]).
/// Returns true for an interrupt that should pull the slave into a
/// synchronization.
sim::Task<bool> handle_bg(FtState& ft, int self, FtSlaveState& st, sim::Message m) {
  auto& ctx = *ft.ctx;
  note_heard(ft, self, m.source);
  switch (m.tag) {
    case kTagWork: {
      const std::uint64_t ship = m.as<WorkMsg>().ship;
      const auto it = std::find_if(ft.ledger.begin(), ft.ledger.end(),
                                   [ship](const FtShipment& s) { return s.id == ship; });
      if (it != ft.ledger.end()) {
        for (const auto& r : it->ranges) ctx.owned[static_cast<std::size_t>(self)].add(r);
        st.absorbed.emplace_back(it->round, it->from);
        ft.ledger.erase(it);
      }
      // Ack unconditionally: a missing entry means a duplicate of a shipment
      // we already absorbed, and the sender needs the ack it lost.  The
      // sender's retry loop watches the ledger, so the ack carries nothing.
      co_await ctx.cluster->station(self).send(m.source, kTagAck, std::any{},
                                                net::kControlMessageBytes, /*droppable=*/false);
      co_return false;
    }
    case kTagInterrupt:
      co_return m.as<InterruptMsg>().round >= st.round;
    default:  // a heartbeat, an ack (retry loops watch the ledger) or a stale outcome
      co_return false;
  }
}

/// A profile from a straggler of group `group` that missed an outcome — its
/// round is over, or the group finished — is answered from the outcome cache.
/// Returns true when `pm` was such a profile.
sim::Task<bool> answer_stale_profile(FtState& ft, int station_id, int group, ProfileMsg pm) {
  const auto g = static_cast<std::size_t>(group);
  if (ft.done[g] == 0 && pm.round >= ft.round[g]) co_return false;
  if (ft.last_outcome[g]) {
    co_await ft.ctx->cluster->station(station_id)
        .send(pm.snapshot.proc, kTagOutcome, *ft.last_outcome[g], net::kControlMessageBytes,
              /*droppable=*/false);
  }
  co_return true;
}

/// Distributed strategies: examine the profile tag without wrongly consuming
/// a current-round profile addressed to us as coordinator.  Stale profiles
/// (a straggler that missed an outcome) are answered from the cache; a
/// current one is requeued and reported as a sync trigger.
sim::Task<bool> peek_profiles(FtState& ft, int self, FtSlaveState& st) {
  auto& me = ft.ctx->cluster->station(self);
  for (;;) {
    auto m = me.poll(kTagProfile);
    if (!m) co_return false;
    const auto pm = m->as<ProfileMsg>();
    note_heard(ft, self, pm.snapshot.proc);
    if (co_await answer_stale_profile(ft, self, st.group, pm)) continue;
    // dlblint:allow(shard-isolation) re-queue into this proc's own mailbox: self to self
    me.mailbox().deliver(std::move(*m));  // put it back for the collection
    co_return true;
  }
}

/// The profiles a collector gathered this round, indexed by proc.
using Collected = std::vector<std::optional<ProfileSnapshot>>;

/// Files a collected profile under its sender; true when it is the first
/// from that member this round.
bool collect_profile(FtState& ft, int collector, const sim::Message& m, Collected& got) {
  const ProfileSnapshot& snapshot = m.as<ProfileMsg>().snapshot;
  note_heard(ft, collector, snapshot.proc);
  auto& slot = got[static_cast<std::size_t>(snapshot.proc)];
  const bool first = !slot.has_value();
  slot = snapshot;
  return first;
}

/// Live active members of group g whose profile has not arrived.
std::vector<int> missing_members(const FtState& ft, int g, const Collected& got) {
  std::vector<int> missing;
  for (const int p : ft.active[static_cast<std::size_t>(g)]) {
    if (!got[static_cast<std::size_t>(p)] && is_alive(ft, p)) missing.push_back(p);
  }
  return missing;
}

int coordinator_of(const FtState& ft, int g) {
  if (ft.ctx->centralized) return ft.balancer;
  const auto& active = ft.active[static_cast<std::size_t>(g)];
  return active.empty() ? -1 : *std::min_element(active.begin(), active.end());
}

/// Hands group g's lost pool to `into` after `station` spent the reclaim
/// bookkeeping (kRecoverOps of CPU since `began`), and counts the recovery.
void reclaim_lost(FtState& ft, int station, int g, IterationSet& into, sim::SimTime began) {
  auto& ctx = *ft.ctx;
  auto& pool = ft.lost[static_cast<std::size_t>(g)];
  const std::int64_t n = pool.size();
  for (const auto& r : pool.take_back(n)) into.add(r);
  ++ft.injector->stats().recoveries;
  ft.injector->stats().iterations_recovered += n;
  const sim::SimTime now = ctx.cluster->engine().now();
  if (ctx.obs != nullptr && began != now) {
    ctx.obs->activity(station, obs::ActivityKind::kRecover, began, now);
    ctx.obs->phase(station, obs::PhaseKind::kRecovery, began, now, n);
  }
}

// ---------------------------------------------------------------------------
// Decision: collection results -> verdict.  Shared by the distributed
// coordinator and the centralized balancer.
// ---------------------------------------------------------------------------

sim::Task<OutcomeMsg> ft_decide(FtState& ft, int station_id, int g, Collected& got,
                                bool centralized_overhead, int initiator) {
  auto& ctx = *ft.ctx;
  auto& me = ctx.cluster->station(station_id);
  const int round = ft.round[static_cast<std::size_t>(g)];

  sweep_dead_ledger(ft, g);

  // A member that profiled and then died must not count: its stale snapshot
  // would re-enter it into active_after, resurrecting a dead rank that
  // on_death already pruned — and the next collection would wait on it
  // forever.
  for (int p = 0; p < ctx.procs(); ++p) {
    if (got[static_cast<std::size_t>(p)] && !is_alive(ft, p)) {
      got[static_cast<std::size_t>(p)].reset();
    }
  }

  const auto lowest = std::find_if(got.begin(), got.end(),
                                   [](const auto& snapshot) { return snapshot.has_value(); });
  auto& pool = ft.lost[static_cast<std::size_t>(g)];
  if (!pool.empty() && lowest != got.end()) {
    // Reclaim: the lowest-ranked participant inherits the dead members'
    // iterations.  The bookkeeping occupies the CPU like any decision work.
    const sim::SimTime began = me.engine().now();
    co_await me.compute(kRecoverOps);
    reclaim_lost(ft, station_id, g, ctx.owned[static_cast<std::size_t>(lowest - got.begin())],
                 began);
  }

  // Profiles report what each member owned when it parked; refresh from the
  // ground truth so reclaims and stale-shipment absorptions are counted.
  std::vector<ProfileSnapshot> profiles;
  std::vector<int> participants;
  for (int p = 0; p < ctx.procs(); ++p) {
    if (!got[static_cast<std::size_t>(p)]) continue;
    got[static_cast<std::size_t>(p)]->remaining = ctx.owned[static_cast<std::size_t>(p)].size();
    profiles.push_back(*got[static_cast<std::size_t>(p)]);
    participants.push_back(p);
  }

  co_await me.compute(kDecisionOps + (centralized_overhead ? kBalancerOverheadOps : 0.0));
  const Decision d = decide(profiles, ctx.config);
  // Done means *executed*, not merely distributed: participant remaining
  // counts miss work a parked (inactive) member absorbed from a retried
  // shipment, so test the coverage ground truth instead.
  const bool loop_done = ft.group_covered[static_cast<std::size_t>(g)] ==
                             ft.group_iters[static_cast<std::size_t>(g)] &&
                         pool.empty() && !group_has_ledger(ft, g);

  OutcomeMsg out;
  out.round = round;
  out.loop_done = loop_done;
  out.moved = d.moved;
  out.transfers = d.transfers;
  if (!loop_done) {
    out.active_after = remove_inactive(participants, d.newly_inactive);
    // Never leave the group driverless while work could still resurface
    // from a late death: keep the lowest participant active even if idle —
    // it will initiate the next round immediately and settle the group.
    // (With no live participant at all, on_death's stranded-group check has
    // already recruited a recovery slave; leave active_after empty.)
    if (out.active_after.empty() && !participants.empty()) {
      out.active_after.push_back(participants.front());
    }
  }
  record_event(ctx, g, round, initiator, d);

  ft.last_outcome[static_cast<std::size_t>(g)] = out;
  ft.round[static_cast<std::size_t>(g)] = round + 1;
  ft.active[static_cast<std::size_t>(g)] = out.active_after;
  if (loop_done) finalize_group(ft, g);
  co_return out;
}

// ---------------------------------------------------------------------------
// Applying a verdict on a member: ship with ack/retry, receive with bounded
// wait, advance the round window.
// ---------------------------------------------------------------------------

/// One backoff window of ft_apply: until `deadline` or until `settled()`
/// holds, absorb shipments and note interrupts of later rounds for after
/// the apply.  Returns false when `self` died meanwhile.
template <typename Settled>
sim::Task<bool> apply_window(FtState& ft, int self, FtSlaveState& st, sim::SimTime deadline,
                             Settled settled) {
  auto& me = ft.ctx->cluster->station(self);
  while (me.engine().now() < deadline && !settled()) {
    std::optional<sim::Message> m =
        co_await me.receive_until(deadline, {kTagInterrupt, kTagHeartbeat});
    if (!is_alive(ft, self)) co_return false;
    if (!m) break;
    if (m->tag == kTagInterrupt) {
      note_heard(ft, self, m->source);
      const int round = m->as<InterruptMsg>().round;
      if (round > st.round) st.pending_sync = round;
      continue;
    }
    (void)co_await handle_bg(ft, self, st, std::move(*m));
  }
  co_return true;
}

sim::Task<FtStatus> ft_apply(FtState& ft, int self, FtSlaveState& st, OutcomeMsg out) {
  auto& ctx = *ft.ctx;
  auto& me = ctx.cluster->station(self);
  auto& mine = ctx.owned[static_cast<std::size_t>(self)];
  const int g = st.group;
  if (out.loop_done) co_return FtStatus::kLoopDone;

  const sim::SimTime move_began = me.engine().now();
  if (out.moved) {
    for (const auto& t : out.transfers) {
      if (t.from != self || t.count <= 0) continue;
      const std::int64_t count = std::min(t.count, mine.size());
      if (count <= 0) continue;
      // The ranges travel in the ledger entry; the message names it.
      WorkMsg wm;
      wm.round = out.round;
      wm.ship = ft.next_ship++;
      ft.ledger.push_back({wm.ship, self, t.to, g, out.round, mine.take_back(count)});
      const std::size_t bytes =
          net::kControlMessageBytes +
          ctx.cluster->network().frame_bytes(static_cast<double>(count) *
                                             ctx.loop->bytes_per_iteration);
      // Resolved once the receiver absorbed it or a death sweep reclaimed it.
      const auto resolved = [&ft, ship = wm.ship] {
        return std::none_of(ft.ledger.begin(), ft.ledger.end(),
                            [ship](const FtShipment& s) { return s.id == ship; });
      };
      int attempt = 0;
      while (!resolved()) {
        if (!is_alive(ft, self)) co_return FtStatus::kDead;
        if (!is_alive(ft, t.to)) break;  // the death sweep reclaimed the entry
        co_await me.send(t.to, kTagWork, wm, bytes, /*droppable=*/attempt == 0);
        if (!is_alive(ft, self)) co_return FtStatus::kDead;
        if (!co_await apply_window(ft, self, st, backoff_deadline(ft, attempt), resolved)) {
          co_return FtStatus::kDead;
        }
        if (!resolved() && is_alive(ft, t.to)) {
          ++attempt;  // ground truth says the peer lives: keep retrying
          count_retry(ft, self);
        }
      }
    }
    for (const auto& t : out.transfers) {
      if (t.to != self || t.count <= 0) continue;
      const auto absorbed = [&st, shipped = std::pair{out.round, t.from}] {
        return std::find(st.absorbed.begin(), st.absorbed.end(), shipped) != st.absorbed.end();
      };
      int attempt = 0;
      while (!absorbed()) {
        if (!is_alive(ft, self)) co_return FtStatus::kDead;
        if (!is_alive(ft, t.from)) break;  // its shipment (if any) went to the lost pool
        if (attempt > kMaxRetries) break;  // sender stuck in an older round keeps the work
        if (!co_await apply_window(ft, self, st, backoff_deadline(ft, attempt), absorbed)) {
          co_return FtStatus::kDead;
        }
        if (!absorbed()) ++attempt;
      }
    }
    if (ctx.obs != nullptr) {
      ctx.obs->activity(self, obs::ActivityKind::kMove, move_began, me.engine().now());
    }
  }

  st.active = out.active_after;
  st.round = out.round + 1;  // skip-ahead: a straggler jumps to the latest round
  st.window_start = me.engine().now();
  st.done_in_window = 0;
  std::erase_if(st.absorbed, [&st](const auto& a) { return a.first < st.round - 2; });
  const bool still_active = std::find(out.active_after.begin(), out.active_after.end(), self) !=
                            out.active_after.end();
  co_return still_active ? FtStatus::kContinue : FtStatus::kInactive;
}

// ---------------------------------------------------------------------------
// Coordinator round (distributed strategies): the lowest surviving active
// member collects profiles, decides, announces, applies its own part.
// ---------------------------------------------------------------------------

sim::Task<FtStatus> ft_coordinate(FtState& ft, int self, FtSlaveState& st) {
  auto& ctx = *ft.ctx;
  auto& me = ctx.cluster->station(self);
  const int g = st.group;
  const int round = ft.round[static_cast<std::size_t>(g)];

  Collected got(static_cast<std::size_t>(ctx.procs()));
  got[static_cast<std::size_t>(self)] = make_snapshot(ctx, self, st);

  int attempt = 0;
  for (;;) {
    if (!is_alive(ft, self)) co_return FtStatus::kDead;
    if (missing_members(ft, g, got).empty()) break;
    // The deadline is fixed per attempt: heartbeats and absorbed shipments
    // arrive inside this window without pushing it out, otherwise steady
    // background traffic starves the re-ping and a member whose interrupt
    // was dropped never learns the round started.
    const sim::SimTime deadline = backoff_deadline(ft, attempt);
    while (me.engine().now() < deadline && !missing_members(ft, g, got).empty()) {
      // Wait on the slave's tags and the profile tag, so work shipments
      // from members still applying the previous round get absorbed and
      // acked instead of deadlocking against our collection.
      auto m = co_await me.receive_until(deadline, {kTagInterrupt, kTagProfile});
      if (!is_alive(ft, self)) co_return FtStatus::kDead;
      if (!m) break;
      if (m->tag == kTagProfile) {
        collect_profile(ft, self, *m, got);
      } else if (m->tag == kTagInterrupt) {
        note_heard(ft, self, m->source);  // members joining; already collecting
      } else {
        (void)co_await handle_bg(ft, self, st, std::move(*m));
      }
    }
    const auto missing = missing_members(ft, g, got);
    if (missing.empty()) break;
    // Timeout: re-ping the missing.  They are alive by ground truth (death
    // erases a member from the active set synchronously), so the interrupt
    // reaches a live straggler — stuck in an old round or just slow.
    const InterruptMsg im{round};
    for (const int q : missing) {
      co_await me.send(q, kTagInterrupt, im, net::kControlMessageBytes, /*droppable=*/false);
      count_retry(ft, self);
      if (!is_alive(ft, self)) co_return FtStatus::kDead;
    }
    ++attempt;
  }

  OutcomeMsg out = co_await ft_decide(ft, self, g, got, /*centralized_overhead=*/false,
                                      /*initiator=*/-1);
  if (!is_alive(ft, self)) co_return FtStatus::kDead;

  std::vector<int> others;
  for (int p = 0; p < ctx.procs(); ++p) {
    if (p != self && got[static_cast<std::size_t>(p)]) others.push_back(p);
  }
  // The final verdict must arrive: a straggler that misses loop_done would
  // retry forever against a group that no longer answers.
  co_await me.multicast(others, kTagOutcome, out, net::kControlMessageBytes,
                        /*droppable=*/!out.loop_done);
  if (!is_alive(ft, self)) co_return FtStatus::kDead;
  co_return co_await ft_apply(ft, self, st, out);
}

// ---------------------------------------------------------------------------
// Participation: profile with retry/backoff, failover on coordinator death.
// ---------------------------------------------------------------------------

sim::Process ft_central_balancer(FtState& ft, int station_id);  // fwd

sim::Task<FtStatus> ft_participate(FtState& ft, int self, FtSlaveState& st) {
  auto& ctx = *ft.ctx;
  auto& me = ctx.cluster->station(self);
  const int g = st.group;
  int attempt = 0;
  for (;;) {
    if (!is_alive(ft, self)) co_return FtStatus::kDead;
    if (ft.done[static_cast<std::size_t>(g)] != 0) co_return FtStatus::kLoopDone;

    if (!ctx.centralized && coordinator_of(ft, g) == self) {
      co_return co_await ft_coordinate(ft, self, st);
    }
    if (ctx.centralized && (!ft.balancer_live || !is_alive(ft, ft.balancer))) {
      // Deterministic successor election: the lowest surviving rank hosts
      // the next balancer incarnation.  Any participant may notice and spawn
      // it there; the live flag dedups concurrent observers.
      if (!ft.balancer_live) {
        const int successor = ft.injector->first_alive();
        ft.balancer = successor;
        ft.balancer_live = true;
        me.engine().spawn(ft_central_balancer(ft, successor));
      } else {
        // on_death retires a dead balancer synchronously, so this branch is
        // unreachable in practice — but never spin without yielding.
        co_await me.busy(kHeartbeatPeriod);
      }
      continue;
    }

    const int coord = coordinator_of(ft, g);
    const ProfileMsg pm{st.round, make_snapshot(ctx, self, st)};
    const int profile_tag = ctx.centralized ? central_profile_tag(g) : kTagProfile;
    co_await me.send(coord, profile_tag, pm, net::kControlMessageBytes,
                     /*droppable=*/attempt == 0);
    if (!is_alive(ft, self)) co_return FtStatus::kDead;

    const sim::SimTime deadline = backoff_deadline(ft, attempt);
    bool resend_now = false;
    while (me.engine().now() < deadline) {
      auto m = co_await me.receive_until(deadline, {kTagInterrupt, kTagHeartbeat});
      if (!is_alive(ft, self)) co_return FtStatus::kDead;
      if (!m) break;
      if (m->tag == kTagOutcome) {
        const auto& om = m->as<OutcomeMsg>();
        note_heard(ft, self, m->source);
        if (om.round >= st.round) {
          co_return co_await ft_apply(ft, self, st, om);
        }
        continue;  // stale duplicate
      }
      if (m->tag == kTagInterrupt) {
        note_heard(ft, self, m->source);
        if (m->as<InterruptMsg>().round >= st.round) {
          resend_now = true;  // a re-ping: the coordinator is collecting
          break;
        }
        continue;
      }
      (void)co_await handle_bg(ft, self, st, std::move(*m));
    }
    if (!resend_now) count_retry(ft, self);
    ++attempt;  // keep retrying: a live coordinator answers eventually
  }
}

// ---------------------------------------------------------------------------
// The processes.
// ---------------------------------------------------------------------------

/// Runs the next iteration of `owned` on `proc` for group g, parking its
/// index in `current` for the death sweep, and covers it if the station
/// survived.  Returns false once `proc` is dead.
sim::Task<bool> execute_and_cover(FtState& ft, int proc, int g, IterationSet& owned,
                                  std::int64_t& current) {
  auto& ctx = *ft.ctx;
  const std::int64_t index = owned.pop_front();
  current = index;
  const sim::SimTime began = ctx.cluster->engine().now();
  co_await execute_iteration(ctx, proc, index);
  if (!is_alive(ft, proc)) co_return false;  // died mid-iteration: the result is discarded
  current = -1;
  ft.coverage.record(index, proc);
  ++ft.group_covered[static_cast<std::size_t>(g)];
  count_iteration(ctx, proc, began);
  ft.injector->on_progress(ft.loop_index, ft.coverage.covered(), ft.coverage.total());
  co_return is_alive(ft, proc);
}

bool suspicious(const FtState& ft, int self, const FtSlaveState& st) {
  const sim::SimTime now = ft.ctx->cluster->engine().now();
  for (const int q : st.active) {
    if (q == self || q < 0 || q >= ft.ctx->procs()) continue;
    if (now - ft.last_heard[static_cast<std::size_t>(self)][static_cast<std::size_t>(q)] >
        kHeartbeatTimeout) {
      return true;
    }
  }
  return false;
}

sim::Process ft_dlb_slave(FtState& ft, int self, int group) {
  auto& ctx = *ft.ctx;
  auto& me = ctx.cluster->station(self);
  auto& mine = ctx.owned[static_cast<std::size_t>(self)];

  FtSlaveState st;
  st.group = group;
  st.round = ft.round[static_cast<std::size_t>(group)];
  st.active = ft.active[static_cast<std::size_t>(group)];
  st.window_start = me.engine().now();

  while (is_alive(ft, self) && ft.done[static_cast<std::size_t>(group)] == 0) {
    bool join_sync = false;
    while (auto m = me.poll({kTagInterrupt, kTagHeartbeat})) {
      if (co_await handle_bg(ft, self, st, std::move(*m))) join_sync = true;
      if (!is_alive(ft, self)) break;
    }
    if (!is_alive(ft, self)) break;
    if (!ctx.centralized) {
      if (co_await peek_profiles(ft, self, st)) join_sync = true;
      if (!is_alive(ft, self)) break;
    }
    if (st.pending_sync >= st.round) {
      join_sync = true;
      st.pending_sync = -1;
    }

    bool initiate = false;
    if (!join_sync && mine.empty()) {
      initiate = true;  // first finisher (§3.1)
    } else if (!join_sync && st.suspicion_round < st.round && suspicious(ft, self, st)) {
      // A silent peer: force an early round so its work is reclaimed before
      // the survivors run dry.
      st.suspicion_round = st.round;
      initiate = true;
    }

    if (join_sync || initiate) {
      const sim::SimTime sync_began = me.engine().now();
      if (initiate) {
        const InterruptMsg im{st.round};
        co_await me.multicast(st.active, kTagInterrupt, im, net::kControlMessageBytes);
        if (!is_alive(ft, self)) break;
      }
      const FtStatus status = co_await ft_participate(ft, self, st);
      if (ctx.obs != nullptr) {
        ctx.obs->activity(self, obs::ActivityKind::kSync, sync_began, me.engine().now());
      }
      if (status == FtStatus::kDead || status == FtStatus::kLoopDone) break;
      if (status == FtStatus::kInactive) {
        // Parked: out of the round set with nothing left, but a shipment
        // decided before we went inactive can still be in flight — its
        // sender retries until we absorb and ack it.  Keep draining; rejoin
        // the rounds if work or a current interrupt lands here.
        while (is_alive(ft, self) && ft.done[static_cast<std::size_t>(group)] == 0 &&
               mine.empty() && st.pending_sync < st.round) {
          auto m = co_await me.receive_until(me.engine().now() + kHeartbeatPeriod,
                                             {kTagInterrupt, kTagHeartbeat});
          if (!m) continue;
          if (co_await handle_bg(ft, self, st, std::move(*m))) {
            st.pending_sync = std::max(st.pending_sync, st.round);
          }
        }
      }
      continue;
    }

    if (!co_await execute_and_cover(ft, self, group, mine,
                                    ft.current_iter[static_cast<std::size_t>(self)])) {
      break;
    }
    ++st.done_in_window;
  }
  ctx.finished_at[static_cast<std::size_t>(self)] =
      std::max(ctx.finished_at[static_cast<std::size_t>(self)], me.engine().now());
}

sim::Process ft_central_balancer(FtState& ft, int station_id) {
  auto& ctx = *ft.ctx;
  auto& me = ctx.cluster->station(station_id);
  ft.balancer = station_id;
  ft.balancer_live = true;
  const sim::Tags any_group{central_profile_tag(0),
                            central_profile_tag(static_cast<int>(ctx.groups.size()) - 1)};

  while (!ft.stop && ft.groups_done < ctx.groups.size()) {
    if (!is_alive(ft, station_id)) break;
    auto first = co_await me.receive_until(me.engine().now() + kHeartbeatPeriod, any_group);
    if (!is_alive(ft, station_id)) break;
    if (!first) continue;
    const int profile_tag = first->tag;
    const int g = profile_tag - kTagCentralProfileBase;
    const auto pm0 = first->as<ProfileMsg>();
    note_heard(ft, station_id, pm0.snapshot.proc);
    if (co_await answer_stale_profile(ft, station_id, g, pm0)) continue;

    Collected got(static_cast<std::size_t>(ctx.procs()));
    got[static_cast<std::size_t>(pm0.snapshot.proc)] = pm0.snapshot;
    // Collect until no live member is missing; a dead station abandons the
    // collection to its successor.
    int attempt = 0;
    for (;;) {
      if (!is_alive(ft, station_id)) break;
      // Profiles of other groups queue behind this collection — the LCDLB
      // serialization delay, same as the fault-free balancer.
      while (auto q = me.poll(profile_tag)) {
        collect_profile(ft, station_id, *q, got);
      }
      const auto missing = missing_members(ft, g, got);
      if (missing.empty()) break;
      // Fixed deadline per attempt: retried profiles from one straggler must
      // not keep pushing the window out and starve the re-ping of another.
      const sim::SimTime deadline = backoff_deadline(ft, attempt);
      bool heard = false;
      while (me.engine().now() < deadline) {
        auto m = co_await me.receive_until(deadline, profile_tag);
        if (!m || !is_alive(ft, station_id)) break;
        if (collect_profile(ft, station_id, *m, got)) heard = true;
      }
      if (!is_alive(ft, station_id)) break;
      if (heard) continue;  // progress: re-evaluate who is still missing
      const InterruptMsg im{ft.round[static_cast<std::size_t>(g)]};
      for (const int q : missing) {
        co_await me.send(q, kTagInterrupt, im, net::kControlMessageBytes, /*droppable=*/false);
        count_retry(ft, station_id);
      }
      ++attempt;
    }
    if (!is_alive(ft, station_id)) break;

    OutcomeMsg out = co_await ft_decide(ft, station_id, g, got, /*centralized_overhead=*/true,
                                        /*initiator=*/pm0.snapshot.proc);
    if (!is_alive(ft, station_id)) break;
    std::vector<int> recipients;
    bool self_in_group = false;
    for (int p = 0; p < ctx.procs(); ++p) {
      if (!got[static_cast<std::size_t>(p)]) continue;
      recipients.push_back(p);
      if (p == station_id) self_in_group = true;
    }
    co_await me.multicast(recipients, kTagOutcome, out, net::kControlMessageBytes,
                          /*droppable=*/!out.loop_done);
    if (self_in_group && is_alive(ft, station_id)) {
      co_await me.send(station_id, kTagOutcome, out, net::kControlMessageBytes,
                       /*droppable=*/false);
    }
  }
  // A dead incarnation is retired by on_death the moment it dies; by the
  // time its coroutine unwinds here a successor may already be live, so only
  // clear the flag if this incarnation still holds the post.
  if (ft.balancer == station_id) ft.balancer_live = false;
}

sim::Process ft_heartbeat_emitter(FtState& ft, int self, int group) {
  auto& ctx = *ft.ctx;
  auto& me = ctx.cluster->station(self);
  auto* sleep = ft.hb_sleep[static_cast<std::size_t>(self)].get();
  // Deterministic per-rank phase offset so the beats don't collide on the
  // shared medium in lockstep.
  sim::SimTime wait = kHeartbeatPeriod + kHeartbeatPeriod * self / std::max(1, ctx.procs());
  for (;;) {
    const bool expired = co_await sleep->wait_for(wait);
    wait = kHeartbeatPeriod;
    if (!expired || ft.stop || !is_alive(ft, self)) break;
    if (ft.done[static_cast<std::size_t>(group)] != 0) break;
    const auto& peers = ft.active[static_cast<std::size_t>(group)];
    if (!peers.empty()) {
      // Receivers note the source; the beacon carries nothing.
      co_await me.multicast(peers, kTagHeartbeat, std::any{}, net::kControlMessageBytes);
    }
  }
}

/// Disaster recovery: every member of the group died, so a surviving station
/// (possibly from another group) is recruited to drain the lost pool.  It
/// keeps its own owned set, leaving the recruit's regular slave untouched.
sim::Process ft_recovery_slave(FtState& ft, FtState::Recovery& rec) {
  auto& ctx = *ft.ctx;
  auto& me = ctx.cluster->station(rec.proc);
  const int g = rec.group;

  while (is_alive(ft, rec.proc) && ft.done[static_cast<std::size_t>(g)] == 0) {
    if (rec.owned.empty()) {
      sweep_dead_ledger(ft, g);
      auto& pool = ft.lost[static_cast<std::size_t>(g)];
      if (pool.empty()) {
        if (ft.group_covered[static_cast<std::size_t>(g)] ==
            ft.group_iters[static_cast<std::size_t>(g)]) {
          finalize_group(ft, g);
        } else {
          // Work is still in flight somewhere (a live shipment between two
          // procs that died an instant later sweeps into the pool next
          // round); idle one heartbeat and look again.
          co_await me.busy(kHeartbeatPeriod);
        }
        continue;
      }
      const sim::SimTime began = me.engine().now();
      co_await me.compute(kRecoverOps);
      if (!is_alive(ft, rec.proc)) break;
      reclaim_lost(ft, rec.proc, g, rec.owned, began);
      continue;
    }
    if (!co_await execute_and_cover(ft, rec.proc, g, rec.owned, rec.current)) break;
  }
  ctx.finished_at[static_cast<std::size_t>(rec.proc)] =
      std::max(ctx.finished_at[static_cast<std::size_t>(rec.proc)], me.engine().now());
}

// ---------------------------------------------------------------------------
// Death handling: the simulation-side sweep that makes exactly-once hold.
// ---------------------------------------------------------------------------

/// Runs after the caller's death handler, which has already powered the
/// station off and flushed its mailbox waiters.
void on_death(FtState& ft, int p) {
  auto& ctx = *ft.ctx;
  if (ft.hb_sleep[static_cast<std::size_t>(p)]) ft.hb_sleep[static_cast<std::size_t>(p)]->cancel();
  if (ft.ctx->centralized && p == ft.balancer) {
    // Retire the incarnation now: its coroutine may be parked mid-send or
    // mid-compute and only unwinds when that event fires, and participants
    // must not wait for that to elect the successor.
    ft.balancer_live = false;
  }

  // 1. Unexecuted iterations it owned, and the one it was executing
  // (popped but not yet recorded).
  surrender_holdings(ft, ctx.owned[static_cast<std::size_t>(p)],
                     ft.current_iter[static_cast<std::size_t>(p)]);
  // 2. Its completed results die with it — unless the group already
  // finished, in which case the results were consumed and stand.
  for (const auto& [lo, hi] : ft.coverage.wipe(p)) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const int g = ft.group_of_iter[static_cast<std::size_t>(i)];
      if (ft.done[static_cast<std::size_t>(g)] != 0) {
        ft.coverage.record(i, p);  // un-wipe: the finished group keeps it
      } else {
        --ft.group_covered[static_cast<std::size_t>(g)];
        surrender_index(ft, i);
      }
    }
  }
  // 3. In-flight shipments it sent or was about to receive.
  surrender_shipments(ft, [p](const FtShipment& s) { return s.from == p || s.to == p; });
  // 4. Recovery slaves it was hosting.
  for (auto& rec : ft.recoveries) {
    if (rec->proc == p) surrender_holdings(ft, rec->owned, rec->current);
  }
  // 5. It no longer takes part in any round.
  for (auto& members : ft.active) std::erase(members, p);

  // 6. Stranded groups: no active member left to drive the rounds.  If work
  // remains, recruit the lowest surviving rank as a recovery slave; if not,
  // the group is finished.
  for (std::size_t g = 0; g < ft.active.size(); ++g) {
    if (ft.done[g] != 0 || !ft.active[g].empty()) continue;
    bool has_live_recovery = false;
    for (const auto& rec : ft.recoveries) {
      if (rec->group == static_cast<int>(g) && is_alive(ft, rec->proc)) has_live_recovery = true;
    }
    if (has_live_recovery) continue;
    if (ft.group_covered[g] == ft.group_iters[g]) {
      finalize_group(ft, static_cast<int>(g));
      continue;
    }
    const int recruit = ft.injector->first_alive();
    auto rec = std::make_unique<FtState::Recovery>();
    rec->proc = recruit;
    rec->group = static_cast<int>(g);
    ft.recoveries.push_back(std::move(rec));
    ctx.cluster->engine().spawn(ft_recovery_slave(ft, *ft.recoveries.back()));
  }
}

double auto_ack_timeout_seconds(const LoopDescriptor& loop, const cluster::Cluster& cluster) {
  double max_ops = 1.0;
  const std::int64_t stride = std::max<std::int64_t>(1, loop.iterations / 65536);
  for (std::int64_t i = 0; i < loop.iterations; i += stride) {
    max_ops = std::max(max_ops, loop.ops_of(i));
  }
  double min_speed = 1.0;
  for (const double s : cluster.params().speeds) min_speed = std::min(min_speed, s);
  const double rate = cluster.params().base_ops_per_sec * std::max(min_speed, 1e-6);
  // Several times the slowest bare-iteration time: external load stretches
  // iterations, but a too-short timeout only costs a retransmission — the
  // ground-truth death check keeps false timeouts from escalating.
  return std::max(4.0 * kHeartbeatPeriodSeconds, 6.0 * max_ops / rate);
}

}  // namespace

LoopRunStats run_ft_loop(LoopContext& ctx, fault::FaultInjector& injector, int loop_index) {
  const LoopDescriptor& loop = *ctx.loop;
  auto& cluster = *ctx.cluster;
  auto& engine = cluster.engine();

  // Re-partition among the survivors: a dead station gets nothing, a revoked
  // one that rejoined at this boundary gets a share again.
  const std::vector<int> alive_list = injector.alive_procs();
  if (alive_list.empty()) throw std::runtime_error("run_ft_loop: no surviving workstation");
  for (auto& set : ctx.owned) set = IterationSet{};
  for (std::size_t rank = 0; rank < alive_list.size(); ++rank) {
    ctx.owned[static_cast<std::size_t>(alive_list[rank])] = IterationSet::block_partition(
        loop.iterations, static_cast<int>(alive_list.size()), static_cast<int>(rank));
  }
  for (int p = 0; p < ctx.procs(); ++p) {
    if (!injector.alive(p)) cluster.station(p).power_off();
  }

  FtState ft;
  ft.ctx = &ctx;
  ft.injector = &injector;
  ft.loop_index = loop_index;
  ft.coverage.reset(loop.iterations);
  ft.group_of_iter.assign(static_cast<std::size_t>(loop.iterations), 0);
  for (const int p : alive_list) {
    for (const auto& r : ctx.owned[static_cast<std::size_t>(p)].ranges()) {
      for (std::int64_t i = r.lo; i < r.hi; ++i) {
        ft.group_of_iter[static_cast<std::size_t>(i)] =
            ctx.group_of[static_cast<std::size_t>(p)];
      }
    }
  }

  ft.ack_timeout = sim::from_seconds(auto_ack_timeout_seconds(loop, cluster));

  const std::size_t ngroups = ctx.groups.size();
  ft.lost.resize(ngroups);
  ft.round.assign(ngroups, 0);
  ft.done.assign(ngroups, 0);
  ft.last_outcome.assign(ngroups, std::nullopt);
  ft.group_iters.assign(ngroups, 0);
  ft.group_covered.assign(ngroups, 0);
  for (std::size_t i = 0; i < ft.group_of_iter.size(); ++i) {
    ++ft.group_iters[static_cast<std::size_t>(ft.group_of_iter[i])];
  }
  ft.active.resize(ngroups);
  for (std::size_t g = 0; g < ngroups; ++g) {
    for (const int p : ctx.groups[g]) {
      if (injector.alive(p)) ft.active[g].push_back(p);
    }
    if (ft.active[g].empty() || ft.group_iters[g] == 0) finalize_group(ft, static_cast<int>(g));
  }
  ft.last_heard.assign(static_cast<std::size_t>(ctx.procs()),
                       std::vector<sim::SimTime>(static_cast<std::size_t>(ctx.procs()),
                                                 engine.now()));
  ft.current_iter.assign(static_cast<std::size_t>(ctx.procs()), -1);
  ft.hb_sleep.resize(static_cast<std::size_t>(ctx.procs()));
  for (const int p : alive_list) {
    ft.hb_sleep[static_cast<std::size_t>(p)] = std::make_unique<sim::CancellableSleep>(engine);
  }
  if (ctx.centralized) ft.balancer = injector.first_alive();

  // Chain to the caller's handler (power-off, mailbox flush, the death
  // instant) and restore it on exit: the chained handler must not outlive
  // the state it captures.
  std::function<void(int)> outer;
  outer = injector.set_death_handler([&ft, &outer](int p) {
    if (outer) outer(p);
    on_death(ft, p);
  });

  if (ft.groups_done < ngroups) {
    if (ctx.centralized) {
      ft.balancer_live = true;
      engine.spawn(ft_central_balancer(ft, ft.balancer));
    }
    for (const int p : alive_list) {
      const int g = ctx.group_of[static_cast<std::size_t>(p)];
      if (ft.done[static_cast<std::size_t>(g)] != 0) {
        ctx.finished_at[static_cast<std::size_t>(p)] = engine.now();
        continue;
      }
      engine.spawn(ft_dlb_slave(ft, p, g));
      engine.spawn(ft_heartbeat_emitter(ft, p, g));
    }
    engine.run();
  }

  injector.set_death_handler(std::move(outer));

  // The acceptance oracle: every iteration covered exactly once by a proc
  // whose results survived, nothing lost, nothing still in flight.
  ft.coverage.expect_complete();
  if (!ft.ledger.empty()) {
    throw std::logic_error("run_ft_loop: unresolved work shipments at loop end");
  }
  for (const auto& pool : ft.lost) {
    if (!pool.empty()) throw std::logic_error("run_ft_loop: unreclaimed lost work at loop end");
  }

  LoopRunStats stats = collect_loop_stats(ctx);
  // Makespan from the survivors' finish times, not engine.now(): draining a
  // dead station's last preempted compute segment advances the clock without
  // representing useful work.
  stats.finish_seconds = stats.start_seconds;
  for (int p = 0; p < ctx.procs(); ++p) {
    if (injector.alive(p)) {
      stats.finish_seconds = std::max(stats.finish_seconds,
                                      stats.finish_per_proc[static_cast<std::size_t>(p)]);
    }
  }
  return stats;
}

}  // namespace dlb::core
