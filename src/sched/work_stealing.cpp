#include "sched/work_stealing.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/ownership.hpp"
#include "net/params.hpp"
#include "sim/process.hpp"
#include "sim/time.hpp"
#include "support/rng.hpp"

namespace dlb::sched {

namespace {

constexpr int kTagStealRequest = 210;  // payload: requested share code
constexpr int kTagStealReply = 211;    // payload: StealReply
/// Root of the victim-choice streams; worker i draws from fork(i).
constexpr std::uint64_t kStealSeed = 777;

/// How much the victim should give up: half (Phish) or 1/P (affinity).
enum class Share { kHalf, kOneOverP };

struct StealRequest {
  Share share = Share::kHalf;
  bool query_only = false;  // affinity's load query: report, don't give
};

struct StealReply {
  std::int64_t victim_remaining = 0;
  std::vector<core::IterRange> ranges;  // empty when nothing was stolen
};

struct StealState {
  const core::LoopDescriptor* loop = nullptr;
  cluster::Cluster* cluster = nullptr;
  StealPolicy policy = StealPolicy::kRandomHalf;
  std::vector<core::IterationSet> owned;
  std::vector<std::int64_t> executed;
  std::vector<sim::SimTime> finished_at;
  core::LoopRunStats stats;
};

std::int64_t steal_amount(Share share, std::int64_t remaining, int procs) {
  if (remaining <= 1) return 0;  // keep at least the in-flight iteration
  switch (share) {
    case Share::kHalf:
      return remaining / 2;
    case Share::kOneOverP:
      return std::max<std::int64_t>(remaining / procs, 1);
  }
  return 0;
}

/// Answers one steal/query request from `mine`.
sim::Task<void> answer_request(StealState& st, int self, sim::Message request) {
  auto& me = st.cluster->station(self);
  auto& mine = st.owned[static_cast<std::size_t>(self)];
  const auto& req = request.as<StealRequest>();
  StealReply reply;
  reply.victim_remaining = mine.size();
  std::size_t bytes = net::kControlMessageBytes;
  if (!req.query_only) {
    const std::int64_t amount = steal_amount(req.share, mine.size(), st.cluster->size());
    if (amount > 0) {
      reply.ranges = mine.take_back(amount);
      bytes += st.cluster->network().frame_bytes(static_cast<double>(amount) *
                                                 st.loop->bytes_per_iteration);
      core::SyncEvent e;
      e.at_seconds = sim::to_seconds(me.engine().now());
      e.round = static_cast<int>(st.stats.events.size());
      e.initiator = request.source;
      e.iterations_moved = amount;
      e.redistributed = true;
      e.transfer_messages = 1;
      st.stats.events.push_back(e);
    }
  }
  co_await me.send(request.source, kTagStealReply, std::move(reply), bytes);
}

/// Sends a request to `victim` and waits for its reply, answering other
/// processors' steal requests in the meantime (two mutual thieves must not
/// deadlock).
sim::Task<StealReply> exchange(StealState& st, int self, int victim, StealRequest req) {
  auto& me = st.cluster->station(self);
  co_await me.send(victim, kTagStealRequest, req, net::kControlMessageBytes);
  while (true) {
    const sim::Message m = co_await me.receive();
    if (m.tag == kTagStealReply && m.source == victim) {
      co_return m.as<StealReply>();
    }
    if (m.tag == kTagStealRequest) {
      co_await answer_request(st, self, m);
      continue;
    }
    throw std::logic_error("work stealing: unexpected message");
  }
}

sim::Process steal_worker(StealState& st, int self) {
  auto& me = st.cluster->station(self);
  auto& mine = st.owned[static_cast<std::size_t>(self)];
  const int procs = st.cluster->size();
  support::Rng rng = support::Rng(kStealSeed).fork(static_cast<std::uint64_t>(self));

  bool hunting = true;
  while (hunting) {
    if (!mine.empty()) {
      // Serve pending steal requests between iterations, then compute.
      while (auto m = me.poll(kTagStealRequest)) co_await answer_request(st, self, *m);
      const std::int64_t index = mine.pop_front();
      co_await me.compute(st.loop->ops_of(index));
      ++st.executed[static_cast<std::size_t>(self)];
      continue;
    }
    if (procs == 1) break;

    // Out of work: one sweep of victims.
    bool got_work = false;
    if (st.policy == StealPolicy::kRandomHalf) {
      // Random victim order; ask each for half until one delivers.
      std::vector<int> victims;
      for (int p = 0; p < procs; ++p) {
        if (p != self) victims.push_back(p);
      }
      for (std::size_t i = victims.size(); i > 1; --i) {
        const auto j =
            static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
        std::swap(victims[i - 1], victims[j]);
      }
      for (const int victim : victims) {
        const StealReply reply =
            co_await exchange(st, self, victim, StealRequest{Share::kHalf, false});
        if (!reply.ranges.empty()) {
          for (const auto& range : reply.ranges) mine.add(range);
          got_work = true;
          break;
        }
      }
    } else {
      // Affinity: query everyone, steal 1/P from the most loaded.
      int best_victim = -1;
      std::int64_t best_remaining = 1;  // need at least 2 to give anything
      for (int victim = 0; victim < procs; ++victim) {
        if (victim == self) continue;
        const StealReply reply =
            co_await exchange(st, self, victim, StealRequest{Share::kOneOverP, true});
        if (reply.victim_remaining > best_remaining) {
          best_remaining = reply.victim_remaining;
          best_victim = victim;
        }
      }
      if (best_victim >= 0) {
        const StealReply reply =
            co_await exchange(st, self, best_victim, StealRequest{Share::kOneOverP, false});
        if (!reply.ranges.empty()) {
          for (const auto& range : reply.ranges) mine.add(range);
          got_work = true;
        }
      }
    }
    hunting = got_work;
  }

  st.finished_at[static_cast<std::size_t>(self)] = me.engine().now();
  // Retired: keep answering thieves with "nothing" so nobody blocks on us.
  // The engine drains once every processor idles here.
  while (true) {
    const sim::Message m = co_await me.mailbox().receive(kTagStealRequest);
    co_await answer_request(st, self, m);
  }
}

}  // namespace

const char* steal_policy_name(StealPolicy p) noexcept {
  switch (p) {
    case StealPolicy::kRandomHalf:
      return "STEAL";
    case StealPolicy::kAffinity:
      return "AFS";
  }
  return "?";
}

core::RunResult run_work_stealing(const cluster::ClusterParams& params,
                                  const core::AppDescriptor& app,
                                  StealPolicy policy) {
  app.validate();
  if (app.loops.size() != 1) {
    throw std::invalid_argument("run_work_stealing: single-loop applications only");
  }
  cluster::Cluster cluster(params);
  const auto& loop = app.loops[0];

  StealState st;
  st.loop = &loop;
  st.cluster = &cluster;
  st.policy = policy;
  for (int p = 0; p < cluster.size(); ++p) {
    st.owned.push_back(core::IterationSet::block_partition(loop.iterations, cluster.size(), p));
  }
  st.executed.assign(static_cast<std::size_t>(cluster.size()), 0);
  st.finished_at.assign(static_cast<std::size_t>(cluster.size()), 0);
  st.stats.loop_name = loop.name;

  for (int p = 0; p < cluster.size(); ++p) cluster.engine().spawn(steal_worker(st, p));
  cluster.engine().run();

  std::int64_t executed_total = 0;
  std::int64_t still_owned = 0;
  for (int p = 0; p < cluster.size(); ++p) {
    executed_total += st.executed[static_cast<std::size_t>(p)];
    still_owned += st.owned[static_cast<std::size_t>(p)].size();
  }
  if (executed_total + still_owned != loop.iterations || still_owned != 0) {
    throw std::logic_error("run_work_stealing: iterations lost or stranded");
  }

  st.stats.executed_per_proc = st.executed;
  for (const auto t : st.finished_at) st.stats.finish_per_proc.push_back(sim::to_seconds(t));
  sim::SimTime makespan = 0;
  for (const auto t : st.finished_at) makespan = std::max(makespan, t);
  st.stats.finish_seconds = sim::to_seconds(makespan);
  st.stats.syncs = static_cast<int>(st.stats.events.size());
  for (const auto& e : st.stats.events) {
    st.stats.iterations_moved += e.iterations_moved;
    if (e.redistributed) ++st.stats.redistributions;
  }

  core::RunResult result;
  result.app_name = app.name;
  result.strategy_name = steal_policy_name(policy);
  result.exec_seconds = st.stats.finish_seconds;
  result.loops.push_back(std::move(st.stats));
  result.messages = cluster.network().messages_sent();
  result.bytes = cluster.network().bytes_sent();
  return result;
}

}  // namespace dlb::sched
