#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "sim/executor.hpp"
#include "sim/process.hpp"
#include "sim/time.hpp"

namespace {

using dlb::sim::Engine;
using dlb::sim::InlineExecutor;
using dlb::sim::Process;
using dlb::sim::ShardExecutor;
using dlb::sim::SimTime;

constexpr SimTime kHop = 500;  // cross-shard latency = engine lookahead

// Joins real OS threads every window: exercises the engine's claim that the
// executor cannot change simulated outcomes, and gives TSan a genuinely
// parallel schedule to check the window barrier against.
class ThreadExecutor final : public ShardExecutor {
 public:
  void run_tasks(std::size_t count, const std::function<void(std::size_t)>& fn) override {
    std::vector<std::thread> threads;
    threads.reserve(count);
    for (std::size_t i = 0; i < count; ++i) threads.emplace_back([&fn, i] { fn(i); });
    for (auto& t : threads) t.join();
  }
};

using LogEntry = std::pair<SimTime, std::uint64_t>;
using Log = std::vector<LogEntry>;

// Two actors ping across the shard boundary.  Each log is written only by
// the shard that owns it: `self_log` by the actor itself, `peer_log` by the
// ingress handler executing on the peer's shard.
Process actor(Engine& e, int self, int peer_shard, int rounds, Log* self_log, Log* peer_log) {
  for (int i = 0; i < rounds; ++i) {
    co_await e.sleep_for((self + 1) * 300);
    self_log->push_back({e.now(), static_cast<std::uint64_t>(self) * 100 + i});
    const std::uint64_t key = (std::uint64_t{1} << 63) |
                              (static_cast<std::uint64_t>(self) << 32) |
                              static_cast<std::uint32_t>(i);
    const std::uint64_t arrive_id = static_cast<std::uint64_t>(self) * 1000 + i;
    e.schedule_ingress(peer_shard, e.now() + kHop, key, [&e, peer_log, arrive_id] {
      peer_log->push_back({e.now(), arrive_id});
    });
  }
}

struct Outcome {
  Log log;  // merged, sorted by (time, id) — the mode-invariant view
  SimTime final_now = 0;
  std::size_t events = 0;
};

Outcome run_scenario(int shards, ShardExecutor* exec) {
  Engine e;
  e.configure_shards(shards, kHop);
  if (exec != nullptr) e.set_executor(exec);
  Log log0;
  Log log1;
  const int shard_b = shards > 1 ? 1 : 0;
  {
    Engine::ShardScope scope(e, 0);
    e.spawn(actor(e, 0, shard_b, 4, &log0, &log1));
  }
  {
    Engine::ShardScope scope(e, shard_b);
    e.spawn(actor(e, 1, 0, 4, &log1, &log0));
  }
  Outcome out;
  out.final_now = e.run();
  out.events = e.events_executed();
  out.log = log0;
  out.log.insert(out.log.end(), log1.begin(), log1.end());
  std::sort(out.log.begin(), out.log.end());
  return out;
}

TEST(EngineShards, ConfigureValidation) {
  {
    Engine e;
    EXPECT_THROW(e.configure_shards(0, kHop), std::invalid_argument);
    EXPECT_THROW(e.configure_shards(2, 0), std::invalid_argument);
    EXPECT_THROW(e.configure_shards(2, -5), std::invalid_argument);
  }
  {
    Engine e;
    e.configure_shards(2, kHop);
    EXPECT_THROW(e.configure_shards(2, kHop), std::logic_error);
  }
  {
    Engine e;
    e.schedule_at(10, [] {});
    EXPECT_THROW(e.configure_shards(2, kHop), std::logic_error);
  }
}

TEST(EngineShards, SingleShardStaysUnsharded) {
  Engine e;
  e.configure_shards(1, 0);  // one shard: no windows, so no lookahead
  EXPECT_FALSE(e.is_sharded());
  EXPECT_EQ(e.shards(), 1);
  EXPECT_EQ(e.lookahead(), 0);
}

TEST(EngineShards, ShardedAccessors) {
  Engine e;
  e.configure_shards(3, kHop);
  EXPECT_TRUE(e.is_sharded());
  EXPECT_EQ(e.shards(), 3);
  EXPECT_EQ(e.lookahead(), kHop);
}

TEST(EngineShards, SpawnWithoutScopeThrows) {
  Engine e;
  e.configure_shards(2, kHop);
  Log log;
  EXPECT_THROW(e.spawn(actor(e, 0, 1, 1, &log, &log)), std::logic_error);
}

TEST(EngineShards, ShardScopeOutOfRangeThrows) {
  Engine e;
  e.configure_shards(2, kHop);
  EXPECT_THROW(Engine::ShardScope(e, 2), std::out_of_range);
  EXPECT_THROW(Engine::ShardScope(e, -1), std::out_of_range);
}

TEST(EngineShards, ShardedMatchesUnsharded) {
  const Outcome unsharded = run_scenario(1, nullptr);
  const Outcome sharded = run_scenario(2, nullptr);
  EXPECT_EQ(unsharded.log, sharded.log);
  EXPECT_EQ(unsharded.final_now, sharded.final_now);
  EXPECT_EQ(unsharded.events, sharded.events);
}

TEST(EngineShards, ExecutorCannotChangeOutcome) {
  InlineExecutor inline_exec;
  ThreadExecutor thread_exec;
  const Outcome serial = run_scenario(2, &inline_exec);
  const Outcome parallel = run_scenario(2, &thread_exec);
  EXPECT_EQ(serial.log, parallel.log);
  EXPECT_EQ(serial.final_now, parallel.final_now);
  EXPECT_EQ(serial.events, parallel.events);
}

TEST(EngineShards, PerShardEventCountsSumToTotal) {
  Engine e;
  e.configure_shards(2, kHop);
  Log log0;
  Log log1;
  {
    Engine::ShardScope scope(e, 0);
    e.spawn(actor(e, 0, 1, 3, &log0, &log1));
  }
  {
    Engine::ShardScope scope(e, 1);
    e.spawn(actor(e, 1, 0, 3, &log1, &log0));
  }
  e.run();
  EXPECT_EQ(e.shard_events_executed(0) + e.shard_events_executed(1), e.events_executed());
  EXPECT_GT(e.shard_events_executed(0), 0u);
  EXPECT_GT(e.shard_events_executed(1), 0u);
  EXPECT_THROW((void)e.shard_events_executed(2), std::out_of_range);
}

TEST(EngineShards, UnshardedShardZeroCountsEverything) {
  Engine e;
  e.schedule_at(5, [] {});
  e.run();
  EXPECT_EQ(e.shard_events_executed(0), e.events_executed());
  EXPECT_THROW((void)e.shard_events_executed(1), std::out_of_range);
}

TEST(EngineShards, RunUntilStopsAtDeadline) {
  Engine e;
  e.configure_shards(2, kHop);
  bool early = false;
  bool late = false;
  {
    Engine::ShardScope scope(e, 0);
    e.schedule_at(10'000, [&early] { early = true; });
  }
  {
    Engine::ShardScope scope(e, 1);
    e.schedule_at(20'000, [&late] { late = true; });
  }
  EXPECT_EQ(e.run_until(15'000), 15'000);
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  EXPECT_EQ(e.now(), 15'000);
  EXPECT_FALSE(e.empty());
  EXPECT_EQ(e.run(), 20'000);
  EXPECT_TRUE(late);
  EXPECT_TRUE(e.empty());
  // A deadline already passed never moves virtual time backwards.
  SimTime fired_at = 0;
  {
    Engine::ShardScope scope(e, 0);
    e.schedule_at(25'000, [&e, &fired_at] { fired_at = e.now(); });
  }
  EXPECT_EQ(e.run_until(5'000), 20'000);
  EXPECT_EQ(e.now(), 20'000);
  EXPECT_EQ(e.run(), 25'000);
  EXPECT_EQ(fired_at, 25'000);
}

TEST(EngineShards, CancelledTimerDoesNotStretchRun) {
  Engine e;
  e.configure_shards(2, kHop);
  bool fired = false;
  bool cancelled_ran = false;
  {
    Engine::ShardScope scope(e, 0);
    e.schedule_at(1'000, [&fired] { fired = true; });
  }
  Engine::Timer timer;
  {
    Engine::ShardScope scope(e, 1);
    timer = e.schedule_cancellable_at(50'000, [&cancelled_ran] { cancelled_ran = true; });
  }
  e.cancel(timer);
  EXPECT_EQ(e.run(), 1'000);  // virtual time never reaches the dead timer
  EXPECT_TRUE(fired);
  EXPECT_FALSE(cancelled_ran);
}

Process record_start(Engine& e, SimTime* started) {
  *started = e.now();
  co_return;
}

TEST(EngineShards, ShardsShareOneClockBetweenRuns) {
  // Shard 0 drains at 1'000 and shard 1 at 9'000.  The engine's time is
  // 9'000, so a process spawned afterwards on the lagging shard must start
  // there too, not at that shard's last event.
  Engine e;
  e.configure_shards(2, kHop);
  {
    Engine::ShardScope scope(e, 0);
    e.schedule_at(1'000, [] {});
  }
  {
    Engine::ShardScope scope(e, 1);
    e.schedule_at(9'000, [] {});
  }
  EXPECT_EQ(e.run(), 9'000);
  EXPECT_EQ(e.now(), 9'000);
  SimTime started = -1;
  {
    Engine::ShardScope scope(e, 0);
    EXPECT_EQ(e.now(), 9'000);
    e.spawn(record_start(e, &started));
  }
  EXPECT_EQ(e.run(), 9'000);
  EXPECT_EQ(started, 9'000);
}

Process thrower(Engine& e) {
  co_await e.sleep_for(100);
  throw std::runtime_error("boom");
}

TEST(EngineShards, ProcessExceptionSurfacesFromRun) {
  Engine e;
  e.configure_shards(2, kHop);
  {
    Engine::ShardScope scope(e, 1);
    e.spawn(thrower(e));
  }
  EXPECT_THROW(e.run(), std::runtime_error);
}

TEST(EngineShards, IngressInsideTheLookaheadThrows) {
  // An ingress earlier than now() + lookahead() could land inside a window
  // the destination shard has already run; the engine refuses it, and the
  // window barrier rethrows the error from run().
  Engine e;
  e.configure_shards(2, kHop);
  {
    Engine::ShardScope scope(e, 0);
    e.schedule_at(1'000, [&e] {
      e.schedule_ingress(1, e.now() + e.lookahead() - 1, std::uint64_t{1} << 63, [] {});
    });
  }
  EXPECT_THROW(e.run(), std::logic_error);
}

TEST(EngineShards, QueueDepthSumsAcrossShards) {
  Engine e;
  e.configure_shards(2, kHop);
  {
    Engine::ShardScope scope(e, 0);
    e.schedule_at(100, [] {});
    e.schedule_at(200, [] {});
  }
  {
    Engine::ShardScope scope(e, 1);
    e.schedule_at(300, [] {});
  }
  EXPECT_EQ(e.queue_depth(), 3u);
  EXPECT_FALSE(e.empty());
  e.run();
  EXPECT_EQ(e.queue_depth(), 0u);
  EXPECT_GE(e.peak_queue_depth(), 3u);
}

}  // namespace
