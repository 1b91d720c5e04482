#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/process.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace {

using dlb::sim::Engine;
using dlb::sim::from_seconds;
using dlb::sim::kNsPerMs;
using dlb::sim::kNsPerSec;
using dlb::sim::Process;
using dlb::sim::SimTime;
using dlb::sim::Task;
using dlb::sim::to_seconds;

TEST(SimTime, Conversions) {
  EXPECT_EQ(from_seconds(1.0), kNsPerSec);
  EXPECT_EQ(from_seconds(0.001), kNsPerMs);
  EXPECT_DOUBLE_EQ(to_seconds(kNsPerSec), 1.0);
  EXPECT_EQ(from_seconds(0.0), 0);
}

TEST(Engine, ExecutesEventsInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(30, [&] { order.push_back(3); });
  engine.schedule_at(10, [&] { order.push_back(1); });
  engine.schedule_at(20, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 30);
}

TEST(Engine, TiesBreakByInsertionOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(10, [&] { order.push_back(1); });
  engine.schedule_at(10, [&] { order.push_back(2); });
  engine.schedule_at(10, [&] { order.push_back(3); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, PastEventsClampToNow) {
  Engine engine;
  std::vector<std::int64_t> seen;
  engine.schedule_at(100, [&] {
    engine.schedule_at(50, [&] { seen.push_back(engine.now()); });
  });
  engine.run();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 100);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(10, [&] { ++fired; });
  engine.schedule_at(1000, [&] { ++fired; });
  engine.run_until(500);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), 500);
  engine.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.now(), 1000);
  // A deadline already passed never moves virtual time backwards.
  engine.schedule_at(2000, [&] { ++fired; });
  engine.schedule_at(3000, [&] { ++fired; });
  EXPECT_EQ(engine.run_until(2000), 2000);
  EXPECT_EQ(engine.run_until(500), 2000);
  EXPECT_EQ(engine.now(), 2000);
  SimTime late_at = 0;
  engine.schedule_at(700, [&] { late_at = engine.now(); });
  engine.run();
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(late_at, 2000);
  EXPECT_EQ(engine.now(), 3000);
}

Process simple_sleeper(Engine& engine, std::int64_t* woke_at) {
  co_await engine.sleep_for(250);
  *woke_at = engine.now();
}

TEST(Engine, ProcessSleepAdvancesTime) {
  Engine engine;
  std::int64_t woke_at = -1;
  engine.spawn(simple_sleeper(engine, &woke_at));
  engine.run();
  EXPECT_EQ(woke_at, 250);
}

Process chained_sleeper(Engine& engine, std::vector<std::int64_t>* marks) {
  co_await engine.sleep_for(100);
  marks->push_back(engine.now());
  co_await engine.sleep_for(100);
  marks->push_back(engine.now());
  co_await engine.sleep_until(500);
  marks->push_back(engine.now());
  co_await engine.sleep_until(400);  // already past: no-op
  marks->push_back(engine.now());
}

TEST(Engine, SleepChain) {
  Engine engine;
  std::vector<std::int64_t> marks;
  engine.spawn(chained_sleeper(engine, &marks));
  engine.run();
  EXPECT_EQ(marks, (std::vector<std::int64_t>{100, 200, 500, 500}));
}

Task<int> add_later(Engine& engine, int a, int b) {
  co_await engine.sleep_for(10);
  co_return a + b;
}

Task<int> sum_twice(Engine& engine) {
  const int first = co_await add_later(engine, 1, 2);
  const int second = co_await add_later(engine, first, 10);
  co_return second;
}

Process task_user(Engine& engine, int* result) {
  *result = co_await sum_twice(engine);
}

TEST(Engine, NestedTasksComposeAndReturnValues) {
  Engine engine;
  int result = 0;
  engine.spawn(task_user(engine, &result));
  engine.run();
  EXPECT_EQ(result, 13);
  EXPECT_EQ(engine.now(), 20);
}

Process thrower(Engine& engine) {
  co_await engine.sleep_for(5);
  throw std::runtime_error("boom");
}

TEST(Engine, ProcessExceptionPropagatesFromRun) {
  Engine engine;
  engine.spawn(thrower(engine));
  EXPECT_THROW(engine.run(), std::runtime_error);
}

Task<void> inner_throw(Engine& engine) {
  co_await engine.sleep_for(1);
  throw std::logic_error("inner");
}

Process outer_catches(Engine& engine, bool* caught) {
  try {
    co_await inner_throw(engine);
  } catch (const std::logic_error&) {
    *caught = true;
  }
}

TEST(Engine, TaskExceptionCatchableInParent) {
  Engine engine;
  bool caught = false;
  engine.spawn(outer_catches(engine, &caught));
  engine.run();
  EXPECT_TRUE(caught);
}

Process spawner(Engine& engine, int depth, int* count) {
  ++*count;
  if (depth > 0) {
    engine.spawn(spawner(engine, depth - 1, count));
    engine.spawn(spawner(engine, depth - 1, count));
  }
  co_return;
}

TEST(Engine, ProcessesCanSpawnProcesses) {
  Engine engine;
  int count = 0;
  engine.spawn(spawner(engine, 3, &count));
  engine.run();
  EXPECT_EQ(count, 15);  // full binary tree of depth 3
}

TEST(Engine, ManyEventsStressOrdering) {
  Engine engine;
  std::vector<std::int64_t> times;
  for (int i = 999; i >= 0; --i) {
    engine.schedule_at(i * 7 % 1000, [&times, &engine] { times.push_back(engine.now()); });
  }
  engine.run();
  ASSERT_EQ(times.size(), 1000u);
  for (std::size_t i = 1; i < times.size(); ++i) EXPECT_LE(times[i - 1], times[i]);
}

}  // namespace
