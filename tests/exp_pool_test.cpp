// exp::Pool unit tests: completion of all submitted tasks, wait()
// semantics, reuse across waves, submission from worker threads, and the
// destructor draining the queue.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "exp/pool.hpp"

namespace {

using dlb::exp::Pool;

TEST(ExpPool, ResolveThreads) {
  EXPECT_EQ(Pool::resolve_threads(3), 3);
  EXPECT_GE(Pool::resolve_threads(0), 1);
}

TEST(ExpPool, RunsEveryTask) {
  Pool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ExpPool, WaitWithNoTasksReturns) {
  Pool pool(2);
  pool.wait();  // must not hang
  SUCCEED();
}

TEST(ExpPool, ReusableAcrossWaves) {
  Pool pool(2);
  std::atomic<int> count{0};
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait();
    EXPECT_EQ(count.load(), (wave + 1) * 50);
  }
}

TEST(ExpPool, EachTaskRunsExactlyOnce) {
  Pool pool(4);
  constexpr int kTasks = 200;
  std::vector<std::atomic<int>> hits(kTasks);
  for (auto& h : hits) h.store(0);
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&hits, i] { hits[static_cast<std::size_t>(i)].fetch_add(1); });
  }
  pool.wait();
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
}

TEST(ExpPool, SubmitFromWorkerThread) {
  Pool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&pool, &count] {
      count.fetch_add(1);
      pool.submit([&count] { count.fetch_add(1); });
    });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 16);
}

TEST(ExpPool, RunBatchRunsEachIndexExactlyOnce) {
  Pool pool(4);
  constexpr std::size_t kCount = 100;  // more indexes than workers
  std::vector<std::atomic<int>> hits(kCount);
  for (auto& h : hits) h.store(0);
  pool.run_batch(kCount, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ExpPool, RunBatchOnWidthOnePoolRunsInline) {
  Pool pool(1);
  std::vector<int> order;  // inline execution: no synchronization needed
  pool.run_batch(5, [&order](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ExpPool, RunBatchZeroAndOneShortCircuit) {
  Pool pool(2);
  int calls = 0;
  pool.run_batch(0, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.run_batch(1, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ExpPool, NestedRunBatchFromWorkerTasksCompletes) {
  // A sharded cell inside a parallel sweep: pool tasks themselves call
  // run_batch.  Claim-and-help means the callers make progress even when
  // every worker is blocked inside a batch — this must not deadlock.
  Pool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 4; ++i) {
    pool.submit([&pool, &count] {
      pool.run_batch(8, [&count](std::size_t) { count.fetch_add(1); });
    });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 32);
}

TEST(ExpPool, TasksSpreadAcrossThreadsWhenParallel) {
  // With several workers and blocking-free tasks, at least one thread id
  // beyond the submitter's must appear (work actually leaves this thread).
  Pool pool(4);
  std::set<std::thread::id> seen;
  std::mutex mu;
  for (int i = 0; i < 64; ++i) {
    pool.submit([&] {
      std::lock_guard<std::mutex> lock(mu);
      seen.insert(std::this_thread::get_id());
    });
  }
  pool.wait();
  EXPECT_GE(seen.size(), 1u);
  EXPECT_TRUE(seen.find(std::this_thread::get_id()) == seen.end());
}

TEST(ExpPool, DestructionRunsQueuedTasks) {
  // ~Pool without wait(): the only worker is still inside the first task
  // when the destructor starts, and the tasks queued behind it must run
  // before the pool is gone.
  std::atomic<int> count{0};
  std::promise<void> started;
  std::promise<void> release;
  std::thread releaser;
  {
    Pool pool(1);
    pool.submit([&started, &count, gate = release.get_future().share()] {
      started.set_value();
      gate.wait();
      count.fetch_add(1);
    });
    started.get_future().wait();
    for (int i = 0; i < 10; ++i) pool.submit([&count] { count.fetch_add(1); });
    releaser = std::thread([&release] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      release.set_value();
    });
  }
  releaser.join();
  EXPECT_EQ(count.load(), 11);
}

}  // namespace
