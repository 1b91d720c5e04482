#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/executor.hpp"

namespace dlb::exp {

/// Pool of OS threads running independent tasks: whole simulation cells
/// (seconds of work) and the sharded engine's window helpers (microseconds).
/// One FIFO queue under one mutex feeds every worker; no task spawns
/// children onto its own worker, so per-worker deques and stealing would
/// buy nothing here.
///
/// The pool makes no ordering promises — determinism of experiment output
/// is the Runner's job (it merges results by canonical grid index, so the
/// bytes produced are independent of thread count and completion order).
class Pool {
 public:
  /// threads == 0 picks std::thread::hardware_concurrency() (min 1).
  explicit Pool(int threads = 0);
  ~Pool();  // runs every queued task (and any they submit), then joins
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Enqueues a task.  Tasks must not throw (wrap user work and capture
  /// exceptions into your own slots; the Runner stores std::exception_ptr
  /// per cell).  May be called from any thread, including workers.
  void submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished executing.
  void wait();

  /// Runs fn(0..count-1) to completion, sharing the indexes with idle
  /// workers.  Claim-and-help: the caller claims and executes indexes
  /// inline — so the call makes progress even when every worker is busy or
  /// the pool has one thread — while up to size()-1 helper tasks let idle
  /// workers join in.  Safe to call from worker threads (a cell task
  /// running its engine's shard windows); never deadlocks because the
  /// caller does not depend on any helper being scheduled.  `fn` must not
  /// throw (the sharded engine parks exceptions per shard instead).
  void run_batch(std::size_t count, const std::function<void(std::size_t)>& fn);

  [[nodiscard]] int size() const noexcept { return static_cast<int>(workers_.size()); }

  /// Resolves the threads argument the way the constructor does.
  [[nodiscard]] static int resolve_threads(int threads) noexcept;

 private:
  /// One run_batch invocation: a shared claim counter plus a completion
  /// latch.  Indexes are claimed before execution, so every index runs
  /// exactly once whether the caller or a helper gets it.
  struct Batch {
    std::atomic<std::size_t> next{0};
    std::size_t done = 0;  // guarded by mutex
    std::size_t count = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::mutex mutex;
    std::condition_variable finished;
  };

  static void help(const std::shared_ptr<Batch>& batch);

  void worker_loop();
  /// Lets the workers drain the queue, then joins them.
  void shut_down() noexcept;

  std::mutex mutex_;  // guards tasks_, unfinished_ and stop_
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> tasks_;
  std::size_t unfinished_ = 0;  // submitted tasks not yet finished
  bool stop_ = false;
  std::vector<std::thread> workers_;  // last: the threads use every member above
};

/// Adapter running a sharded Engine's window tasks on an exp::Pool, so
/// cell-level parallelism (one task per simulation cell) and intra-cell
/// shard parallelism draw from the same thread budget instead of
/// oversubscribing the host.  Pure mechanism: the engine's windowed
/// algorithm keeps results identical to the built-in InlineExecutor.
class PoolShardExecutor final : public sim::ShardExecutor {
 public:
  explicit PoolShardExecutor(Pool& pool) noexcept : pool_(&pool) {}

  void run_tasks(std::size_t count, const std::function<void(std::size_t)>& fn) override {
    pool_->run_batch(count, fn);
  }

 private:
  Pool* pool_;
};

}  // namespace dlb::exp
