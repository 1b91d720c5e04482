#include "exp/pool.hpp"

#include <algorithm>
#include <utility>

namespace dlb::exp {

int Pool::resolve_threads(int threads) noexcept {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

Pool::Pool(int threads) {
  const int n = resolve_threads(threads);
  workers_.reserve(static_cast<std::size_t>(n));
  try {
    for (int i = 0; i < n; ++i) workers_.emplace_back([this] { worker_loop(); });
  } catch (...) {
    shut_down();  // a thread failed to start: join the ones that did
    throw;
  }
}

Pool::~Pool() { shut_down(); }

void Pool::shut_down() noexcept {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void Pool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push_back(std::move(task));
    ++unfinished_;
  }
  work_available_.notify_one();
}

void Pool::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return unfinished_ == 0; });
}

void Pool::help(const std::shared_ptr<Batch>& batch) {
  for (;;) {
    const std::size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch->count) return;
    (*batch->fn)(i);
    std::lock_guard<std::mutex> lock(batch->mutex);
    if (++batch->done == batch->count) batch->finished.notify_all();
  }
}

void Pool::run_batch(std::size_t count, const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (count == 1 || size() == 1) {
    // Nobody to share with (or nothing to share): skip the latch entirely.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->count = count;
  // The caller blocks in this frame until done == count, and helpers only
  // dereference fn for indexes claimed before that, so the pointer is safe.
  batch->fn = &fn;
  const std::size_t helpers = std::min(count, static_cast<std::size_t>(size())) - 1;
  for (std::size_t h = 0; h < helpers; ++h) {
    submit([batch] { help(batch); });
  }
  help(batch);  // claim inline: progress never depends on helper scheduling
  std::unique_lock<std::mutex> lock(batch->mutex);
  batch->finished.wait(lock, [&batch] { return batch->done == batch->count; });
}

void Pool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_available_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
    if (tasks_.empty()) return;  // stopping, and the queue is drained
    std::function<void()> task = std::move(tasks_.front());
    tasks_.pop_front();
    lock.unlock();
    task();
    task = nullptr;  // release the task's captures before retaking the lock
    lock.lock();
    if (--unfinished_ == 0) all_done_.notify_all();
  }
}

}  // namespace dlb::exp
