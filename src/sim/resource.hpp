#pragma once

#include <coroutine>
#include <cstddef>
#include <stdexcept>

#include "sim/engine.hpp"
#include "support/ring_buffer.hpp"

namespace dlb::sim {

/// Exclusive FIFO lock: the simulated analogue of a mutex.  Models a
/// workstation's CPU, which computation, message packing and unpacking
/// contend for; the Ethernet medium itself uses the cheaper analytic
/// reservation in net::Ethernet.
class Resource {
 public:
  explicit Resource(Engine& engine) noexcept : engine_(engine) {}
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// Awaitable acquire; resolves in FIFO order.  The lock is claimed
  /// synchronously (either here or inside release()), so a later acquirer
  /// can never overtake a waiter that was already handed the lock.
  [[nodiscard]] auto acquire() {
    struct Awaiter {
      Resource& resource;
      bool await_ready() const noexcept {
        if (!resource.held_ && resource.waiters_.empty()) {
          resource.held_ = true;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) { resource.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  /// Releases the lock; hands it to the next waiter, if any, which resumes
  /// at the current time.
  void release();

  [[nodiscard]] std::size_t waiting() const noexcept { return waiters_.size(); }

 private:
  Engine& engine_;
  bool held_ = false;
  support::RingBuffer<std::coroutine_handle<>> waiters_;
};

}  // namespace dlb::sim
