#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>
#include <variant>

#include "sim/frame_arena.hpp"

namespace dlb::sim {

namespace detail {

/// What a finished Task<T> holds: its value, or the exception that escaped
/// it.  `take()` hands either back to the awaiting coroutine.
template <typename T>
struct TaskResult {
  std::variant<std::monostate, T, std::exception_ptr> result;

  template <typename U>
  void return_value(U&& value) {
    result.template emplace<1>(std::forward<U>(value));
  }
  void unhandled_exception() { result.template emplace<2>(std::current_exception()); }
  T take() {
    if (result.index() == 2) std::rethrow_exception(std::get<2>(result));
    return std::move(std::get<1>(result));
  }
};

template <>
struct TaskResult<void> {
  std::exception_ptr exception;

  void return_void() noexcept {}
  void unhandled_exception() { exception = std::current_exception(); }
  void take() {
    if (exception) std::rethrow_exception(exception);
  }
};

}  // namespace detail

/// Lazy coroutine task with symmetric transfer, used for composing simulated
/// protocol steps (`co_await node.send(...)`, `co_await node.compute(...)`).
/// A Task starts suspended and runs when awaited; completion resumes the
/// awaiting coroutine directly (no scheduler round trip, no virtual-time
/// cost).  Exceptions thrown inside a task propagate out of `co_await`.
/// Frames are allocated from the thread-local FrameArena so the thousands of
/// short-lived protocol steps per run recycle a handful of blocks.
template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(Handle h) const noexcept {
      auto continuation = h.promise().continuation;
      return continuation ? continuation : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  struct promise_type : detail::TaskResult<T> {
    std::coroutine_handle<> continuation;

    static void* operator new(std::size_t bytes) { return FrameArena::allocate(bytes); }
    static void operator delete(void* p) noexcept { FrameArena::deallocate(p); }

    Task get_return_object() { return Task(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
  };

  Task(Task&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  Task(const Task&) = delete;
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, nullptr);
    }
    return *this;
  }
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiting) noexcept {
    h_.promise().continuation = awaiting;
    return h_;
  }
  T await_resume() { return h_.promise().take(); }

 private:
  explicit Task(Handle h) noexcept : h_(h) {}
  void destroy() noexcept {
    if (h_) h_.destroy();
    h_ = nullptr;
  }
  Handle h_;
};

}  // namespace dlb::sim
