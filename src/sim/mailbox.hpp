#pragma once

#include <any>
#include <climits>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>

#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "support/ring_buffer.hpp"

namespace dlb::sim {

/// Wildcards for tag/source matching, mirroring PVM's pvm_recv(-1, -1).
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// A receive's tag filter: the closed range [lo, hi].  A single tag converts
/// to its one-tag range and kAnyTag to every tag, so `receive(tag)` and
/// `receive({lo, hi})` are one call.  Ranges let the fault-tolerant protocol
/// wait on its whole contiguous tag block in one suspension and dispatch on
/// the tag it got.
struct Tags {
  int lo = INT_MIN;
  int hi = INT_MAX;

  constexpr Tags() noexcept = default;
  constexpr Tags(int tag) noexcept  // implicit: a tag is a filter
      : lo(tag == kAnyTag ? INT_MIN : tag), hi(tag == kAnyTag ? INT_MAX : tag) {}
  constexpr Tags(int first, int last) noexcept : lo(first), hi(last) {}

  [[nodiscard]] constexpr bool contains(int tag) const noexcept { return tag >= lo && tag <= hi; }
};

/// A simulated message.  The payload is type-erased; `bytes` is the on-wire
/// size used for network cost accounting (payload size and wire size are
/// decoupled, as they are in a real message-passing stack).
struct Message {
  int source = kAnySource;
  int tag = 0;
  std::size_t bytes = 0;
  std::any payload;
  SimTime sent_at = 0;
  SimTime delivered_at = 0;

  /// Typed payload accessor; throws std::bad_any_cast on type mismatch.
  template <typename T>
  [[nodiscard]] const T& as() const {
    return std::any_cast<const T&>(payload);
  }
};

/// Per-process tagged mailbox with awaitable receive.  Delivery order is
/// preserved; a receive matches the oldest queued message whose tag/source
/// satisfy the filter, exactly like PVM's receive semantics.  Suspended
/// receivers are served in arrival (registration) order.  Pending messages
/// and waiters live in ring buffers that stop allocating once warm, so
/// steady-state delivery is allocation-free.
class Mailbox {
 public:
  explicit Mailbox(Engine& engine) noexcept : engine_(engine) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Injects a message (called by the network at delivery time).  If a
  /// matching receiver is suspended, it is resumed at the current time.
  void deliver(Message message);

  /// Non-blocking probe-and-take, used for interrupt polling between loop
  /// iterations (the DLB_slave_sync check in the paper's Fig. 3).
  [[nodiscard]] std::optional<Message> try_receive(Tags tags = kAnyTag,
                                                   int source = kAnySource);

  /// True iff a matching message is queued.
  [[nodiscard]] bool has_message(Tags tags = kAnyTag, int source = kAnySource) const noexcept;

  /// Resumes every suspended receiver empty-handed: deadline receives yield
  /// nullopt as if timed out (their deadline timers are cancelled); a plain
  /// `receive` waiter throws from await_resume.  Used by the fault layer to
  /// flush a crashed workstation's parked protocol coroutines — which by
  /// construction only ever park in deadline receives.
  void cancel_waiters();

  /// Awaitable receive.  Suspends until a matching message is delivered.
  [[nodiscard]] auto receive(Tags tags = kAnyTag, int source = kAnySource) {
    struct Awaiter {
      Mailbox& mailbox;
      Tags tags;
      int source;
      std::optional<Message> taken;

      bool await_ready() {
        taken = mailbox.try_receive(tags, source);
        return taken.has_value();
      }
      void await_suspend(std::coroutine_handle<> h) {
        mailbox.waiters_.push_back(
            Waiter{tags, source, h, &taken, mailbox.next_waiter_id_++, Engine::Timer{}});
      }
      Message await_resume() {
        if (!taken) throw std::logic_error("Mailbox: resumed without a message");
        return std::move(*taken);
      }
    };
    return Awaiter{*this, tags, source, std::nullopt};
  }

  /// Awaitable receive with a deadline: suspends until a matching message is
  /// delivered, or until absolute virtual time `deadline` passes — whichever
  /// comes first.  Yields the message, or nullopt on timeout.  The deadline
  /// timer is cancellable, so an early delivery leaves no residue that would
  /// stretch the run.
  [[nodiscard]] auto receive_until(SimTime deadline, Tags tags, int source = kAnySource) {
    struct Awaiter {
      Mailbox& mailbox;
      SimTime deadline;
      Tags tags;
      int source;
      std::optional<Message> taken;

      bool await_ready() {
        taken = mailbox.try_receive(tags, source);
        return taken.has_value() || deadline <= mailbox.engine_.now();
      }
      void await_suspend(std::coroutine_handle<> h) {
        const std::uint64_t id = mailbox.next_waiter_id_++;
        Engine::Timer timer = mailbox.engine_.schedule_cancellable_at(
            deadline, [m = &mailbox, id] { m->expire_waiter(id); });
        mailbox.waiters_.push_back(Waiter{tags, source, h, &taken, id, timer});
      }
      std::optional<Message> await_resume() { return std::move(taken); }
    };
    return Awaiter{*this, deadline, tags, source, std::nullopt};
  }

 private:
  struct Waiter {
    Tags tags;
    int source;
    std::coroutine_handle<> handle;
    std::optional<Message>* slot;  // lives in the suspended coroutine frame
    std::uint64_t id;
    Engine::Timer timer;  // armed only for deadline receives
  };

  static bool matches(const Message& m, Tags tags, int source) noexcept {
    return tags.contains(m.tag) && (source == kAnySource || m.source == source);
  }

  /// Deadline-timer callback: resumes waiter `id` empty-handed.  No-op if the
  /// waiter was already served (the timer is then stale only when cancel
  /// raced — deliver cancels it, so normally this never fires after service).
  void expire_waiter(std::uint64_t id);

  Engine& engine_;
  support::RingBuffer<Message> queue_;
  support::RingBuffer<Waiter> waiters_;
  std::uint64_t next_waiter_id_ = 0;
};

}  // namespace dlb::sim
