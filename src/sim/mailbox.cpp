#include "sim/mailbox.hpp"

namespace dlb::sim {

void Mailbox::deliver(Message message) {
  message.delivered_at = engine_.now();
  // Serve the oldest suspended waiter whose filter matches.
  for (std::size_t i = 0; i < waiters_.size(); ++i) {
    if (matches(message, waiters_[i].tags, waiters_[i].source)) {
      Waiter waiter = waiters_.take(i);
      engine_.cancel(waiter.timer);  // no-op for plain receives
      *waiter.slot = std::move(message);
      // Resume via the scheduler (not inline) so delivery cascades cannot
      // recurse arbitrarily deep and ordering stays (time, seq) determined.
      engine_.schedule_resume(engine_.now(), waiter.handle);
      return;
    }
  }
  queue_.push_back(std::move(message));
}

std::optional<Message> Mailbox::try_receive(Tags tags, int source) {
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (matches(queue_[i], tags, source)) return queue_.take(i);
  }
  return std::nullopt;
}

bool Mailbox::has_message(Tags tags, int source) const noexcept {
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (matches(queue_[i], tags, source)) return true;
  }
  return false;
}

void Mailbox::cancel_waiters() {
  while (waiters_.size() > 0) {
    Waiter waiter = waiters_.take(0);
    engine_.cancel(waiter.timer);
    // Slot stays empty: deadline receives see a timeout, plain receives
    // throw.  Resume through the scheduler like any other wake-up.
    engine_.schedule_resume(engine_.now(), waiter.handle);
  }
}

void Mailbox::expire_waiter(std::uint64_t id) {
  for (std::size_t i = 0; i < waiters_.size(); ++i) {
    if (waiters_[i].id == id) {
      const Waiter waiter = waiters_.take(i);
      engine_.schedule_resume(engine_.now(), waiter.handle);
      return;
    }
  }
}

}  // namespace dlb::sim
