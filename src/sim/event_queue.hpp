#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace dlb::sim {

/// 32-byte POD queue record.  `payload` is either a CallNode* or the address
/// of a coroutine handle, discriminated by `is_call`.  Ordering is the strict
/// total order (at, seq): virtual time first, insertion sequence as the
/// tie-break.  Keys are unique, so any correct priority queue pops the same
/// sequence.
struct Event {
  SimTime at;
  std::uint64_t seq;
  std::uintptr_t payload;
  bool is_call;
};

[[nodiscard]] inline bool earlier(const Event& a, const Event& b) noexcept {
  return a.at != b.at ? a.at < b.at : a.seq < b.seq;
}

/// The engine's event queue: a 4-ary min-heap on (at, seq).  Half as deep as
/// a binary heap, and the four children of a node sit side by side in two
/// cache lines, so a sift touches fewer lines.
///
/// Replace-top pop: `pop_front` only marks the root slot empty.  The next
/// `push` writes its event into that slot and sifts it down once, so the
/// dominant engine step — pop an event, and the resumed coroutine schedules
/// its next wake-up — costs one sift instead of two.  A `front` or
/// `pop_front` that finds the slot empty refills it with the tail record, as
/// an ordinary heap pop would.  DESIGN.md §5.2.
class EventQueue {
 public:
  /// Never throws mid-run: the vector grows geometrically and allocation
  /// failure terminates rather than corrupting the (time, seq) contract.
  void push(Event ev) noexcept {
    if (hole_) {
      hole_ = false;
      sift_down(ev);
      return;
    }
    events_.push_back(ev);
    std::size_t i = events_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!earlier(ev, events_[parent])) break;
      events_[i] = events_[parent];
      i = parent;
    }
    events_[i] = ev;
  }

  /// Requires !empty().  The reference stays valid until the next mutation.
  [[nodiscard]] const Event& front() noexcept {
    if (hole_) fill_hole();
    return events_.front();
  }

  /// Requires !empty().
  void pop_front() noexcept {
    if (hole_) fill_hole();
    hole_ = true;
  }

  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size() - (hole_ ? 1 : 0); }

  /// Visits every pending event in unspecified order (engine teardown).
  template <typename Fn>
  void visit_all(Fn&& fn) const {
    for (std::size_t i = hole_ ? 1 : 0; i < events_.size(); ++i) fn(events_[i]);
  }

 private:
  /// Moves the tail record into the empty root slot and sifts it down.
  void fill_hole() noexcept {
    hole_ = false;
    const Event last = events_.back();
    events_.pop_back();
    if (!events_.empty()) sift_down(last);
  }

  /// Places `ev` at the root (whose old record is gone) and restores the heap.
  void sift_down(Event ev) noexcept {
    Event* const h = events_.data();
    const std::size_t n = events_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      const std::size_t end = first + 4 < n ? first + 4 : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (earlier(h[c], h[best])) best = c;
      }
      if (!earlier(h[best], ev)) break;
      h[i] = h[best];
      i = best;
    }
    h[i] = ev;
  }

  std::vector<Event> events_;  // 4-ary min-heap on (at, seq)
  bool hole_ = false;          // events_[0] is empty: popped, not yet refilled
};

}  // namespace dlb::sim
