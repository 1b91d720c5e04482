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

/// The engine's event queue: a 4-ary min-heap on (at, seq).  Half as deep as
/// a binary heap.  The four 32-byte children of a node sit side by side; the
/// root is slot 0, so each group starts at an odd slot and its 128 bytes
/// span three 64-byte lines.
///
/// Branch-free ordering: records compare by one packed 128-bit key
/// (`order_key`).  A sift computes the moving record's key once and picks
/// the least of each group of children with conditional moves, so random
/// event times cost no mispredicted branch in the selection; only the
/// sift's stop test branches.
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
    Event* const h = events_.data();
    const OrderKey key = order_key(ev);
    std::size_t i = events_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!(key < order_key(h[parent]))) break;
      h[i] = h[parent];
      i = parent;
    }
    h[i] = ev;
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
    const OrderKey key = order_key(ev);
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      const std::size_t end = first + 4 < n ? first + 4 : n;
      // The least child, by conditional moves: on random event times a
      // branch here would mispredict on about a third of the compares.
      std::size_t best = first;
      OrderKey best_key = order_key(h[first]);
      for (std::size_t c = first + 1; c < end; ++c) {
        const OrderKey k = order_key(h[c]);
        const bool less = k < best_key;
        best = less ? c : best;
        best_key = less ? k : best_key;
      }
      if (!(best_key < key)) break;
      h[i] = h[best];
      i = best;
    }
    h[i] = ev;
  }

  /// The (at, seq) order as one unsigned key: `at` with its sign bit
  /// flipped in the high half, which maps int64 order onto uint64 order, and
  /// `seq` in the low half.  Key order is exactly the lexicographic (at, seq)
  /// order for every int64 `at` and every uint64 `seq`, bit-63 ingress keys
  /// included, and one compare is a compare-and-borrow with no branch.
  using OrderKey = unsigned __int128;

  [[nodiscard]] static OrderKey order_key(const Event& ev) noexcept {
    const std::uint64_t at = static_cast<std::uint64_t>(ev.at) ^ (std::uint64_t{1} << 63);
    return static_cast<OrderKey>(at) << 64 | ev.seq;
  }

  std::vector<Event> events_;  // 4-ary min-heap on (at, seq)
  bool hole_ = false;          // events_[0] is empty: popped, not yet refilled
};

}  // namespace dlb::sim
