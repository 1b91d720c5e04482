// Randomized differential property harness for the event queue: the engine's
// 4-ary heap must pop the exact byte sequence — (at, seq, payload, is_call) —
// that a reference ordered set on (at, seq) pops, for seeded operation
// streams shaped like engine workloads (schedule_at / schedule_resume /
// cancel / sleep_for), including same-timestamp bursts, far-future timers,
// cancel-at-front races, occupancy swings and empty/refill cycles.  Directed
// cases drive the replace-top path: a pop leaves the root slot empty until
// the next push or front() fills it.  The reference orders by its own
// two-field compare, not by the queue's packed key, so it is an independent
// oracle for the key too: directed cases cover the key's corners (negative
// times, times at and just below kTimeInfinity, and cross-shard ingress keys
// with bit 63 set tied with shard-local sequence numbers).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "support/rng.hpp"

namespace {

using dlb::sim::Event;
using dlb::sim::EventQueue;
using dlb::sim::kTimeInfinity;
using dlb::sim::SimTime;
using dlb::support::Rng;

constexpr SimTime kTimeMin = std::numeric_limits<SimTime>::min();

/// The engine's contract spelled out directly: virtual time first (signed),
/// then the sequence key (unsigned).
struct ByKey {
  bool operator()(const Event& a, const Event& b) const {
    return std::tie(a.at, a.seq) < std::tie(b.at, b.seq);
  }
};
using Reference = std::set<Event, ByKey>;

/// A cross-shard ingress key as net::Network builds one: bit 63 set, the
/// source station in bits 32-62, that source's frame counter below.
std::uint64_t ingress_key(std::uint32_t src, std::uint32_t n) {
  return std::uint64_t{1} << 63 | std::uint64_t{src} << 32 | n;
}

/// Replicates Engine::run_until's front-of-queue logic: cancelled call
/// events are discarded when they become the global (at, seq) minimum,
/// without being reported as popped.  `discards` records the discard points
/// so the queue is also held to the reference's cancellation timing.
std::optional<Event> pop_one(EventQueue& q, const std::vector<bool>& cancelled,
                             std::vector<Event>& discards) {
  while (!q.empty()) {
    const Event ev = q.front();
    q.pop_front();
    if (ev.is_call && cancelled[ev.payload]) {
      discards.push_back(ev);
      continue;
    }
    return ev;
  }
  return std::nullopt;
}

std::optional<Event> pop_one(Reference& r, const std::vector<bool>& cancelled,
                             std::vector<Event>& discards) {
  while (!r.empty()) {
    const Event ev = *r.begin();
    r.erase(r.begin());
    if (ev.is_call && cancelled[ev.payload]) {
      discards.push_back(ev);
      continue;
    }
    return ev;
  }
  return std::nullopt;
}

bool same_event(const Event& a, const Event& b) {
  return a.at == b.at && a.seq == b.seq && a.payload == b.payload && a.is_call == b.is_call;
}

/// Drives the queue and the reference in lockstep through one op stream;
/// every pop is compared on the spot, sizes after every operation, and the
/// discard logs at the end.
class Lockstep {
 public:
  /// A shard-local event: the next insertion sequence number.
  void push(SimTime at, bool is_call) { push_keyed(at, seq_++, is_call); }

  /// A cross-shard ingress event from source `src` (a callable, as
  /// Engine::schedule_ingress queues it).
  void push_ingress(SimTime at, std::uint32_t src) {
    if (src >= ingress_counts_.size()) ingress_counts_.resize(src + 1, 0);
    push_keyed(at, ingress_key(src, ingress_counts_[src]++), true);
  }

  void push_keyed(SimTime at, std::uint64_t seq, bool is_call) {
    Event ev{at, seq, next_payload_++, is_call};
    if (is_call) cancelled_.resize(next_payload_, false);
    queue_.push(ev);
    reference_.insert(ev);
    if (is_call) live_calls_.push_back(ev.payload);
    check_size();
  }

  /// Flags a pending call event as cancelled (both sides share the flag
  /// array, exactly as the engine's queue shares the CallNode).
  void cancel(std::size_t live_index) {
    if (live_calls_.empty()) return;
    cancelled_[live_calls_[live_index % live_calls_.size()]] = true;
  }

  /// Pops one event from both sides and checks bit-equality.  Returns the
  /// popped time so callers can keep pushing relative to "now".
  std::optional<SimTime> pop_and_check() {
    cancelled_.resize(next_payload_, false);
    const auto q = pop_one(queue_, cancelled_, queue_discards_);
    const auto r = pop_one(reference_, cancelled_, reference_discards_);
    check_size();
    EXPECT_EQ(q.has_value(), r.has_value());
    if (!q || !r) return std::nullopt;
    EXPECT_TRUE(same_event(*q, *r)) << "queue (" << q->at << "," << q->seq << ") vs reference ("
                                    << r->at << "," << r->seq << ")";
    EXPECT_GE(q->at, last_popped_at_) << "pop order regressed in virtual time";
    last_popped_at_ = q->at;
    return q->at;
  }

  /// Reads the front without popping; it must be the reference minimum.
  void front_and_check() {
    ASSERT_FALSE(reference_.empty());
    const Event& q = queue_.front();
    const Event& r = *reference_.begin();
    EXPECT_TRUE(same_event(q, r)) << "queue front (" << q.at << "," << q.seq << ") vs reference ("
                                  << r.at << "," << r.seq << ")";
    check_size();
  }

  /// visit_all must see exactly the pending events, whatever the root holds.
  void visit_all_and_check() const {
    std::vector<Event> seen;
    queue_.visit_all([&seen](const Event& ev) { seen.push_back(ev); });
    std::sort(seen.begin(), seen.end(), ByKey{});
    ASSERT_EQ(seen.size(), reference_.size());
    auto it = reference_.begin();
    for (const Event& ev : seen) EXPECT_TRUE(same_event(ev, *it++));
  }

  void drain_and_check() {
    while (pop_and_check()) {
    }
    EXPECT_TRUE(queue_.empty());
    EXPECT_TRUE(reference_.empty());
    last_popped_at_ = kTimeMin;  // a drained queue accepts earlier times again
  }

  void check_discard_logs() const {
    ASSERT_EQ(queue_discards_.size(), reference_discards_.size());
    for (std::size_t i = 0; i < queue_discards_.size(); ++i) {
      EXPECT_TRUE(same_event(queue_discards_[i], reference_discards_[i])) << "discard " << i;
    }
  }

  [[nodiscard]] std::size_t size() const { return queue_.size(); }

 private:
  void check_size() const {
    EXPECT_EQ(queue_.size(), reference_.size());
    EXPECT_EQ(queue_.empty(), reference_.empty());
  }

  EventQueue queue_;
  Reference reference_;
  std::vector<bool> cancelled_;
  std::vector<std::uintptr_t> live_calls_;
  std::vector<Event> queue_discards_;
  std::vector<Event> reference_discards_;
  std::vector<std::uint32_t> ingress_counts_;
  std::uint64_t seq_ = 0;
  std::uintptr_t next_payload_ = 0;
  SimTime last_popped_at_ = kTimeMin;
};

// ---- the randomized property: >= 10k ops x >= 50 seeds -------------------

/// `ingress_percent` of the pushes carry a cross-shard ingress key from one
/// of eight sources instead of the next local sequence number, so ingress
/// events tie with local ones inside the same-time bursts.  The stream's
/// clock starts at `start`.
void run_random_stream(std::uint64_t seed, int ops, int ingress_percent = 0, SimTime start = 0) {
  Rng rng(seed);
  Lockstep q;
  SimTime now = start;
  // Draws nothing extra when ingress_percent is 0.
  const auto push = [&](SimTime at, bool is_call) {
    if (ingress_percent > 0 && rng.uniform_int(0, 99) < ingress_percent) {
      q.push_ingress(at, static_cast<std::uint32_t>(rng.uniform_int(0, 7)));
    } else {
      q.push(at, is_call);
    }
  };
  for (int op = 0; op < ops; ++op) {
    const std::int64_t kind = rng.uniform_int(0, 99);
    if (kind < 40) {
      // schedule_resume-shaped: near-future coroutine wake, heavy tie bursts.
      const std::int64_t burst = rng.uniform_int(1, 4);
      const SimTime at = now + rng.uniform_int(0, 5'000);
      for (std::int64_t i = 0; i < burst; ++i) push(at, false);
    } else if (kind < 55) {
      // schedule_at-shaped callable, cancellable later.
      push(now + rng.uniform_int(0, 50'000), true);
    } else if (kind < 60) {
      // Far-future timer (heartbeats, fault deadlines): sinks to the heap's
      // leaves and must still surface after every nearer event.
      push(now + rng.uniform_int(1'000'000'000, 1'000'000'000'000), true);
    } else if (kind < 65) {
      // Cancel a random pending call — sometimes the current front
      // (cancel-at-front race), sometimes one deep in the heap.
      q.cancel(static_cast<std::size_t>(rng.uniform_int(0, 1'000'000)));
    } else if (kind < 95) {
      // Pop; advancing `now` like the engine's run loop does.
      if (const auto at = q.pop_and_check()) now = *at;
    } else {
      // Burst drain of a few events: consecutive pops with no push between
      // them refill the empty root from the tail.
      for (int i = 0; i < 8; ++i) {
        if (const auto at = q.pop_and_check()) now = *at;
      }
    }
    if (::testing::Test::HasFailure()) return;  // one diff is enough per seed
  }
  q.drain_and_check();
  q.check_discard_logs();
}

TEST(QueueDifferential, RandomStreams50Seeds) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_random_stream(seed * 7919 + 17, 10'000);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(QueueDifferential, RandomStreamsMixIngressKeys) {
  // A third of the pushes are bit-63 ingress keys, and the clock starts
  // below zero and crosses it.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_random_stream(seed * 104'729 + 3, 10'000, 33, -100'000);
    if (::testing::Test::HasFailure()) return;
  }
}

// ---- directed edge cases -------------------------------------------------

TEST(QueueDifferential, SameTimestampBurstPopsInSeqOrder) {
  Lockstep q;
  for (int i = 0; i < 4096; ++i) q.push(1'000, i % 3 == 0);
  q.drain_and_check();
  q.check_discard_logs();
}

TEST(QueueDifferential, FarFutureTimersCrossTheOverflowRung) {
  // Near traffic plus timers far in the future; near events pushed after
  // the timers must still pop before every one of them.
  Lockstep q;
  for (int i = 0; i < 512; ++i) q.push(i * 100, false);
  for (int i = 0; i < 64; ++i) q.push(1'000'000'000'000 + i * 7, true);
  for (int i = 0; i < 512; ++i) q.push(i * 101, false);
  q.drain_and_check();
  q.check_discard_logs();
}

TEST(QueueDifferential, ResizeBoundaryCrossings) {
  // Walk the occupancy up through several doublings of the backing vector
  // (and several new heap levels), popping half after each step, then
  // drain, checking order at every step.
  Lockstep q;
  Rng rng(42);
  SimTime now = 0;
  for (int round = 0; round < 6; ++round) {
    const int grow = 40 << round;
    for (int i = 0; i < grow; ++i) q.push(now + rng.uniform_int(1, 10'000), i % 5 == 0);
    for (int i = 0; i < grow / 2; ++i) {
      if (const auto at = q.pop_and_check()) now = *at;
    }
  }
  q.drain_and_check();
  q.check_discard_logs();
}

TEST(QueueDifferential, EmptyRefillCycles) {
  Lockstep q;
  Rng rng(7);
  for (int cycle = 0; cycle < 32; ++cycle) {
    SimTime now = 0;
    const std::int64_t spread = cycle % 2 == 0 ? 100 : 1'000'000'000;
    for (int i = 0; i < 200; ++i) q.push(now + rng.uniform_int(0, spread), i % 4 == 0);
    q.drain_and_check();
    EXPECT_EQ(q.size(), 0u);
  }
  q.check_discard_logs();
}

TEST(QueueDifferential, IngressKeysTieWithLocalSeqs) {
  // At one timestamp, every shard-local event pops before every bit-63
  // ingress event, and ingress events pop in (source, counter) order.
  Lockstep q;
  for (int i = 0; i < 64; ++i) {
    q.push_ingress(1'000, static_cast<std::uint32_t>(i * 5 % 8));
    q.push(1'000, i % 2 == 0);
  }
  q.push_keyed(1'000, ~std::uint64_t{0}, false);  // the largest key: last
  q.push_keyed(999, ~std::uint64_t{0}, false);    // before every 1000
  q.pop_and_check();
  q.push_ingress(1'000, 0);  // into the empty root
  q.drain_and_check();
  q.check_discard_logs();
}

TEST(QueueDifferential, TimesAtAndJustBelowInfinity) {
  // kTimeInfinity is the engine's "never": the key's high half must keep it
  // after kTimeInfinity - 1 and every finite time, for either kind of seq.
  Lockstep q;
  for (int i = 0; i < 16; ++i) {
    q.push(kTimeInfinity, i % 2 == 0);
    q.push_ingress(kTimeInfinity, static_cast<std::uint32_t>(i % 3));
    q.push(kTimeInfinity - 1, false);
    q.push_ingress(kTimeInfinity - 1, static_cast<std::uint32_t>(i % 3));
    q.push(i, false);
  }
  q.drain_and_check();
  q.check_discard_logs();
}

TEST(QueueDifferential, NegativeTimesPopBeforeZero) {
  // The engine clamps times to now() >= 0, but the queue's order holds for
  // every int64: negative times pop first, the most negative first.
  Lockstep q;
  const SimTime times[] = {0, -1, kTimeMin, 1, kTimeMin + 1, -1'000'000, kTimeInfinity, -2};
  for (const SimTime at : times) {
    q.push(at, false);
    q.push_ingress(at, 3);
  }
  q.pop_and_check();        // kTimeMin, local
  q.push(kTimeMin, false);  // into the empty root; a local seq pops first
  q.drain_and_check();
}

TEST(QueueDifferential, CancelAtFrontRace) {
  // Cancel the event that is currently the global minimum, then pop: both
  // sides must discard it at the same point and surface the same successor.
  Lockstep q;
  q.push(10, true);   // payload 0 — becomes the front
  q.push(20, false);  // successor
  q.push(10, true);   // payload 1 — tied at the front's timestamp
  q.cancel(0);        // cancels payload 0, the (10, seq 0) front
  q.drain_and_check();
  q.check_discard_logs();
}

// ---- replace-top: a pop leaves the root slot empty -----------------------

TEST(QueueDifferential, ReplaceTopPopPushPop) {
  // The push after a pop lands in the empty root and must sift below the
  // earlier events already in the heap.
  Lockstep q;
  for (const SimTime at : {10, 20, 30, 40, 50, 60}) q.push(at, false);
  q.pop_and_check();  // 10; root empty
  q.push(45, false);  // into the root, sifts past 20 and 40
  q.pop_and_check();  // 20
  q.push(25, false);  // into the root, stays there
  q.pop_and_check();  // 25
  q.push(35, false);
  q.drain_and_check();
}

TEST(QueueDifferential, ReplaceTopPopThenFront) {
  // front() after a pop refills the empty root from the tail; size(),
  // empty() and visit_all must count the empty slot out before and after.
  Lockstep q;
  for (const SimTime at : {70, 10, 50, 30, 90, 20, 60}) q.push(at, false);
  q.pop_and_check();  // 10
  q.visit_all_and_check();
  q.front_and_check();  // 20, refilled
  q.visit_all_and_check();
  q.front_and_check();  // idempotent
  q.pop_and_check();
  q.pop_and_check();
  q.front_and_check();
  q.drain_and_check();
}

TEST(QueueDifferential, ReplaceTopPopUntilEmptyThenPush) {
  // Draining leaves only the empty root slot; the queue must read as empty
  // and the next pushes must rebuild a correct heap from that slot.
  Lockstep q;
  q.push(3, false);
  q.push(1, true);
  q.pop_and_check();
  q.pop_and_check();
  q.visit_all_and_check();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.pop_and_check().has_value());
  q.push(50, false);  // into the empty root
  q.push(40, false);
  q.push(60, false);
  q.pop_and_check();  // 40; root empty
  q.push(55, false);  // into the root, sifts below 50
  q.pop_and_check();  // 50
  q.drain_and_check();
}

TEST(QueueDifferential, ReplaceTopCancelledCallReachesEmptyRoot) {
  // A cancelled call becomes the minimum while the root slot is empty: the
  // pop after it discards the call and returns its successor.
  Lockstep q;
  q.push(10, true);   // payload 0
  q.push(20, true);   // payload 1: cancelled below
  q.push(30, false);  // payload 2
  q.pop_and_check();  // 10; root empty, (20) is now the minimum
  q.push(40, false);  // into the root, sifts below 20 and 30
  q.cancel(1);
  q.pop_and_check();  // discards 20, returns 30
  q.pop_and_check();  // 40
  q.drain_and_check();
  q.check_discard_logs();
}

}  // namespace
