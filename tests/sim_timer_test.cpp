#include "sim/timer.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/time.hpp"

namespace {

using dlb::sim::CancellableSleep;
using dlb::sim::Engine;
using dlb::sim::Process;
using dlb::sim::SimTime;

TEST(EngineTimer, CancelledCallbackNeverFires) {
  Engine engine;
  bool fired = false;
  auto timer = engine.schedule_cancellable_at(100, [&] { fired = true; });
  engine.schedule_at(50, [&] { engine.cancel(timer); });
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(EngineTimer, CancelledEventDoesNotAdvanceTheClock) {
  // The whole point of cancellable timers for the fault layer: a cancelled
  // deadline parked far in the future must not drag now() forward when the
  // queue drains.
  Engine engine;
  auto timer = engine.schedule_cancellable_at(1'000'000'000, [] {});
  engine.schedule_at(10, [&] { engine.cancel(timer); });
  engine.run();
  EXPECT_EQ(engine.now(), 10);
}

TEST(EngineTimer, CancelAfterFiringIsANoOp) {
  Engine engine;
  int fired = 0;
  auto timer = engine.schedule_cancellable_at(10, [&] { ++fired; });
  engine.run();
  engine.cancel(timer);  // stale handle: generation check makes this safe
  EXPECT_EQ(fired, 1);
}

TEST(EngineTimer, IndependentTimersCancelIndependently) {
  Engine engine;
  std::vector<int> fired;
  auto a = engine.schedule_cancellable_at(100, [&] { fired.push_back(1); });
  auto b = engine.schedule_cancellable_at(200, [&] { fired.push_back(2); });
  auto c = engine.schedule_cancellable_at(300, [&] { fired.push_back(3); });
  engine.schedule_at(50, [&] { engine.cancel(b); });
  engine.run();
  engine.cancel(a);
  engine.cancel(c);
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
  EXPECT_EQ(engine.now(), 300);
}

TEST(EngineTimer, CancelAfterPopEpoch) {
  // The cancelling callback at 100 runs while the timer's record at 105 is
  // already queued, and after the queue's root slot was emptied by the pop
  // of the callback itself.  The cancellation flag must still be honoured
  // at the record's own pop point — the timer never fires and the clock
  // never advances to its deadline.
  Engine engine;
  bool fired = false;
  auto timer = engine.schedule_cancellable_at(105, [&] { fired = true; });
  engine.schedule_at(100, [&] { engine.cancel(timer); });
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.now(), 100);
}

TEST(EngineTimer, CancelDuringBucketDrain) {
  // Same-timestamp burst: three events at t=100 pop in (at, seq) order.  The
  // first cancels the second; the third must still run, and the cancelled
  // record between them must be skipped in place.
  Engine engine;
  std::vector<int> fired;
  Engine::Timer doomed;
  engine.schedule_at(100, [&] {
    fired.push_back(1);
    engine.cancel(doomed);
  });
  doomed = engine.schedule_cancellable_at(100, [&] { fired.push_back(2); });
  engine.schedule_at(100, [&] { fired.push_back(3); });
  engine.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
  EXPECT_EQ(engine.now(), 100);
}

TEST(EngineTimer, CancelArrivingAfterSameTimestampTimerIsTooLate) {
  // (at, seq) order pins the race: the timer was scheduled before the
  // canceller at the same timestamp, so it pops first and fires.
  Engine engine;
  bool fired = false;
  auto timer = engine.schedule_cancellable_at(100, [&] { fired = true; });
  engine.schedule_at(100, [&] { engine.cancel(timer); });
  engine.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(engine.now(), 100);
}

Process sleeper(Engine& engine, CancellableSleep& sleep, SimTime duration,
                std::vector<bool>& results) {
  (void)engine;
  const bool expired = co_await sleep.wait_for(duration);
  results.push_back(expired);
}

TEST(CancellableSleep, ExpiresNormally) {
  Engine engine;
  CancellableSleep sleep(engine);
  std::vector<bool> results;
  engine.spawn(sleeper(engine, sleep, 100, results));
  engine.run();
  EXPECT_EQ(results, (std::vector<bool>{true}));
  EXPECT_EQ(engine.now(), 100);
  EXPECT_FALSE(sleep.pending());
}

TEST(CancellableSleep, CancelWakesTheSleeperEarly) {
  Engine engine;
  CancellableSleep sleep(engine);
  std::vector<bool> results;
  engine.spawn(sleeper(engine, sleep, 1'000'000, results));
  engine.schedule_at(10, [&] { sleep.cancel(); });
  engine.run();
  EXPECT_EQ(results, (std::vector<bool>{false}));
  EXPECT_EQ(engine.now(), 10);
}

TEST(CancellableSleep, ReusableAfterEachWake) {
  Engine engine;
  CancellableSleep sleep(engine);
  std::vector<bool> results;
  engine.spawn([](CancellableSleep& s, std::vector<bool>& out) -> Process {
    out.push_back(co_await s.wait_for(10));
    out.push_back(co_await s.wait_for(10));  // reuse after expiry
    out.push_back(co_await s.wait_for(1'000'000));
  }(sleep, results));
  engine.schedule_at(25, [&] { sleep.cancel(); });
  engine.run();
  EXPECT_EQ(results, (std::vector<bool>{true, true, false}));
  EXPECT_EQ(engine.now(), 25);
}

TEST(CancellableSleep, CancelWithNoSleeperIsANoOp) {
  Engine engine;
  CancellableSleep sleep(engine);
  sleep.cancel();
  engine.run();
  EXPECT_EQ(engine.now(), 0);
}

TEST(CancellableSleep, ZeroDurationCompletesImmediately) {
  Engine engine;
  CancellableSleep sleep(engine);
  std::vector<bool> results;
  engine.spawn(sleeper(engine, sleep, 0, results));
  engine.run();
  EXPECT_EQ(results, (std::vector<bool>{true}));
  EXPECT_EQ(engine.now(), 0);
}

}  // namespace
