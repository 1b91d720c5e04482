#include "sim/mailbox.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/process.hpp"

namespace {

using dlb::sim::Engine;
using dlb::sim::kAnySource;
using dlb::sim::kAnyTag;
using dlb::sim::Mailbox;
using dlb::sim::Message;
using dlb::sim::Process;
using dlb::sim::SimTime;
using dlb::sim::Tags;

Message make_message(int source, int tag, int value) {
  Message m;
  m.source = source;
  m.tag = tag;
  m.payload = value;
  return m;
}

TEST(Mailbox, TryReceiveEmpty) {
  Engine engine;
  Mailbox box(engine);
  EXPECT_FALSE(box.try_receive().has_value());
  EXPECT_FALSE(box.has_message());
}

TEST(Mailbox, QueuedMessageMatchedByTag) {
  Engine engine;
  Mailbox box(engine);
  box.deliver(make_message(1, 10, 100));
  box.deliver(make_message(2, 20, 200));
  EXPECT_TRUE(box.has_message(20));
  const auto m = box.try_receive(20);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->source, 2);
  EXPECT_EQ(m->as<int>(), 200);
  EXPECT_EQ(box.try_receive()->tag, 10);
  EXPECT_FALSE(box.try_receive().has_value());
}

TEST(Mailbox, MatchBySourceAndWildcards) {
  Engine engine;
  Mailbox box(engine);
  box.deliver(make_message(3, 7, 1));
  EXPECT_FALSE(box.try_receive(7, 4).has_value());
  EXPECT_TRUE(box.has_message(kAnyTag, 3));
  const auto m = box.try_receive(kAnyTag, kAnySource);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->as<int>(), 1);
}

TEST(Mailbox, FifoWithinMatches) {
  Engine engine;
  Mailbox box(engine);
  box.deliver(make_message(1, 5, 10));
  box.deliver(make_message(1, 5, 11));
  EXPECT_EQ(box.try_receive(5)->as<int>(), 10);
  EXPECT_EQ(box.try_receive(5)->as<int>(), 11);
}

Process blocking_receiver(Engine& engine, Mailbox& box, Tags tags, std::vector<int>* values,
                          std::vector<std::int64_t>* times) {
  const Message m = co_await box.receive(tags);
  values->push_back(m.as<int>());
  times->push_back(engine.now());
}

TEST(Mailbox, ReceiveBlocksUntilDelivery) {
  Engine engine;
  Mailbox box(engine);
  std::vector<int> values;
  std::vector<std::int64_t> times;
  engine.spawn(blocking_receiver(engine, box, 9, &values, &times));
  engine.schedule_at(500, [&] { box.deliver(make_message(0, 9, 42)); });
  engine.run();
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], 42);
  EXPECT_EQ(times[0], 500);
}

TEST(Mailbox, ReceiveReadyWhenMessageAlreadyQueued) {
  Engine engine;
  Mailbox box(engine);
  box.deliver(make_message(0, 9, 7));
  std::vector<int> values;
  std::vector<std::int64_t> times;
  engine.spawn(blocking_receiver(engine, box, 9, &values, &times));
  engine.run();
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], 7);
  EXPECT_EQ(times[0], 0);
}

TEST(Mailbox, NonMatchingDeliveryDoesNotWakeWaiter) {
  Engine engine;
  Mailbox box(engine);
  std::vector<int> values;
  std::vector<std::int64_t> times;
  engine.spawn(blocking_receiver(engine, box, 9, &values, &times));
  engine.schedule_at(100, [&] { box.deliver(make_message(0, 8, 1)); });
  engine.schedule_at(200, [&] { box.deliver(make_message(0, 9, 2)); });
  engine.run();
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], 2);
  EXPECT_EQ(times[0], 200);
  EXPECT_EQ(box.try_receive(8)->as<int>(), 1);  // the tag-8 message stays queued
}

TEST(Mailbox, MultipleWaitersServedInArrivalOrder) {
  Engine engine;
  Mailbox box(engine);
  std::vector<int> values;
  std::vector<std::int64_t> times;
  engine.spawn(blocking_receiver(engine, box, kAnyTag, &values, &times));
  engine.spawn(blocking_receiver(engine, box, kAnyTag, &values, &times));
  engine.schedule_at(10, [&] { box.deliver(make_message(0, 1, 100)); });
  engine.schedule_at(20, [&] { box.deliver(make_message(0, 1, 200)); });
  engine.run();
  EXPECT_EQ(values, (std::vector<int>{100, 200}));
}

TEST(Mailbox, WaitersWithDifferentFiltersMatchedCorrectly) {
  Engine engine;
  Mailbox box(engine);
  std::vector<int> tag5_values;
  std::vector<int> tag6_values;
  std::vector<std::int64_t> t5;
  std::vector<std::int64_t> t6;
  engine.spawn(blocking_receiver(engine, box, 5, &tag5_values, &t5));
  engine.spawn(blocking_receiver(engine, box, 6, &tag6_values, &t6));
  engine.schedule_at(10, [&] { box.deliver(make_message(0, 6, 66)); });
  engine.schedule_at(20, [&] { box.deliver(make_message(0, 5, 55)); });
  engine.run();
  ASSERT_EQ(tag5_values.size(), 1u);
  ASSERT_EQ(tag6_values.size(), 1u);
  EXPECT_EQ(tag5_values[0], 55);
  EXPECT_EQ(tag6_values[0], 66);
}

TEST(Mailbox, TagRangeTakesOldestInRangeAndSkipsItsNeighbours) {
  Engine engine;
  Mailbox box(engine);
  box.deliver(make_message(0, 9, 1));   // one below the range
  box.deliver(make_message(0, 13, 2));  // one above it
  box.deliver(make_message(0, 12, 3));
  box.deliver(make_message(0, 10, 4));
  std::vector<int> values;
  std::vector<std::int64_t> times;
  for (int i = 0; i < 3; ++i) {
    engine.spawn(blocking_receiver(engine, box, {10, 12}, &values, &times));
  }
  engine.schedule_at(100, [&] { box.deliver(make_message(0, 13, 5)); });
  engine.schedule_at(200, [&] { box.deliver(make_message(0, 11, 6)); });
  engine.run();
  // Oldest in range first (not lowest tag); the third receiver waits out
  // the out-of-range delivery.
  EXPECT_EQ(values, (std::vector<int>{3, 4, 6}));
  EXPECT_EQ(times, (std::vector<std::int64_t>{0, 0, 200}));
  EXPECT_EQ(box.try_receive()->as<int>(), 1);
  EXPECT_EQ(box.try_receive()->as<int>(), 2);
  EXPECT_EQ(box.try_receive()->as<int>(), 5);
  EXPECT_FALSE(box.try_receive().has_value());
}

Process deadline_receiver(Engine& engine, Mailbox& box, SimTime deadline,
                          std::optional<Message>* got, SimTime* woke_at) {
  *got = co_await box.receive_until(deadline, 9);
  *woke_at = engine.now();
}

TEST(Mailbox, ReceiveUntilYieldsNulloptAtTheDeadline) {
  Engine engine;
  Mailbox box(engine);
  box.deliver(make_message(0, 8, 1));  // queued, but not a match
  std::optional<Message> got;
  SimTime woke_at = -1;
  engine.spawn(deadline_receiver(engine, box, 300, &got, &woke_at));
  engine.run();
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(woke_at, 300);
  EXPECT_EQ(box.try_receive(8)->as<int>(), 1);
}

TEST(Mailbox, EarlyDeliveryEndsTheRunAtTheDeliveryTime) {
  Engine engine;
  Mailbox box(engine);
  std::optional<Message> got;
  SimTime woke_at = -1;
  engine.spawn(deadline_receiver(engine, box, 1000, &got, &woke_at));
  engine.schedule_at(200, [&] { box.deliver(make_message(0, 9, 7)); });
  // The delivery cancels the deadline timer, which must not stretch the run.
  EXPECT_EQ(engine.run(), 200);
  EXPECT_TRUE(engine.empty());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->as<int>(), 7);
  EXPECT_EQ(woke_at, 200);
}

TEST(Message, TypedAccessorThrowsOnWrongType) {
  Message m;
  m.payload = std::string("hello");
  EXPECT_EQ(m.as<std::string>(), "hello");
  EXPECT_THROW((void)m.as<int>(), std::bad_any_cast);
}

}  // namespace
