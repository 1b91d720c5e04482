// Fuzz of Mailbox::deliver / try_receive against a trivial reference model
// (a plain vector with linear scans): matching on a single tag, a tag range
// or any tag, with or without a source, must behave identically over
// thousands of random operation sequences.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "sim/engine.hpp"
#include "sim/mailbox.hpp"
#include "support/rng.hpp"

namespace {

using dlb::sim::Engine;
using dlb::sim::kAnySource;
using dlb::sim::kAnyTag;
using dlb::sim::Mailbox;
using dlb::sim::Message;
using dlb::sim::Tags;
using dlb::support::Rng;

struct RefMessage {
  int source;
  int tag;
  int value;
};

class ReferenceMailbox {
 public:
  void deliver(RefMessage m) { queue_.push_back(m); }

  /// `any_tag` ignores [lo, hi].
  std::optional<RefMessage> try_receive(bool any_tag, int lo, int hi, int source) {
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const auto& m = queue_[i];
      if ((any_tag || (lo <= m.tag && m.tag <= hi)) &&
          (source == kAnySource || m.source == source)) {
        const RefMessage out = m;
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
        return out;
      }
    }
    return std::nullopt;
  }

  [[nodiscard]] std::size_t size() const { return queue_.size(); }

 private:
  std::vector<RefMessage> queue_;
};

TEST(MailboxFuzz, MatchesReferenceModel) {
  Engine engine;
  Mailbox box(engine);
  ReferenceMailbox reference;
  Rng rng(31337);

  int next_value = 0;
  for (int op = 0; op < 20000; ++op) {
    const bool do_deliver = rng.uniform01() < 0.55 || reference.size() == 0;
    if (do_deliver) {
      const int source = static_cast<int>(rng.uniform_int(0, 3));
      const int tag = static_cast<int>(rng.uniform_int(100, 104));
      Message m;
      m.source = source;
      m.tag = tag;
      m.payload = next_value;
      box.deliver(std::move(m));
      reference.deliver({source, tag, next_value});
      ++next_value;
    } else {
      // A third each: any tag, one tag, and a range reaching one tag past
      // the delivered ones on either side.
      const double kind = rng.uniform01();
      const bool any_tag = kind < 1.0 / 3.0;
      int lo = static_cast<int>(rng.uniform_int(99, 105));
      int hi = lo;
      if (kind >= 2.0 / 3.0) hi = static_cast<int>(rng.uniform_int(lo, 105));
      const Tags tags = any_tag ? Tags(kAnyTag) : lo == hi ? Tags(lo) : Tags(lo, hi);
      const int source =
          rng.uniform01() < 0.3 ? kAnySource : static_cast<int>(rng.uniform_int(0, 3));
      const auto got = box.try_receive(tags, source);
      const auto expected = reference.try_receive(any_tag, lo, hi, source);
      ASSERT_EQ(got.has_value(), expected.has_value()) << "op " << op;
      if (got) {
        EXPECT_EQ(got->source, expected->source) << "op " << op;
        EXPECT_EQ(got->tag, expected->tag) << "op " << op;
        EXPECT_EQ(got->as<int>(), expected->value) << "op " << op;
      }
    }
  }
  // Whatever is left must be the same messages in the same order.
  while (const auto got = box.try_receive()) {
    const auto expected = reference.try_receive(true, 0, 0, kAnySource);
    ASSERT_TRUE(expected.has_value());
    EXPECT_EQ(got->as<int>(), expected->value);
  }
  EXPECT_EQ(reference.size(), 0u);
}

TEST(MailboxFuzz, HasMessageAgreesWithTryReceive) {
  Engine engine;
  Mailbox box(engine);
  Rng rng(77);
  for (int op = 0; op < 5000; ++op) {
    if (rng.uniform01() < 0.6) {
      Message m;
      m.source = static_cast<int>(rng.uniform_int(0, 2));
      m.tag = static_cast<int>(rng.uniform_int(10, 12));
      box.deliver(std::move(m));
    } else {
      const int tag = static_cast<int>(rng.uniform_int(10, 12));
      const int source = static_cast<int>(rng.uniform_int(0, 2));
      const bool had = box.has_message(tag, source);
      const auto got = box.try_receive(tag, source);
      EXPECT_EQ(had, got.has_value()) << "op " << op;
    }
  }
}

}  // namespace
