#include "sim/resource.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"
#include "sim/process.hpp"

namespace {

using dlb::sim::Engine;
using dlb::sim::Process;
using dlb::sim::Resource;

Process worker(Engine& engine, Resource& res, std::int64_t hold, std::vector<int>* order,
               int id) {
  co_await res.acquire();
  order->push_back(id);
  co_await engine.sleep_for(hold);
  res.release();
}

TEST(Resource, ExclusiveAccessSerializes) {
  Engine engine;
  Resource res(engine);
  std::vector<int> order;
  engine.spawn(worker(engine, res, 100, &order, 0));
  engine.spawn(worker(engine, res, 100, &order, 1));
  engine.spawn(worker(engine, res, 100, &order, 2));
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(engine.now(), 300);
  EXPECT_THROW(res.release(), std::logic_error);  // the last worker freed it
}

TEST(Resource, ReleaseWithoutAcquireThrows) {
  Engine engine;
  Resource res(engine);
  EXPECT_THROW(res.release(), std::logic_error);
}

Process late_acquirer(Engine& engine, Resource& res, std::vector<int>* order, int id,
                      std::int64_t start_at) {
  co_await engine.sleep_until(start_at);
  co_await res.acquire();
  order->push_back(id);
  res.release();
}

TEST(Resource, LateAcquirerCannotOvertakeWaiter) {
  Engine engine;
  Resource res(engine);
  std::vector<int> order;
  // id 0 holds [0, 100); id 1 waits from t=0; id 2 arrives at t=100 exactly
  // when the release hands the unit to id 1.
  engine.spawn(worker(engine, res, 100, &order, 0));
  engine.spawn(worker(engine, res, 10, &order, 1));
  engine.spawn(late_acquirer(engine, res, &order, 2, 100));
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

}  // namespace
