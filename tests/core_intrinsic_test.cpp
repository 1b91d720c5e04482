#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "apps/synthetic.hpp"
#include "core/runtime.hpp"
#include "model/predictor.hpp"
#include "net/characterize.hpp"

namespace {

using dlb::apps::make_stencil;
using dlb::apps::make_uniform;
using dlb::core::DlbConfig;
using dlb::core::run_app;
using dlb::core::Strategy;

dlb::cluster::ClusterParams params_for(int procs, bool load = false) {
  dlb::cluster::ClusterParams p;
  p.procs = procs;
  p.base_ops_per_sec = 1e6;
  if (!load) p.load.max_load = 0;  // dedicated machines
  return p;
}

TEST(IntrinsicComm, StencilDescriptor) {
  const auto app = make_stencil(32, 10e3, 64.0, 128.0);
  EXPECT_DOUBLE_EQ(app.loops[0].intrinsic_bytes_per_iteration, 128.0);
  EXPECT_DOUBLE_EQ(app.loops[0].ops_of(0), 10e3);
}

TEST(IntrinsicComm, NegativeIntrinsicRejected) {
  auto app = make_stencil(8, 1e3, 0.0, 64.0);
  app.loops[0].intrinsic_bytes_per_iteration = -1.0;
  EXPECT_THROW(app.loops[0].validate(), std::invalid_argument);
}

TEST(IntrinsicComm, NonFiniteBytesRejected) {
  // A non-finite size used to reach the byte-count casts of the sends.
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    auto app = make_stencil(8, 1e3, 0.0, 64.0);
    app.loops[0].intrinsic_bytes_per_iteration = bad;
    EXPECT_THROW(app.loops[0].validate(), std::invalid_argument);
    app = make_stencil(8, 1e3, 0.0, 64.0);
    app.loops[0].bytes_per_iteration = bad;
    EXPECT_THROW(app.loops[0].validate(), std::invalid_argument);
  }
}

class IntrinsicAllStrategies : public ::testing::TestWithParam<Strategy> {};

TEST_P(IntrinsicAllStrategies, CompletesWithIC) {
  const auto app = make_stencil(48, 20e3, 64.0, 256.0);
  const auto r = run_app(params_for(4, /*load=*/true), app, [] {
    DlbConfig c;
    return c;
  }());
  std::int64_t total = 0;
  for (const auto n : r.loops[0].executed_per_proc) total += n;
  EXPECT_EQ(total, 48);
}

INSTANTIATE_TEST_SUITE_P(Strategies, IntrinsicAllStrategies,
                         ::testing::Values(Strategy::kNoDlb, Strategy::kGDDLB,
                                           Strategy::kLDDLB),
                         [](const auto& info) {
                           return std::string(dlb::core::strategy_name(info.param));
                         });

TEST(IntrinsicComm, SlowsExecution) {
  const auto plain = make_uniform(48, 20e3, 64.0);
  const auto stencil = make_stencil(48, 20e3, 64.0, 1024.0);
  DlbConfig config;
  config.strategy = Strategy::kNoDlb;
  const auto r_plain = run_app(params_for(4), plain, config);
  const auto r_stencil = run_app(params_for(4), stencil, config);
  EXPECT_GT(r_stencil.exec_seconds, r_plain.exec_seconds);
}

TEST(IntrinsicComm, GeneratesNetworkTraffic) {
  const auto stencil = make_stencil(48, 20e3, 64.0, 256.0);
  DlbConfig config;
  config.strategy = Strategy::kNoDlb;
  const auto r = run_app(params_for(4), stencil, config);
  EXPECT_GE(r.messages, 48u);  // one IC message per iteration
}

TEST(IntrinsicComm, SingleProcessorSkipsIC) {
  const auto stencil = make_stencil(8, 10e3, 0.0, 256.0);
  DlbConfig config;
  config.strategy = Strategy::kNoDlb;
  const auto r = run_app(params_for(1), stencil, config);
  EXPECT_EQ(r.messages, 0u);
  EXPECT_NEAR(r.exec_seconds, 8 * 10e3 / 1e6, 1e-6);
}

TEST(IntrinsicComm, ModelAccountsForIC) {
  const auto plain = make_uniform(48, 20e3, 64.0);
  const auto stencil = make_stencil(48, 20e3, 64.0, 1024.0);
  const auto costs = dlb::net::characterize(dlb::net::EthernetParams{}, 8).costs;

  dlb::model::PredictorInputs in;
  in.cluster = params_for(4, true);
  in.costs = costs;
  in.loop = &plain.loops[0];
  const auto p_plain = dlb::model::Predictor(in).predict(Strategy::kGDDLB);
  in.loop = &stencil.loops[0];
  const auto p_stencil = dlb::model::Predictor(in).predict(Strategy::kGDDLB);
  EXPECT_GT(p_stencil.makespan_seconds, p_plain.makespan_seconds);
}

}  // namespace
