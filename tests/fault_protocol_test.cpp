// Fault-tolerance acceptance matrix: {crash, revocation, message loss} x
// {GCDLB, GDDLB, LCDLB, LDDLB}.  Exactly-once execution is enforced inside
// run_ft_loop by the coverage oracle (it throws on a violation), so mere
// termination of these runs is already the core assertion; the tests add the
// observable counters on top.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "apps/synthetic.hpp"
#include "apps/trfd.hpp"
#include "cluster/cluster.hpp"
#include "core/runtime.hpp"
#include "core/types.hpp"
#include "fault/plan.hpp"
#include "obs/recorder.hpp"
#include "sim/time.hpp"

namespace {

using dlb::apps::make_trfd;
using dlb::apps::make_uniform;
using dlb::cluster::ClusterParams;
using dlb::core::AppDescriptor;
using dlb::core::DlbConfig;
using dlb::core::run_app;
using dlb::core::RunResult;
using dlb::core::Strategy;
using dlb::fault::FaultKind;
using dlb::fault::FaultPlan;
using dlb::obs::InstantEvent;
using dlb::obs::InstantKind;
using dlb::obs::PhaseKind;
using dlb::sim::from_seconds;

ClusterParams base_params(int procs, std::uint64_t seed = 42) {
  ClusterParams p;
  p.procs = procs;
  p.base_ops_per_sec = 1e6;
  p.seed = seed;
  return p;
}

DlbConfig config_for(Strategy s, FaultPlan plan) {
  DlbConfig c;
  c.strategy = s;
  c.faults = std::move(plan);
  return c;
}

std::vector<InstantEvent> instants_of(const RunResult& r, InstantKind kind) {
  std::vector<InstantEvent> out;
  for (const auto& e : r.obs->instants()) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

std::int64_t executed_total(const RunResult& r) {
  std::int64_t total = 0;
  for (const auto& loop : r.loops) {
    for (const auto n : loop.executed_per_proc) total += n;
  }
  return total;
}

constexpr Strategy kRanked[] = {Strategy::kGCDLB, Strategy::kGDDLB, Strategy::kLCDLB,
                                Strategy::kLDDLB};

class FaultMatrix : public ::testing::TestWithParam<Strategy> {};

INSTANTIATE_TEST_SUITE_P(Strategies, FaultMatrix, ::testing::ValuesIn(kRanked),
                         [](const auto& info) {
                           return dlb::core::strategy_name(info.param);
                         });

TEST_P(FaultMatrix, CrashHalfTerminatesWithRecovery) {
  const auto app = make_uniform(64, 25e3, 8.0);
  const auto r = run_app(base_params(4), app, config_for(GetParam(), FaultPlan::preset("crash-half")));
  EXPECT_EQ(r.faults.crashes, 1);
  EXPECT_GE(r.faults.recoveries, 1);
  EXPECT_GE(r.faults.iterations_recovered, 1);
  // The victim's pre-crash results are discarded and re-executed by the
  // survivors, so total executed work is at least the loop's iteration count.
  EXPECT_GE(executed_total(r), 64);
  EXPECT_GT(r.exec_seconds, 0.0);
}

TEST_P(FaultMatrix, RevocationRejoinsAtLoopBoundary) {
  // Revoked at ~40% coverage for 0.1 virtual seconds: back before loop 1
  // starts, so the second loop repartitions over the full cluster again.
  FaultPlan plan;
  plan.name = "revoke-brief";
  plan.events.push_back({FaultKind::kRevoke, -1, {-1.0, 0.4, 0}, 0.1});
  auto app = make_uniform(64, 25e3, 8.0);
  app.loops.push_back(app.loops[0]);
  app.loops[1].name = "uniform-2";
  auto cfg = config_for(GetParam(), plan);
  cfg.observe = true;
  const auto r = run_app(base_params(4), app, cfg);
  EXPECT_EQ(r.faults.revocations, 1);
  EXPECT_EQ(r.faults.rejoins, 1);
  EXPECT_EQ(r.faults.crashes, 0);
  EXPECT_GE(executed_total(r), 128);
  // The trace shows the revoked station leave before it rejoins.
  const auto deaths = instants_of(r, InstantKind::kDeath);
  const auto rejoins = instants_of(r, InstantKind::kRejoin);
  ASSERT_EQ(deaths.size(), 1u);
  ASSERT_EQ(rejoins.size(), 1u);
  EXPECT_EQ(deaths[0].proc, 3);
  EXPECT_EQ(rejoins[0].proc, 3);
  EXPECT_LT(deaths[0].at, rejoins[0].at);
}

TEST_P(FaultMatrix, MessageLossTerminates) {
  FaultPlan plan;
  plan.name = "loss25";
  plan.message_loss_rate = 0.25;
  const auto app = make_uniform(64, 25e3, 8.0);
  const auto r = run_app(base_params(4), app, config_for(GetParam(), plan));
  EXPECT_EQ(r.faults.crashes, 0);
  EXPECT_GE(r.faults.dropped_frames, 1);
  // No deaths: nothing is wiped, so the count is exact despite the losses.
  EXPECT_EQ(executed_total(r), 64);
}

TEST_P(FaultMatrix, CrashAndLossCombined) {
  const auto app = make_uniform(64, 25e3, 8.0);
  const auto r =
      run_app(base_params(4), app, config_for(GetParam(), FaultPlan::preset("crash-loss")));
  EXPECT_EQ(r.faults.crashes, 1);
  EXPECT_GE(executed_total(r), 64);
}

TEST(FaultProtocol, CentralManagerFailover) {
  // crash-coord kills rank 0 — the initial central manager.  The centralized
  // strategies must elect the lowest surviving rank and finish.
  for (const Strategy s : {Strategy::kGCDLB, Strategy::kLCDLB}) {
    const auto app = make_uniform(64, 25e3, 8.0);
    const auto r = run_app(base_params(4), app, config_for(s, FaultPlan::preset("crash-coord")));
    EXPECT_EQ(r.faults.crashes, 1) << dlb::core::strategy_name(s);
    EXPECT_GE(r.faults.recoveries, 1) << dlb::core::strategy_name(s);
  }
}

TEST(FaultProtocol, TwoCrashesOnEightStations) {
  for (const Strategy s : {Strategy::kGDDLB, Strategy::kLCDLB}) {
    const auto app = make_uniform(96, 25e3, 8.0);
    const auto r = run_app(base_params(8), app, config_for(s, FaultPlan::preset("crash-two")));
    EXPECT_EQ(r.faults.crashes, 2) << dlb::core::strategy_name(s);
    EXPECT_GE(executed_total(r), 96) << dlb::core::strategy_name(s);
  }
}

TEST(FaultProtocol, TrfdPhasesSurviveACrash) {
  // TRFD has two loops separated by a sequential gather/compute/scatter
  // phase; the crash in loop 0 leaves the phase and loop 1 running on the
  // survivors.
  const auto app = make_trfd({20});
  const auto r =
      run_app(base_params(4), app, config_for(Strategy::kGDDLB, FaultPlan::preset("crash-half")));
  EXPECT_EQ(r.faults.crashes, 1);
  EXPECT_EQ(r.loops.size(), 2u);
  EXPECT_GT(r.loops[1].finish_seconds, r.loops[0].finish_seconds);
}

TEST(FaultProtocol, ReplayIsBitIdentical) {
  for (const Strategy s : kRanked) {
    const auto app = make_uniform(64, 25e3, 8.0);
    const auto cfg = config_for(s, FaultPlan::preset("crash-loss"));
    const auto a = run_app(base_params(4, 7), app, cfg);
    const auto b = run_app(base_params(4, 7), app, cfg);
    EXPECT_EQ(a.exec_seconds, b.exec_seconds) << dlb::core::strategy_name(s);
    EXPECT_EQ(a.messages, b.messages) << dlb::core::strategy_name(s);
    EXPECT_EQ(a.bytes, b.bytes) << dlb::core::strategy_name(s);
    EXPECT_EQ(a.faults.dropped_frames, b.faults.dropped_frames) << dlb::core::strategy_name(s);
    EXPECT_EQ(a.faults.retries, b.faults.retries) << dlb::core::strategy_name(s);
    ASSERT_EQ(a.loops.size(), b.loops.size());
    EXPECT_EQ(a.loops[0].executed_per_proc, b.loops[0].executed_per_proc)
        << dlb::core::strategy_name(s);
  }
}

TEST(FaultProtocol, DisarmedPresetTakesTheFaultFreePath) {
  const auto app = make_uniform(64, 25e3, 8.0);
  const auto armed_none = run_app(base_params(4), app,
                                  config_for(Strategy::kGDDLB, FaultPlan::preset("none")));
  const auto plain = run_app(base_params(4), app, config_for(Strategy::kGDDLB, FaultPlan{}));
  EXPECT_FALSE(FaultPlan::preset("none").armed());
  EXPECT_EQ(armed_none.exec_seconds, plain.exec_seconds);
  EXPECT_EQ(armed_none.messages, plain.messages);
  EXPECT_EQ(armed_none.faults.crashes, 0);
}

TEST(FaultProtocol, NoDlbCannotRunArmed) {
  const auto app = make_uniform(64, 25e3, 8.0);
  EXPECT_THROW(run_app(base_params(4), app,
                       config_for(Strategy::kNoDlb, FaultPlan::preset("crash-half"))),
               std::invalid_argument);
}

TEST(FaultProtocol, DeadWorkstationExecutesNothingAfterTheCrash) {
  // crash-half kills the highest rank; its executed counter may retain the
  // pre-crash work it wasted, but the coverage oracle guarantees every
  // iteration was (re-)executed by a survivor — observable as the survivors
  // covering at least the whole loop.
  const auto app = make_uniform(64, 25e3, 8.0);
  const auto r =
      run_app(base_params(4), app, config_for(Strategy::kGDDLB, FaultPlan::preset("crash-half")));
  std::int64_t survivors = 0;
  const auto& per_proc = r.loops[0].executed_per_proc;
  for (std::size_t p = 0; p + 1 < per_proc.size(); ++p) survivors += per_proc[p];
  EXPECT_GE(survivors, 64 - per_proc.back());
}

TEST(FaultProtocol, ObservedCrashesRecordOneDeathInstantEach) {
  // Two timed crashes inside the loop: each victim gets exactly one death
  // instant, on its own track, at its crash time.
  FaultPlan plan;
  plan.name = "crash-timed";
  plan.events.push_back({FaultKind::kCrash, 3, {0.3, -1.0, 0}, 0.0});
  plan.events.push_back({FaultKind::kCrash, 1, {0.6, -1.0, 0}, 0.0});
  const auto app = make_uniform(256, 25e3, 8.0);
  for (const Strategy s : kRanked) {
    auto cfg = config_for(s, plan);
    cfg.observe = true;
    const auto r = run_app(base_params(4), app, cfg);
    ASSERT_EQ(r.faults.crashes, 2) << dlb::core::strategy_name(s);
    const auto deaths = instants_of(r, InstantKind::kDeath);
    ASSERT_EQ(deaths.size(), 2u) << dlb::core::strategy_name(s);
    EXPECT_EQ(deaths[0].proc, 3);
    EXPECT_EQ(deaths[0].at, from_seconds(0.3));
    EXPECT_EQ(deaths[1].proc, 1);
    EXPECT_EQ(deaths[1].at, from_seconds(0.6));
  }
}

TEST(FaultProtocol, StrandedGroupIsDrainedByARecruit) {
  // LC and LD at P = 4 balance inside the groups {0, 1} and {2, 3}.  Timed
  // crashes kill both members of group 1, so no round of that group can
  // reclaim its lost work; a recovery slave recruited on a survivor of group
  // 0 must drain it.
  FaultPlan plan;
  plan.name = "crash-group";
  plan.events.push_back({FaultKind::kCrash, 3, {0.3, -1.0, 0}, 0.0});
  plan.events.push_back({FaultKind::kCrash, 2, {0.6, -1.0, 0}, 0.0});
  const auto app = make_uniform(256, 25e3, 8.0);
  for (const Strategy s : {Strategy::kLCDLB, Strategy::kLDDLB}) {
    const auto r = run_app(base_params(4), app, config_for(s, plan));
    EXPECT_EQ(r.faults.crashes, 2) << dlb::core::strategy_name(s);
    EXPECT_GE(r.faults.recoveries, 1) << dlb::core::strategy_name(s);
    // Work moves only inside a group, so group 0 covers every iteration only
    // when the recruit ran group 1's share there.
    const auto& executed = r.loops[0].executed_per_proc;
    EXPECT_GE(executed[0] + executed[1], 256) << dlb::core::strategy_name(s);
  }
}

TEST(FaultProtocol, SequentialSpanIsOnThePhaseMaster) {
  // crash-coord kills rank 0 in loop 0, so rank 1 (the lowest survivor)
  // masters TRFD's sequential phase; fault-free, rank 0 does.
  const auto app = make_trfd({20});
  const auto master_of = [&app](FaultPlan plan) {
    auto cfg = config_for(Strategy::kGDDLB, std::move(plan));
    cfg.observe = true;
    const auto r = run_app(base_params(4), app, cfg);
    std::vector<int> procs;
    for (const auto& p : r.obs->phases()) {
      if (p.kind == PhaseKind::kSequential) procs.push_back(p.proc);
    }
    return procs;
  };
  EXPECT_EQ(master_of(FaultPlan::preset("crash-coord")), std::vector<int>{1});
  EXPECT_EQ(master_of(FaultPlan{}), std::vector<int>{0});
}

}  // namespace
