// Open-stream service cells: FIFO queueing invariants, exact nearest-rank
// percentiles, determinism of the whole SLA report, metric totals, and the
// model-vs-sim backend calibration.
#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/characterize.hpp"
#include "obs/metrics.hpp"
#include "svc/arrivals.hpp"
#include "svc/job.hpp"

namespace {

using dlb::cluster::ClusterParams;
using dlb::core::DlbConfig;
using dlb::core::ranked_strategy;
using dlb::core::Strategy;
using dlb::net::CollectiveCosts;
using dlb::svc::JobClass;
using dlb::svc::JobMix;
using dlb::svc::mean_best_service_seconds;
using dlb::svc::parse_arrival_spec;
using dlb::svc::predicted_service_table;
using dlb::svc::run_service;
using dlb::svc::ServiceBackend;
using dlb::svc::ServiceParams;
using dlb::svc::ServiceReport;
using dlb::svc::strategy_slot;

const CollectiveCosts& costs() {
  static const CollectiveCosts value =
      dlb::net::characterize(dlb::net::EthernetParams{}, 16).costs;
  return value;
}

ClusterParams cluster_for(int procs, std::uint64_t seed = 42) {
  ClusterParams p;
  p.procs = procs;
  p.base_ops_per_sec = 1e6;
  p.external_load = true;
  p.seed = seed;
  return p;
}

/// One small class so model-backend cells are cheap and predictable.
JobMix small_mix() {
  JobMix mix;
  mix.name = "test";
  JobClass cls;
  cls.name = "small";
  cls.iterations = 64;
  cls.ops_per_iteration = 50e3;
  cls.bytes_per_iteration = 64.0;
  cls.tl_seconds = 2.0;
  cls.max_load = 5;
  cls.weight = 1.0;
  mix.classes.push_back(cls);
  return mix;
}

ServiceParams params_for(std::uint64_t jobs, double rho) {
  ServiceParams p;
  p.jobs = jobs;
  p.rho = rho;
  p.mix = small_mix();
  p.load_variants = 2;
  p.strategy = ranked_strategy(0);
  return p;
}

TEST(ServiceSlots, RankedThenNoDlb) {
  for (int i = 0; i < dlb::core::kRankedStrategyCount; ++i) {
    EXPECT_EQ(strategy_slot(ranked_strategy(i)), i);
  }
  EXPECT_EQ(strategy_slot(Strategy::kNoDlb), 4);
}

TEST(ServiceTable, ShapeAndVariantSalting) {
  const auto table =
      predicted_service_table(cluster_for(4), DlbConfig{}, small_mix(), costs(), 3);
  ASSERT_EQ(table.size(), 1u);
  ASSERT_EQ(table[0].size(), 3u);
  bool variants_differ = false;
  for (const auto& makespans : table[0]) {
    for (const double m : makespans) EXPECT_GT(m, 0.0);
  }
  for (int slot = 0; slot < 5; ++slot) {
    const auto s = static_cast<std::size_t>(slot);
    if (table[0][0][s] != table[0][1][s] || table[0][1][s] != table[0][2][s]) {
      variants_differ = true;
    }
  }
  // Salted seeds must give distinct load realizations, hence distinct
  // predicted makespans somewhere in the table.
  EXPECT_TRUE(variants_differ);
}

TEST(ServiceTable, MeanBestIsTheMinOverRankedStrategies) {
  const auto table =
      predicted_service_table(cluster_for(4), DlbConfig{}, small_mix(), costs(), 2);
  const double mean = mean_best_service_seconds(table, small_mix());
  double expect = 0.0;
  for (const auto& makespans : table[0]) {
    double best = makespans[0];
    for (int i = 1; i < dlb::core::kRankedStrategyCount; ++i) {
      best = std::min(best, makespans[static_cast<std::size_t>(i)]);
    }
    expect += best;
  }
  expect /= static_cast<double>(table[0].size());
  EXPECT_DOUBLE_EQ(mean, expect);
  // NoDLB (slot 4) never participates in the best: it prices fixed-strategy
  // cells but not the offered-load normalization.
  EXPECT_GT(table[0][0][4], 0.0);
}

// One class and one load variant make the service time a constant s; at
// rho = 1e-4 the Poisson gaps (mean s / rho) all exceed s for this seed, so
// every wait is zero and every sojourn equals s.
TEST(Service, SparsePoissonStreamHasZeroWaits) {
  ServiceParams p = params_for(200, 1e-4);
  p.load_variants = 1;
  const ServiceReport r = run_service(cluster_for(4), DlbConfig{}, p, costs());

  EXPECT_EQ(r.jobs, 200u);
  EXPECT_NEAR(r.mean_wait_seconds, 0.0, 1e-9);
  EXPECT_NEAR(r.mean_sojourn_seconds, r.mean_service_seconds, 1e-9);
  // Identical sojourns: the exact percentiles all coincide bit for bit (the
  // mean only up to summation rounding).
  EXPECT_DOUBLE_EQ(r.p50_sojourn_seconds, r.p99_sojourn_seconds);
  EXPECT_DOUBLE_EQ(r.p99_sojourn_seconds, r.p999_sojourn_seconds);
  EXPECT_NEAR(r.p50_sojourn_seconds, r.mean_service_seconds,
              1e-9 * r.mean_service_seconds);
  // Utilization ~ rho: the service time is the best-strategy mean the rate
  // was normalized against (single class, single variant).
  EXPECT_NEAR(r.utilization, 1e-4, 0.3e-4);
  EXPECT_EQ(r.jobs_per_strategy[0], 200u);
  EXPECT_EQ(r.strategy_switches, 0u);
}

TEST(Service, FixedInferiorStrategySaturatesBeforeTheBest) {
  // rho is measured against the best strategy; a cell pinned to NoDLB (with
  // external load, strictly slower) must show queueing where the best-fixed
  // cell shows little.
  ServiceParams best = params_for(400, 0.9);
  ServiceParams nodlb = params_for(400, 0.9);
  nodlb.strategy = Strategy::kNoDlb;
  const ServiceReport rb = run_service(cluster_for(4), DlbConfig{}, best, costs());
  const ServiceReport rn = run_service(cluster_for(4), DlbConfig{}, nodlb, costs());
  EXPECT_GT(rn.mean_service_seconds, rb.mean_service_seconds);
  EXPECT_GT(rn.mean_wait_seconds, rb.mean_wait_seconds);
  EXPECT_GE(rn.p999_sojourn_seconds, rn.p99_sojourn_seconds);
  EXPECT_GE(rn.p99_sojourn_seconds, rn.p50_sojourn_seconds);
}

TEST(Service, MeanSojournIsMonotoneInRho) {
  double prev = 0.0;
  for (const double rho : {0.3, 0.6, 0.9}) {
    const ServiceReport r =
        run_service(cluster_for(4), DlbConfig{}, params_for(2000, rho), costs());
    EXPECT_GE(r.mean_sojourn_seconds, prev);
    prev = r.mean_sojourn_seconds;
  }
}

TEST(Service, ReportIsBitDeterministic) {
  ServiceParams p = params_for(2000, 0.8);
  p.arrival = parse_arrival_spec("bursty");
  p.online = true;
  const ServiceReport a = run_service(cluster_for(4), DlbConfig{}, p, costs());
  const ServiceReport b = run_service(cluster_for(4), DlbConfig{}, p, costs());
  EXPECT_EQ(a.jobs, b.jobs);
  EXPECT_DOUBLE_EQ(a.rate_jobs_per_sec, b.rate_jobs_per_sec);
  EXPECT_DOUBLE_EQ(a.horizon_seconds, b.horizon_seconds);
  EXPECT_DOUBLE_EQ(a.throughput_jobs_per_sec, b.throughput_jobs_per_sec);
  EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
  EXPECT_DOUBLE_EQ(a.p50_sojourn_seconds, b.p50_sojourn_seconds);
  EXPECT_DOUBLE_EQ(a.p99_sojourn_seconds, b.p99_sojourn_seconds);
  EXPECT_DOUBLE_EQ(a.p999_sojourn_seconds, b.p999_sojourn_seconds);
  EXPECT_DOUBLE_EQ(a.mean_sojourn_seconds, b.mean_sojourn_seconds);
  EXPECT_EQ(a.strategy_switches, b.strategy_switches);
  EXPECT_EQ(a.jobs_per_strategy, b.jobs_per_strategy);
}

TEST(Service, OnlineModeAccountsEveryJobToARankedStrategy) {
  ServiceParams p = params_for(3000, 0.7);
  p.load_variants = 8;  // variant spread gives the selector something to rank
  p.online = true;
  const ServiceReport r = run_service(cluster_for(4), DlbConfig{}, p, costs());
  std::uint64_t total = 0;
  for (const auto n : r.jobs_per_strategy) total += n;
  EXPECT_EQ(total, 3000u);
  EXPECT_EQ(r.jobs_per_strategy[4], 0u);  // NoDLB is never ranked online
}

TEST(Service, MetricsTotalsMatchTheReport) {
  dlb::obs::MetricsRegistry registry;
  ServiceParams p = params_for(500, 0.7);
  p.online = true;
  const ServiceReport r =
      run_service(cluster_for(4), DlbConfig{}, p, costs(), &registry);
  const auto snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(snap.value_of("svc.jobs"), 500.0);
  EXPECT_DOUBLE_EQ(snap.value_of("svc.sojourn_seconds.count"), 500.0);
  EXPECT_DOUBLE_EQ(snap.value_of("svc.wait_seconds.count"), 500.0);
  EXPECT_DOUBLE_EQ(snap.value_of("svc.switches"),
                   static_cast<double>(r.strategy_switches));
  EXPECT_NEAR(snap.value_of("svc.sojourn_seconds.sum"),
              r.mean_sojourn_seconds * 500.0, 1e-6 * r.mean_sojourn_seconds * 500.0);
  // Two identically parameterized runs snapshot identically (key sequence
  // and values), which is what lets reports splice metrics in as columns.
  dlb::obs::MetricsRegistry again;
  (void)run_service(cluster_for(4), DlbConfig{}, p, costs(), &again);
  EXPECT_EQ(again.snapshot().values, snap.values);
}

TEST(Service, SimBackendAgreesWithTheModelOnServiceTime) {
  // Validation backend: really execute the protocol per admission.  Mean
  // service time must be in the model's ballpark (the predictor's accuracy
  // claim), and the persistent cluster's network must have carried traffic.
  ServiceParams p = params_for(25, 0.5);
  p.load_variants = 1;
  p.backend = ServiceBackend::kSim;
  const ServiceReport sim = run_service(cluster_for(4), DlbConfig{}, p, costs());
  p.backend = ServiceBackend::kModel;
  const ServiceReport model = run_service(cluster_for(4), DlbConfig{}, p, costs());
  EXPECT_GT(sim.messages, 0u);
  EXPECT_GT(sim.bytes, 0u);
  EXPECT_GT(sim.mean_service_seconds, 0.0);
  EXPECT_LT(sim.mean_service_seconds, model.mean_service_seconds * 2.0);
  EXPECT_GT(sim.mean_service_seconds, model.mean_service_seconds * 0.5);
}

TEST(Service, ValidatesParams) {
  EXPECT_THROW((void)run_service(cluster_for(4), DlbConfig{}, params_for(0, 0.5), costs()),
               std::invalid_argument);
  EXPECT_THROW((void)run_service(cluster_for(4), DlbConfig{}, params_for(10, 0.0), costs()),
               std::invalid_argument);
  EXPECT_THROW((void)run_service(cluster_for(4), DlbConfig{}, params_for(10, 1.5), costs()),
               std::invalid_argument);

  ServiceParams auto_without_online = params_for(10, 0.5);
  auto_without_online.strategy = Strategy::kAuto;
  EXPECT_THROW(
      (void)run_service(cluster_for(4), DlbConfig{}, auto_without_online, costs()),
      std::invalid_argument);

  ServiceParams hetero_sim = params_for(10, 0.5);
  hetero_sim.mix = JobMix::builtin("hetero");
  hetero_sim.backend = ServiceBackend::kSim;
  EXPECT_THROW((void)run_service(cluster_for(4), DlbConfig{}, hetero_sim, costs()),
               std::invalid_argument);

  DlbConfig observing;
  observing.observe = true;
  EXPECT_THROW((void)run_service(cluster_for(4), observing, params_for(10, 0.5), costs()),
               std::invalid_argument);
}

TEST(Service, BuiltinMixesValidate) {
  const JobMix def = JobMix::builtin("default");
  def.validate();
  EXPECT_TRUE(def.uniform_load_shape());
  const JobMix hetero = JobMix::builtin("hetero");
  hetero.validate();
  EXPECT_FALSE(hetero.uniform_load_shape());
  EXPECT_THROW((void)JobMix::builtin("nope"), std::invalid_argument);
}

}  // namespace
