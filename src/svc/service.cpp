#include "svc/service.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/protocol.hpp"
#include "model/predictor.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace dlb::svc {

namespace {

constexpr int kStrategySlots = 5;

/// Salts the cluster seed with a load-variant id: distinct variants must
/// yield independent load realizations, and variant 0 must not collide with
/// the unsalted cell seed used elsewhere.
std::uint64_t variant_seed(std::uint64_t seed, int variant) {
  std::uint64_t state =
      seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(variant) + 1);
  return support::splitmix64(state);
}

core::Strategy slot_strategy(int slot) {
  return slot == 4 ? core::Strategy::kNoDlb : core::ranked_strategy(slot);
}

struct LatencyInstruments {
  obs::Histogram* sojourn = nullptr;
  obs::Histogram* service = nullptr;
  obs::Histogram* wait = nullptr;
  obs::Counter* jobs = nullptr;

  explicit LatencyInstruments(obs::MetricsRegistry* metrics) {
    if (metrics == nullptr) return;
    // 1 ms to ~2.3 hours at constant relative resolution; long-tail sojourn
    // under saturation spans orders of magnitude, so the bounds are
    // log-spaced.
    const auto bounds = obs::log_spaced_bounds(1e-3, 2.0, 24);
    sojourn = &metrics->histogram("svc.sojourn_seconds", bounds);
    service = &metrics->histogram("svc.service_seconds", bounds);
    wait = &metrics->histogram("svc.wait_seconds", bounds);
    jobs = &metrics->counter("svc.jobs");
  }

  void observe(double sojourn_s, double service_s, double wait_s) {
    if (sojourn == nullptr) return;
    sojourn->observe(sojourn_s);
    service->observe(service_s);
    wait->observe(wait_s);
    jobs->increment();
  }
};

}  // namespace

void ServiceParams::validate() const {
  if (jobs < 1) throw std::invalid_argument("ServiceParams: jobs must be >= 1");
  if (!(rho > 0.0) || !(rho <= 1.25)) {
    throw std::invalid_argument("ServiceParams: rho must be in (0, 1.25]");
  }
  mix.validate();
  if (load_variants < 1) {
    throw std::invalid_argument("ServiceParams: load_variants must be >= 1");
  }
  hysteresis.validate();
  if (!online && strategy == core::Strategy::kAuto) {
    throw std::invalid_argument(
        "ServiceParams: kAuto means online re-customization; set online instead");
  }
  if (backend == ServiceBackend::kSim && !mix.uniform_load_shape()) {
    throw std::invalid_argument(
        "ServiceParams: the sim backend's persistent cluster carries one load realization, so "
        "every class in the mix must share (t_l, m_l); use the model backend for hetero mixes");
  }
}

int strategy_slot(core::Strategy s) {
  if (s == core::Strategy::kNoDlb) return 4;
  return core::ranked_id(s);
}

PredictionTable predicted_service_table(const cluster::ClusterParams& cluster,
                                        const core::DlbConfig& config, const JobMix& mix,
                                        const net::CollectiveCosts& costs, int load_variants) {
  mix.validate();
  if (load_variants < 1) {
    throw std::invalid_argument("predicted_service_table: load_variants must be >= 1");
  }
  PredictionTable table;
  table.reserve(mix.classes.size());
  for (const auto& cls : mix.classes) {
    const core::LoopDescriptor loop = cls.loop();
    std::vector<std::array<double, 5>> per_variant;
    per_variant.reserve(static_cast<std::size_t>(load_variants));
    for (int v = 0; v < load_variants; ++v) {
      cluster::ClusterParams pc = cluster;
      pc.load.max_load = cls.max_load;
      pc.load.persistence = sim::from_seconds(cls.tl_seconds);
      pc.seed = variant_seed(cluster.seed, v);
      model::PredictorInputs inputs;
      inputs.cluster = pc;
      inputs.loop = &loop;
      inputs.costs = costs;
      inputs.config = config;
      inputs.config.strategy = core::Strategy::kNoDlb;
      const model::Predictor predictor(inputs);
      std::array<double, 5> makespans{};
      for (int slot = 0; slot < kStrategySlots; ++slot) {
        makespans[static_cast<std::size_t>(slot)] =
            predictor.predict(slot_strategy(slot)).makespan_seconds;
      }
      per_variant.push_back(makespans);
    }
    table.push_back(std::move(per_variant));
  }
  return table;
}

double mean_best_service_seconds(const PredictionTable& table, const JobMix& mix) {
  const double total_weight = mix.total_weight();
  double mean = 0.0;
  for (std::size_t c = 0; c < table.size(); ++c) {
    double class_mean = 0.0;
    for (const auto& makespans : table[c]) {
      double best = makespans[0];
      for (int i = 1; i < core::kRankedStrategyCount; ++i) {
        best = std::min(best, makespans[static_cast<std::size_t>(i)]);
      }
      class_mean += best;
    }
    class_mean /= static_cast<double>(table[c].size());
    mean += (mix.classes[c].weight / total_weight) * class_mean;
  }
  return mean;
}

ServiceReport run_service(const cluster::ClusterParams& cluster,
                          const core::DlbConfig& config, const ServiceParams& params,
                          const net::CollectiveCosts& costs, obs::MetricsRegistry* metrics) {
  return run_service(
      cluster, config, params,
      predicted_service_table(cluster, config, params.mix, costs, params.load_variants),
      metrics);
}

ServiceReport run_service(const cluster::ClusterParams& cluster,
                          const core::DlbConfig& config, const ServiceParams& params,
                          const PredictionTable& table, obs::MetricsRegistry* metrics) {
  params.validate();
  if (config.observe || config.record_trace || config.faults.armed()) {
    throw std::invalid_argument(
        "run_service: observe/trace/fault hooks must be disarmed in service mode");
  }
  const bool table_fits =
      table.size() == params.mix.classes.size() &&
      std::all_of(table.begin(), table.end(), [&params](const auto& per_variant) {
        return per_variant.size() == static_cast<std::size_t>(params.load_variants);
      });
  if (!table_fits) {
    throw std::invalid_argument(
        "run_service: the prediction table does not match the job mix and load variants");
  }

  const double mean_best = mean_best_service_seconds(table, params.mix);
  const double rate = params.rho / mean_best;

  ArrivalGenerator generator(params.arrival, params.mix, rate, params.load_variants,
                             cluster.seed);
  decision::OnlineSelector selector(params.hysteresis);
  LatencyInstruments instruments(metrics);

  ServiceReport report;
  report.jobs = params.jobs;
  report.rho = params.rho;
  report.rate_jobs_per_sec = rate;

  std::vector<double> sojourns;
  sojourns.reserve(params.jobs);
  double sum_sojourn = 0.0;
  double sum_service = 0.0;
  double sum_wait = 0.0;
  sim::SimTime busy = 0;
  sim::SimTime last_finish = 0;

  // The sim backend keeps one persistent cluster alive for the whole stream;
  // per-class loop descriptors are prebuilt so admission is allocation-light.
  std::unique_ptr<cluster::Cluster> live_cluster;
  std::vector<core::LoopDescriptor> class_loops;
  if (params.backend == ServiceBackend::kSim) {
    cluster::ClusterParams pc = cluster;
    pc.load.max_load = params.mix.classes.front().max_load;
    pc.load.persistence = sim::from_seconds(params.mix.classes.front().tl_seconds);
    live_cluster = std::make_unique<cluster::Cluster>(pc);
    class_loops.reserve(params.mix.classes.size());
    for (const auto& cls : params.mix.classes) class_loops.push_back(cls.loop());
  }

  sim::SimTime next_free = 0;
  for (std::uint64_t j = 0; j < params.jobs; ++j) {
    const Job job = generator.next();
    const auto& makespans = table[static_cast<std::size_t>(job.class_index)]
                                 [static_cast<std::size_t>(job.load_variant)];

    core::Strategy chosen = params.strategy;
    if (params.online) {
      chosen = selector.decide(
          std::span<const double>(makespans.data(), core::kRankedStrategyCount));
    }
    const int slot = strategy_slot(chosen);
    ++report.jobs_per_strategy[static_cast<std::size_t>(slot)];

    const sim::SimTime arrival = sim::from_seconds(job.arrival_seconds);
    sim::SimTime start = 0;
    sim::SimTime finish = 0;
    if (params.backend == ServiceBackend::kModel) {
      const sim::SimTime service =
          sim::from_seconds(makespans[static_cast<std::size_t>(slot)]);
      start = std::max(arrival, next_free);
      finish = start + service;
      next_free = finish;
    } else {
      auto& engine = live_cluster->engine();
      if (arrival > engine.now()) {
        // A scheduled no-op is the idle clock tick: run() pops it and leaves
        // the engine parked at exactly `arrival` with an empty queue.  On a
        // sharded engine the tick is one trivial window on shard 0, and run()
        // moves every shard's clock to `arrival`.
        {
          sim::Engine::ShardScope scope(engine, 0);
          engine.schedule_at(arrival, [] {});
        }
        engine.run();
      }
      start = engine.now();
      // Runtime::execute_loop's fault-free path, started at `start` on the
      // persistent cluster; drive_loop re-checks work conservation per job.
      core::DlbConfig job_config = config;
      job_config.strategy = chosen;
      core::LoopContext ctx = core::LoopContext::make(
          class_loops[static_cast<std::size_t>(job.class_index)], job_config, *live_cluster);
      (void)core::drive_loop(ctx);
      finish = engine.now();
      next_free = finish;
    }

    const double wait_s = sim::to_seconds(start - arrival);
    const double service_s = sim::to_seconds(finish - start);
    const double sojourn_s = sim::to_seconds(finish - arrival);
    busy += finish - start;
    last_finish = finish;
    sojourns.push_back(sojourn_s);
    sum_sojourn += sojourn_s;
    sum_service += service_s;
    sum_wait += wait_s;
    instruments.observe(sojourn_s, service_s, wait_s);
  }

  report.horizon_seconds = sim::to_seconds(last_finish);
  report.throughput_jobs_per_sec =
      static_cast<double>(params.jobs) / report.horizon_seconds;
  report.utilization = static_cast<double>(busy) / static_cast<double>(last_finish);
  const double n = static_cast<double>(params.jobs);
  report.mean_sojourn_seconds = sum_sojourn / n;
  report.mean_service_seconds = sum_service / n;
  report.mean_wait_seconds = sum_wait / n;
  constexpr double kSlaQuantiles[] = {0.50, 0.99, 0.999};
  const auto sla = support::percentiles_nearest_rank(sojourns, kSlaQuantiles);
  report.p50_sojourn_seconds = sla[0];
  report.p99_sojourn_seconds = sla[1];
  report.p999_sojourn_seconds = sla[2];
  report.strategy_switches = selector.switches();
  if (metrics != nullptr) {
    metrics->counter("svc.switches").add(static_cast<double>(report.strategy_switches));
  }
  if (live_cluster != nullptr) {
    report.messages = live_cluster->network().messages_sent();
    report.bytes = live_cluster->network().bytes_sent();
  }
  return report;
}

}  // namespace dlb::svc
